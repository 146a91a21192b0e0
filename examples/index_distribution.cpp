// Full-index distribution via snapshots.
//
// The weekly full indexing (Section 2.2) runs on builder machines; searcher
// nodes receive the result as an artifact rather than rebuilding locally.
// This example builds a partition index, saves it to disk, "ships" it to a
// fresh searcher via InstallFromSnapshot, and verifies both serve identical
// results — including for the compressed IVF-PQ form.
//
//   ./index_distribution [--products=2000]
#include <cstdio>
#include <filesystem>

#include "jdvs/jdvs.h"

int main(int argc, char** argv) {
  using namespace jdvs;
  const Flags flags(argc, argv);
  const auto products =
      static_cast<std::size_t>(flags.GetInt("products", 2000));

  const SyntheticEmbedder embedder({.dim = 48, .num_categories = 16,
                                    .seed = 77});
  FeatureDb features(embedder, ExtractionCostModel{.mean_micros = 0});
  ProductCatalog catalog;
  ImageStore images;
  CatalogGenConfig cg;
  cg.num_products = products;
  cg.num_categories = 16;
  const CatalogGenStats gen = GenerateCatalog(cg, catalog, images, &features);
  std::printf("catalog: %llu products, %llu images\n",
              (unsigned long long)gen.products,
              (unsigned long long)gen.images);

  // Builder machine: weekly full build.
  FullIndexBuilderConfig fc;
  fc.kmeans.num_clusters = 32;
  fc.index_config.nprobe = 8;
  FullIndexBuilder builder(catalog, images, features, fc);
  auto quantizer = builder.TrainQuantizer();
  const auto& clock = MonotonicClock::Instance();
  Stopwatch watch(clock);
  auto built = builder.Build(quantizer);
  std::printf("full build: %zu images in %s\n", built->size(),
              FormatMicros(watch.ElapsedMicros()).c_str());

  // Ship as a snapshot.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string flat_path = (dir / "jdvs_example_flat.snap").string();
  watch.Restart();
  SaveIndexSnapshot(*built, flat_path);
  const auto flat_bytes = std::filesystem::file_size(flat_path);
  std::printf("snapshot save: %s, %.1f MB (%.0f bytes/image)\n",
              FormatMicros(watch.ElapsedMicros()).c_str(),
              static_cast<double>(flat_bytes) / 1e6,
              static_cast<double>(flat_bytes) / built->size());

  // A fresh searcher installs it.
  Searcher searcher("searcher-new", Searcher::Config{}, features,
                    AcceptAllPartitionFilter());
  watch.Restart();
  searcher.InstallFromSnapshot(flat_path);
  std::printf("searcher install: %s, now serving %zu images\n",
              FormatMicros(watch.ElapsedMicros()).c_str(),
              searcher.index_stats().total_images);

  // Verify: identical answers and content digest.
  const auto digest_built = ComputeIndexDigest(*built);
  int agreements = 0;
  for (ProductId pid = 1; pid <= 25; ++pid) {
    const auto record = catalog.Get(pid);
    const auto query = embedder.ExtractQuery(pid, record->category, pid);
    const auto a = built->Search(query, 5);
    const auto b = searcher.SearchLocal(query, 5);
    if (a.size() == b.size() &&
        std::equal(a.begin(), a.end(), b.begin(),
                   [](const SearchHit& x, const SearchHit& y) {
                     return x.image_id == y.image_id;
                   })) {
      ++agreements;
    }
  }
  std::printf("result agreement on 25 probe queries: %d/25 (content digest "
              "%016llx, %llu entries)\n",
              agreements, (unsigned long long)digest_built.content_hash,
              (unsigned long long)digest_built.entries);

  // The compressed form: build an IVF-PQ index, snapshot, reload.
  ProductQuantizerConfig pc;
  pc.num_subspaces = 8;
  pc.codebook_size = 128;
  std::vector<FeatureVector> training;
  catalog.ForEach([&](const ProductRecord& r) {
    if (training.size() >= 2048) return;
    training.push_back(
        embedder.Extract({r.image_urls[0], r.id, r.category}));
  });
  auto pq = std::make_shared<ProductQuantizer>(
      ProductQuantizer::Train(training, pc));
  IvfIndexConfig pq_config;
  pq_config.nprobe = 8;
  IvfIndex compressed(quantizer, pq, pq_config);
  catalog.ForEach([&](const ProductRecord& r) {
    for (const auto& url : r.image_urls) {
      compressed.AddImage(url, r.id, r.category, r.attributes, r.detail_url,
                          embedder.Extract({url, r.id, r.category}));
    }
  });
  const std::string pq_path = (dir / "jdvs_example_pq.snap").string();
  SaveIndexSnapshot(compressed, pq_path);
  const auto pq_bytes = std::filesystem::file_size(pq_path);
  auto reloaded = LoadIndexSnapshot(pq_path);
  std::printf("\nIVF-PQ snapshot: %.1f MB vs %.1f MB flat (%.1fx smaller), "
              "reloaded %zu images\n",
              static_cast<double>(pq_bytes) / 1e6,
              static_cast<double>(flat_bytes) / 1e6,
              static_cast<double>(flat_bytes) /
                  static_cast<double>(pq_bytes),
              reloaded->size());

  std::filesystem::remove(flat_path);
  std::filesystem::remove(pq_path);
  return 0;
}
