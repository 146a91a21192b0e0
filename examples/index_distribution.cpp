// Full-index distribution via snapshots.
//
// The weekly full indexing (Section 2.2) runs on builder machines; searcher
// nodes receive the result as an artifact rather than rebuilding locally.
// This example builds a partition index, saves it to disk, "ships" it to a
// fresh searcher via InstallFromSnapshot, and verifies both serve identical
// results: it exits nonzero if any probe query's answer differs.
//
//   ./index_distribution [--products=2000]
#include <algorithm>
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
  const std::string path =
      (std::filesystem::temp_directory_path() / "jdvs_example_index.snap")
          .string();
  watch.Restart();
  SaveIndexSnapshot(*built, path);
  const auto bytes = std::filesystem::file_size(path);
  std::printf("snapshot save: %s, %.1f MB (%.0f bytes/image)\n",
              FormatMicros(watch.ElapsedMicros()).c_str(),
              static_cast<double>(bytes) / 1e6,
              static_cast<double>(bytes) / built->size());

  // A fresh searcher installs it.
  Searcher searcher("searcher-new", Searcher::Config{}, features,
                    AcceptAllPartitionFilter());
  watch.Restart();
  searcher.InstallFromSnapshot(path);
  std::filesystem::remove(path);
  std::printf("searcher install: %s, now serving %zu images\n",
              FormatMicros(watch.ElapsedMicros()).c_str(),
              searcher.index_stats().total_images);

  // Verify: identical answers, image for image and distance for distance.
  constexpr int kProbes = 25;
  const auto digest_built = ComputeIndexDigest(*built);
  int agreements = 0;
  for (ProductId pid = 1; pid <= kProbes; ++pid) {
    const auto record = catalog.Get(pid);
    const auto query = embedder.ExtractQuery(pid, record->category, pid);
    const auto a = built->Search(query, 5);
    const auto b = searcher.SearchLocal(query, 5);
    if (a.size() == b.size() &&
        std::equal(a.begin(), a.end(), b.begin(),
                   [](const SearchHit& x, const SearchHit& y) {
                     return x.image_id == y.image_id &&
                            x.distance == y.distance;
                   })) {
      ++agreements;
    }
  }
  std::printf("result agreement on %d probe queries: %d/%d (content digest "
              "%016llx, %llu entries)\n",
              kProbes, agreements, kProbes,
              (unsigned long long)digest_built.content_hash,
              (unsigned long long)digest_built.entries);
  if (agreements != kProbes) {
    std::fprintf(stderr,
                 "FAIL: the installed snapshot answered %d of %d probe "
                 "queries differently from the index that wrote it\n",
                 kProbes - agreements, kProbes);
    return 1;
  }
  return 0;
}
