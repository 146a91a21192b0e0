// Byte I/O shared by the snapshot formats (flat v1-v3, tiered v4/v5 and
// PQ v1): little-endian PODs, raw byte runs and length-prefixed strings over
// iostreams, with every failure surfacing as a typed SnapshotError.
// Internal to the snapshot writers and loaders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "index/snapshot.h"

namespace jdvs::snapshot_io {

// The config blocks' second slot once held the pre-allocated inverted-list
// capacity, which no index has any more. Writers keep emitting its old
// default so files stay byte-identical to earlier writers; loaders skip it.
inline constexpr std::uint64_t kRetiredListCapacitySlot = 64;

// Longest string a loader accepts: a corrupt length prefix must not turn
// into a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxStringBytes = 1u << 24;

inline void WriteRaw(std::ostream& os, const void* data, std::size_t bytes) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(bytes));
  if (!os) throw SnapshotError("snapshot write failed");
}

template <typename T>
void WritePod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  WriteRaw(os, &value, sizeof(T));
}

inline void WriteString(std::ostream& os, std::string_view s) {
  WritePod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  WriteRaw(os, s.data(), s.size());
}

inline void ReadRaw(std::istream& is, void* data, std::size_t bytes) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (is.gcount() != static_cast<std::streamsize>(bytes)) {
    throw SnapshotError("snapshot truncated");
  }
}

template <typename T>
T ReadPod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  ReadRaw(is, &value, sizeof(T));
  return value;
}

inline std::string ReadString(std::istream& is) {
  const auto size = ReadPod<std::uint32_t>(is);
  if (size > kMaxStringBytes) throw SnapshotError("snapshot string too large");
  std::string s(size, '\0');
  ReadRaw(is, s.data(), size);
  return s;
}

}  // namespace jdvs::snapshot_io
