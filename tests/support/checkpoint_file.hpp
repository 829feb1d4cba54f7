// Test hooks for checkpoint files: the one-island container a
// single-population run writes around its GaSnapshot, and a byte edit that
// keeps the CRC valid so a test reaches the decoders behind the container
// checks.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "common/checksum.hpp"
#include "core/run_control.hpp"

namespace mmsyn {

/// The container a one-island run writes around `snapshot`: the island's
/// fingerprint and 0 for every migration field.
inline IslandSnapshot one_island(GaSnapshot snapshot) {
  IslandSnapshot container;
  container.fingerprint = snapshot.fingerprint;
  container.islands.push_back(std::move(snapshot));
  return container;
}

/// Writes `snapshot` as a one-island checkpoint, keeping `keep` generations.
inline void save_one_island(const std::string& path,
                            const GaSnapshot& snapshot, int keep = 1) {
  save_island_checkpoint_rotating(path, one_island(snapshot), keep);
}

/// Reads a one-island checkpoint back to its GaSnapshot.
inline GaSnapshot load_one_island(const std::string& path) {
  IslandSnapshot container = load_island_checkpoint(path);
  EXPECT_EQ(container.island_count, 1) << path;
  return std::move(container.islands.front());
}

/// File offset of island 0's `genome_length` (u64): the 20-byte file
/// header (magic, version, payload size), the 28-byte container header,
/// then the island's u64 payload length and u64 fingerprint.
inline constexpr std::size_t kGenomeLengthOffset = 64;

/// Overwrites the little-endian u64 at byte `offset` of the checkpoint at
/// `path` and recomputes the payload CRC, so the file still passes every
/// container check and only the decoder can reject it.
inline void patch_checkpoint_u64(const std::string& path, std::size_t offset,
                                 std::uint64_t value) {
  constexpr std::size_t kHeaderBytes = 20;
  constexpr std::size_t kCrcBytes = 4;
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GE(bytes.size(), kHeaderBytes + kCrcBytes + offset) << path;
  for (std::size_t i = 0; i < 8; ++i)
    bytes[offset + i] = static_cast<char>(value >> (8 * i));
  const std::uint32_t crc = crc32(bytes.data() + kHeaderBytes,
                                  bytes.size() - kHeaderBytes - kCrcBytes);
  for (std::size_t i = 0; i < kCrcBytes; ++i)
    bytes[bytes.size() - kCrcBytes + i] = static_cast<char>(crc >> (8 * i));
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace mmsyn
