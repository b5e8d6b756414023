// CRC32C (Castagnoli) checksums protecting WAL records, SST blocks and
// NVMe-KV payloads against corruption in the simulated device.
#pragma once

#include <cstddef>
#include <cstdint>

namespace kvaccel::crc32c {

// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the crc32c
// of A. Use Value() for a fresh buffer. Runs on the CPU's crc32 instruction
// where it has one (x86 SSE4.2), chosen once at run time.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// Whether Extend uses the crc32 instruction on this CPU.
bool IsHardwareAccelerated();

// The portable table-driven Extend: the path on every other CPU, and the
// reference the hardware path is tested against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// crc values stored on disk are masked so that computing the crc of a string
// that embeds a crc does not degenerate (same trick as LevelDB).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace kvaccel::crc32c
