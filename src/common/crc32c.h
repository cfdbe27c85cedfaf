#ifndef M3R_COMMON_CRC32C_H_
#define M3R_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace m3r::crc32c {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected to 0x82F63B78),
/// the checksum HDFS and Snappy-era storage systems attach to data blocks.
///
/// Two kernels compute the same values. On x86-64 hosts with SSE4.2,
/// Extend uses the `crc32` instruction (8 bytes per instruction), chosen
/// once per process by a CPUID check. Every other host uses the portable
/// software slice-by-8 kernel (eight table lookups per 8-byte word,
/// ~2-3 GB/s per core). The sim cost model's checksum charge
/// (`ClusterSpec::checksum_bandwidth_bytes_per_s`) models the paper's
/// cluster, not this host's kernel, so it is the same on both paths.

/// Extends `crc` (a previous Extend/Crc32c result, or 0 for the first
/// chunk) with `n` bytes at `data`.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// The portable slice-by-8 kernel alone, whatever the host supports.
/// Exposed so tests can check the two kernels agree; callers use Extend.
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n);

/// Checksum of one whole buffer.
inline uint32_t Crc32c(const void* data, size_t n) { return Extend(0, data, n); }
inline uint32_t Crc32c(const std::string& s) { return Crc32c(s.data(), s.size()); }

/// Verifies both Extend and ExtendPortable against known-answer vectors
/// (RFC 3720 §B.4: CRC32C("123456789") == 0xE3069283, all-zero and
/// all-0xFF blocks, and an incremental == one-shot consistency check).
/// Returns true when all pass.
bool SelfTest();

}  // namespace m3r::crc32c

#endif  // M3R_COMMON_CRC32C_H_
