#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define M3R_CRC32C_HW 1
#endif

namespace m3r::crc32c {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli polynomial

struct Tables {
  // table[0] is the classic byte-at-a-time table; tables 1..7 fold in one
  // extra byte of lookahead each, enabling 8 bytes per iteration.
  std::array<std::array<uint32_t, 256>, 8> t;

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

#ifdef M3R_CRC32C_HW
// The SSE4.2 `crc32` instruction computes exactly this polynomial with the
// same reflected bit order, so it is a drop-in for the table kernel.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                        const void* data,
                                                        size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  return ~static_cast<uint32_t>(c);
}

bool HasSse42() {
  static const bool kHas = [] {
    __builtin_cpu_init();  // may run before the CPU model is initialised
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return kHas;
}
#endif

bool KnownAnswersPass(uint32_t (*extend)(uint32_t, const void*, size_t)) {
  auto crc = [extend](const std::string& s) {
    return extend(0, s.data(), s.size());
  };
  // RFC 3720 §B.4 known-answer vectors.
  const std::string digits = "123456789";
  if (crc(digits) != 0xE3069283u) return false;
  std::string zeros(32, '\0');
  if (crc(zeros) != 0x8A9136AAu) return false;
  std::string ffs(32, static_cast<char>(0xFF));
  if (crc(ffs) != 0x62A8AB43u) return false;
  std::string inc(32, '\0');
  for (int i = 0; i < 32; ++i) inc[i] = static_cast<char>(i);
  if (crc(inc) != 0x46DD794Eu) return false;
  // Incremental extension must agree with the one-shot checksum regardless
  // of chunking (exercises the unaligned head/tail paths).
  std::string all = digits + zeros + inc;
  for (size_t cut = 0; cut <= all.size(); cut += 3) {
    uint32_t c = extend(0, all.data(), cut);
    c = extend(c, all.data() + cut, all.size() - cut);
    if (c != crc(all)) return false;
  }
  return true;
}

}  // namespace

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n) {
  const Tables& tb = tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  // Align to 8 bytes byte-at-a-time, then slice-by-8 over whole words.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = tb.t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);  // little-endian hosts only (x86-64, aarch64)
    word ^= c;
    c = tb.t[7][word & 0xFF] ^ tb.t[6][(word >> 8) & 0xFF] ^
        tb.t[5][(word >> 16) & 0xFF] ^ tb.t[4][(word >> 24) & 0xFF] ^
        tb.t[3][(word >> 32) & 0xFF] ^ tb.t[2][(word >> 40) & 0xFF] ^
        tb.t[1][(word >> 48) & 0xFF] ^ tb.t[0][(word >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = tb.t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    --n;
  }
  return ~c;
}

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
#ifdef M3R_CRC32C_HW
  if (HasSse42()) return ExtendSse42(crc, data, n);
#endif
  return ExtendPortable(crc, data, n);
}

bool SelfTest() {
  return KnownAnswersPass(&Extend) && KnownAnswersPass(&ExtendPortable);
}

}  // namespace m3r::crc32c
