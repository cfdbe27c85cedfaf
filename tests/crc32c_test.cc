// CRC32C kernel known-answer and consistency tests. Registered under the
// "tier1" ctest label: if the checksum kernel is wrong, every integrity
// result in the tree is meaningless, so this runs first and fast.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/crc32c.h"

namespace m3r {
namespace {

TEST(Crc32cTest, SelfTestPasses) { EXPECT_TRUE(crc32c::SelfTest()); }

TEST(Crc32cTest, KnownAnswerVectors) {
  // RFC 3720 §B.4 test vectors (as 32-bit values).
  EXPECT_EQ(crc32c::Crc32c(std::string("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c::Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(crc32c::Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(crc32c::Crc32c(ascending), 0x46DD794Eu);
  std::string descending;
  for (int i = 31; i >= 0; --i) descending.push_back(static_cast<char>(i));
  EXPECT_EQ(crc32c::Crc32c(descending), 0x113FDB5Cu);
  EXPECT_EQ(crc32c::Crc32c(std::string()), 0u);
}

TEST(Crc32cTest, ChunkedExtendMatchesOneShot) {
  std::string data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<char>((i * 37 + 11) & 0xff));
  }
  uint32_t whole = crc32c::Crc32c(data);
  // Splits around word boundaries exercise the slice-by-8 head/tail paths.
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{63}, size_t{512}, size_t{999}, data.size()}) {
    uint32_t crc = crc32c::Extend(0, data.data(), split);
    crc = crc32c::Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

std::string Pattern(size_t n) {
  std::string data(n, '\0');
  uint32_t x = 0x9E3779B9u;
  for (size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    data[i] = static_cast<char>(x >> 24);
  }
  return data;
}

TEST(Crc32cTest, DispatchedKernelMatchesPortableAtEveryLengthAndAlignment) {
  // Extend uses the hardware instruction where the host has it; the
  // portable slice-by-8 kernel must produce the same value everywhere.
  const std::string data = Pattern(300 + 8);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      const char* p = data.data() + start;
      ASSERT_EQ(crc32c::Extend(0, p, len), crc32c::ExtendPortable(0, p, len))
          << "start " << start << " len " << len;
      ASSERT_EQ(crc32c::Extend(0xDEADBEEFu, p, len),
                crc32c::ExtendPortable(0xDEADBEEFu, p, len))
          << "seeded, start " << start << " len " << len;
    }
  }
}

TEST(Crc32cTest, DispatchedKernelMatchesPortableOnOneDfsBlock) {
  // One 64 KiB DFS block plus an unaligned 7-byte tail.
  const std::string data = Pattern((64 << 10) + 7 + 8);
  for (size_t start : {size_t{0}, size_t{3}, size_t{8}}) {
    const char* p = data.data() + start;
    const size_t len = (64 << 10) + 7;
    EXPECT_EQ(crc32c::Extend(0, p, len), crc32c::ExtendPortable(0, p, len))
        << "start " << start;
  }
}

TEST(Crc32cTest, EverySingleBitFlipIsDetected) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t clean = crc32c::Crc32c(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = data;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      EXPECT_NE(crc32c::Crc32c(corrupt), clean)
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

}  // namespace
}  // namespace m3r
