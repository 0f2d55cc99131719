// CRC32C: RFC 3720 (iSCSI) check vectors and randomized agreement with a
// bit-at-a-time reference, run against the dispatched entry point, the
// table fallback and (when the CPU has it) the SSE4.2 path, so page and WAL
// checksums stay bit-identical whichever path a machine takes.
#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace ruidx {
namespace util {
namespace {

// One polynomial step per bit: the definition, with no table to get wrong.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

uint32_t Dispatched(const void* data, size_t len, uint32_t seed) {
  return Crc32c(data, len, seed);
}

struct Impl {
  const char* name;
  detail::Crc32cFn fn;
};

class Crc32cTest : public ::testing::TestWithParam<Impl> {
 protected:
  void SetUp() override {
    if (GetParam().fn == nullptr) {
      GTEST_SKIP() << GetParam().name << " is not available on this CPU";
    }
  }
  uint32_t Run(const std::vector<uint8_t>& bytes, uint32_t seed = 0) {
    return GetParam().fn(bytes.data(), bytes.size(), seed);
  }
};

TEST_P(Crc32cTest, Rfc3720Vectors) {
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> ascending(32), descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  std::string digits = "123456789";
  EXPECT_EQ(Run(zeros), 0x8A9136AAu);
  EXPECT_EQ(Run(ones), 0x62A8AB43u);
  EXPECT_EQ(Run(ascending), 0x46DD794Eu);
  EXPECT_EQ(Run(descending), 0x113FDB5Cu);
  EXPECT_EQ(GetParam().fn(digits.data(), digits.size(), 0), 0xE3069283u);
  EXPECT_EQ(GetParam().fn(nullptr, 0, 0), 0u);
}

TEST_P(Crc32cTest, RandomUnalignedChainsMatchReference) {
  std::mt19937_64 rng(0xC3C32C);
  std::vector<uint8_t> buffer(4104 + 16);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng());
  std::uniform_int_distribution<size_t> length(0, 4104);
  std::uniform_int_distribution<size_t> offset(0, 15);
  uint32_t seed = 0;
  uint32_t expected_seed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    size_t len = length(rng);
    size_t off = offset(rng);
    const uint8_t* p = buffer.data() + off;
    seed = GetParam().fn(p, len, seed);
    expected_seed = ReferenceCrc32c(p, len, expected_seed);
    ASSERT_EQ(seed, expected_seed) << "len=" << len << " off=" << off;
  }
}

TEST_P(Crc32cTest, PiecewiseEqualsWhole) {
  std::mt19937_64 rng(7);
  std::vector<uint8_t> page(4096);
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng());
  uint32_t whole = Run(page);
  for (size_t cut : {0, 1, 7, 8, 9, 4084, 4095, 4096}) {
    uint32_t head = GetParam().fn(page.data(), cut, 0);
    EXPECT_EQ(GetParam().fn(page.data() + cut, page.size() - cut, head),
              whole)
        << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, Crc32cTest,
    ::testing::Values(Impl{"dispatched", Dispatched},
                      Impl{"table", detail::Crc32cTable},
                      Impl{"sse42", detail::Crc32cHardware()}),
    [](const ::testing::TestParamInfo<Impl>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace util
}  // namespace ruidx
