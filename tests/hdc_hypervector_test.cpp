// Tests for the hypervector value types and representation conversions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/kernel_backend.hpp"
#include "hdc/random_hv.hpp"
#include "util/random.hpp"

namespace reghd::hdc {
namespace {

TEST(RealHVTest, ZeroInitialized) {
  const RealHV v(16);
  EXPECT_EQ(v.dim(), 16u);
  for (std::size_t i = 0; i < v.dim(); ++i) {
    EXPECT_DOUBLE_EQ(v[i], 0.0);
  }
}

TEST(RealHVTest, AdoptsValuesAndClears) {
  RealHV v(std::vector<double>{1.0, -2.0, 3.0});
  EXPECT_EQ(v.dim(), 3u);
  EXPECT_DOUBLE_EQ(v[1], -2.0);
  v.clear();
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_EQ(v.dim(), 3u);
}

TEST(RealHVTest, SignMapsZeroToPlusOne) {
  const RealHV v(std::vector<double>{1.5, -0.5, 0.0});
  const BinaryHV s = v.sign_packed();
  EXPECT_EQ(s.bipolar(0), 1);
  EXPECT_EQ(s.bipolar(1), -1);
  EXPECT_EQ(s.bipolar(2), 1);  // the documented tie rule
}

TEST(RealHVTest, SignPackedAgreesWithSignThenPack) {
  util::Rng rng(3);
  const RealHV v = random_gaussian(130, rng);  // odd size exercises padding
  BinaryHV expected(v.dim());
  for (std::size_t i = 0; i < v.dim(); ++i) {
    expected.set_bit(i, !(v[i] < 0.0));  // the sign rule, one component at a time
  }
  EXPECT_EQ(v.sign_packed(), expected);
}

TEST(RealHVTest, SignPackedMatchesSignEncodeOnEveryBackend) {
  // One sign rule for snapshots (requantize → sign_packed) and encoded
  // queries (sign_encode): the edge values must land on the same bits on
  // every kernel table, at a length with a partial final word.
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {std::nan(""), -0.0, 0.0, denorm, -denorm, 1.0, -1.0};
  util::Rng rng(29);
  while (values.size() < 100) {
    values.push_back(rng.normal());
  }
  values.push_back(std::nan(""));  // also in the partial word
  const RealHV v(values);
  const BinaryHV packed = v.sign_packed();
  EXPECT_TRUE(packed.bit(0));   // NaN → +1
  EXPECT_TRUE(packed.bit(1));   // −0 → +1
  EXPECT_TRUE(packed.bit(2));   // +0 → +1
  EXPECT_TRUE(packed.bit(3));   // +denormal → +1
  EXPECT_FALSE(packed.bit(4));  // −denormal → −1
  EXPECT_TRUE(packed.bit(5));
  EXPECT_FALSE(packed.bit(6));
  EXPECT_TRUE(packed.bit(100));

  const BackendList tables = available_backends();
  for (std::size_t t = 0; t < tables.count; ++t) {
    const KernelBackend& kb = *tables.tables[t];
    std::vector<std::uint64_t> bits(packed.word_count(), ~0ULL);
    kb.sign_encode(v.values().data(), bits.data(), v.dim());
    EXPECT_TRUE(std::equal(bits.begin(), bits.end(), packed.words().begin())) << kb.name;
  }
}

TEST(BinaryHVTest, BitManipulation) {
  BinaryHV v(100);
  EXPECT_EQ(v.dim(), 100u);
  EXPECT_EQ(v.word_count(), 2u);
  EXPECT_FALSE(v.bit(63));
  v.set_bit(63, true);
  v.set_bit(99, true);
  EXPECT_TRUE(v.bit(63));
  EXPECT_TRUE(v.bit(99));
  EXPECT_EQ(v.popcount(), 2u);
  v.set_bit(63, false);
  EXPECT_EQ(v.popcount(), 1u);
}

TEST(BinaryHVTest, BipolarViewOfBits) {
  BinaryHV v(4);
  v.set_bit(1, true);
  EXPECT_EQ(v.bipolar(0), -1);
  EXPECT_EQ(v.bipolar(1), +1);
}

TEST(BinaryHVTest, PaddingBitsStayZeroThroughConversions) {
  // 70 dims → 2 words with 58 padding bits; popcount must never see them.
  util::Rng rng(13);
  const BinaryHV v = random_binary(70, rng);
  const auto words = v.words();
  EXPECT_EQ(words[1] >> 6, 0ULL);  // bits 70.. of word 1 are zero
  const BinaryHV via_real = v.to_real().sign_packed();
  EXPECT_EQ(via_real, v);
}

TEST(BinaryHVTest, ToRealIsPlusMinusOne) {
  util::Rng rng(17);
  const BinaryHV v = random_binary(96, rng);
  const RealHV r = v.to_real();
  for (std::size_t i = 0; i < 96; ++i) {
    EXPECT_DOUBLE_EQ(r[i], v.bit(i) ? 1.0 : -1.0);
  }
}

TEST(ConversionTest, AllThreeRepresentationsAgreeOnSigns) {
  // Real components, their packed signs, and the packed signs widened back
  // to ±1 reals.
  util::Rng rng(19);
  const RealHV real = random_gaussian(257, rng);
  const BinaryHV binary = real.sign_packed();
  const RealHV widened = binary.to_real();
  for (std::size_t i = 0; i < real.dim(); ++i) {
    const int expected = real[i] >= 0.0 ? 1 : -1;
    EXPECT_EQ(binary.bipolar(i), expected);
    EXPECT_EQ(widened[i], static_cast<double>(expected));
  }
}

TEST(EqualityTest, ValueSemantics) {
  util::Rng rng(23);
  const BinaryHV a = random_binary(128, rng);
  BinaryHV b = a;
  EXPECT_EQ(a, b);
  b.set_bit(5, !b.bit(5));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace reghd::hdc
