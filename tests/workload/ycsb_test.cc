#include "src/workload/ycsb.h"

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace workload {
namespace {

TEST(GeneratorTest, GetFractionApproximatelyHonored) {
  WorkloadSpec spec;
  spec.get_fraction = 0.95;
  Generator gen(spec, 0);
  int gets = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    gets += gen.Next().type == OpType::kGet ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(gets) / draws, 0.95, 0.01);
}

TEST(GeneratorTest, WriteOnlyAndReadOnlyExtremes) {
  WorkloadSpec spec;
  spec.get_fraction = 0.0;
  Generator writes(spec, 0);
  spec.get_fraction = 1.0;
  Generator reads(spec, 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(writes.Next().type, OpType::kPut);
    EXPECT_EQ(reads.Next().type, OpType::kGet);
  }
}

TEST(GeneratorTest, KeysStayInRange) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  Generator gen(spec, 3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.Next().key_id, 1000u);
  }
}

TEST(GeneratorTest, DeterministicPerStream) {
  WorkloadSpec spec;
  Generator a(spec, 7);
  Generator b(spec, 7);
  for (int i = 0; i < 100; ++i) {
    Op oa = a.Next();
    Op ob = b.Next();
    EXPECT_EQ(oa.key_id, ob.key_id);
    EXPECT_EQ(oa.type, ob.type);
  }
}

TEST(GeneratorTest, DistinctStreamsDiffer) {
  WorkloadSpec spec;
  Generator a(spec, 1);
  Generator b(spec, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next().key_id == b.Next().key_id ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(GeneratorTest, ZipfianSkewsTowardsHotKeys) {
  WorkloadSpec spec;
  spec.num_keys = 100000;
  spec.distribution = KeyDistribution::kZipfian;
  Generator gen(spec, 0);
  std::map<uint64_t, int> counts;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    counts[gen.Next().key_id]++;
  }
  int hottest = 0;
  for (const auto& [k, c] : counts) {
    hottest = std::max(hottest, c);
  }
  // Uniform would give ~1 access per key; zipf .99 gives the hottest key
  // thousands.
  EXPECT_GT(hottest, 1000);
}

TEST(GeneratorTest, FixedValueSize) {
  WorkloadSpec spec;
  spec.get_fraction = 0.0;
  spec.value_size = ValueSizeSpec::Fixed(512);
  Generator gen(spec, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gen.Next().value_size, 512u);
  }
}

TEST(GeneratorTest, UniformValueSizeInRange) {
  WorkloadSpec spec;
  spec.get_fraction = 0.0;
  spec.value_size = ValueSizeSpec::Uniform(32, 8192);
  Generator gen(spec, 0);
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (int i = 0; i < 20000; ++i) {
    uint32_t v = gen.Next().value_size;
    EXPECT_GE(v, 32u);
    EXPECT_LE(v, 8192u);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 200u);
  EXPECT_GT(hi, 8000u);
}

TEST(GeneratorTest, InvalidSpecsThrow) {
  WorkloadSpec spec;
  spec.num_keys = 0;
  EXPECT_THROW(Generator(spec, 0), std::invalid_argument);
  spec.num_keys = 10;
  spec.get_fraction = 1.5;
  EXPECT_THROW(Generator(spec, 0), std::invalid_argument);
}

TEST(KeyTest, KeysAreDistinctAndDeterministic) {
  std::set<std::vector<std::byte>> seen;
  for (uint64_t id = 0; id < 5000; ++id) {
    std::vector<std::byte> key(16);
    MakeKey(id, key);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate key for id " << id;
  }
  std::vector<std::byte> again(16);
  MakeKey(42, again);
  std::vector<std::byte> first(16);
  MakeKey(42, first);
  EXPECT_EQ(again, first);
}

TEST(KeyTest, OddKeySizesSupported) {
  std::vector<std::byte> key(23);
  MakeKey(7, key);
  std::vector<std::byte> key2(23);
  MakeKey(8, key2);
  EXPECT_NE(key, key2);
}

TEST(ValueTest, FillAndCheckRoundTrip) {
  std::vector<std::byte> value(1024);
  FillValue(99, value);
  EXPECT_TRUE(CheckValue(99, value));
  EXPECT_FALSE(CheckValue(100, value));
  value[512] ^= std::byte{0xff};
  EXPECT_FALSE(CheckValue(99, value));
}

// FillValue copies one 256-byte period forward; every length, including
// partial trailing periods, must match the per-byte formula.
TEST(ValueTest, FillMatchesBytePatternAtEveryLength) {
  for (size_t len : {1u, 31u, 255u, 256u, 257u, 700u, 1024u, 8192u, 8193u}) {
    std::vector<std::byte> value(len);
    FillValue(42, value);
    const uint64_t base = sim::Mix64(uint64_t{42} ^ 0x56414c55u);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(value[i], static_cast<std::byte>((base + i * 131) & 0xff)) << len << " @" << i;
    }
    EXPECT_TRUE(CheckValue(42, value)) << len;
    value[len - 1] ^= std::byte{0x01};
    EXPECT_FALSE(CheckValue(42, value)) << len;
  }
}

TEST(ValueTest, EmptyValueAlwaysChecks) {
  EXPECT_TRUE(CheckValue(1, {}));
}

TEST(GeneratorTest, LogUniformHitsExactlyThePowerGrid) {
  WorkloadSpec spec;
  spec.get_fraction = 0.0;
  spec.value_size = ValueSizeSpec::LogUniform(32, 8192);
  Generator gen(spec, 0);
  std::map<uint32_t, int> counts;
  const int draws = 90000;
  for (int i = 0; i < draws; ++i) {
    counts[gen.Next().value_size]++;
  }
  // Exactly the 9 powers of two in [32, 8192], roughly equiprobable.
  ASSERT_EQ(counts.size(), 9u);
  for (uint32_t v = 32; v <= 8192; v <<= 1) {
    ASSERT_TRUE(counts.count(v)) << v;
    EXPECT_NEAR(counts[v], draws / 9, draws / 45);  // within 20%
  }
}

TEST(GeneratorTest, LogUniformDegenerateRangeIsFixed) {
  WorkloadSpec spec;
  spec.get_fraction = 0.0;
  spec.value_size = ValueSizeSpec::LogUniform(64, 64);
  Generator gen(spec, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gen.Next().value_size, 64u);
  }
}

TEST(VersionedValueTest, AnyCompleteVersionVerifies) {
  std::vector<std::byte> value(64);
  for (uint64_t version : {0ull, 1ull, 42ull, 1'000'000ull}) {
    FillValueVersioned(9, version, value);
    EXPECT_TRUE(CheckValueVersioned(9, value)) << version;
    EXPECT_FALSE(CheckValueVersioned(10, value)) << version;
  }
}

TEST(VersionedValueTest, TornMixOfTwoVersionsFails) {
  std::vector<std::byte> a(64);
  std::vector<std::byte> b(64);
  FillValueVersioned(5, 1, a);
  FillValueVersioned(5, 2, b);
  // Splice the head of version 2 onto the tail of version 1.
  std::vector<std::byte> torn(a);
  std::copy(b.begin(), b.begin() + 16, torn.begin());
  EXPECT_FALSE(CheckValueVersioned(5, torn));
}

TEST(VersionedValueTest, TooSmallBuffersRejected) {
  std::vector<std::byte> tiny(4);
  EXPECT_THROW(FillValueVersioned(1, 1, tiny), std::invalid_argument);
  EXPECT_FALSE(CheckValueVersioned(1, tiny));
}

}  // namespace
}  // namespace workload
