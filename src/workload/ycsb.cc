#include "src/workload/ycsb.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace workload {

Generator::Generator(const WorkloadSpec& spec, uint64_t stream_id)
    : spec_(spec), rng_(sim::Mix64(spec.seed) ^ sim::Mix64(stream_id + 0x9e37)) {
  if (spec_.num_keys == 0) {
    throw std::invalid_argument("workload: num_keys must be positive");
  }
  if (spec_.get_fraction < 0.0 || spec_.get_fraction > 1.0) {
    throw std::invalid_argument("workload: get_fraction must be in [0,1]");
  }
  if (spec_.distribution == KeyDistribution::kZipfian) {
    zipf_.emplace(spec_.num_keys, spec_.zipf_theta);
  }
}

Op Generator::Next() {
  Op op;
  op.type = rng_.NextBernoulli(spec_.get_fraction) ? OpType::kGet : OpType::kPut;
  op.key_id = zipf_ ? zipf_->Next(rng_) : rng_.NextBounded(spec_.num_keys);
  switch (spec_.value_size.kind) {
    case ValueSizeSpec::Kind::kFixed:
      op.value_size = spec_.value_size.fixed;
      break;
    case ValueSizeSpec::Kind::kUniformRange:
      op.value_size = static_cast<uint32_t>(
          rng_.NextInRange(spec_.value_size.lo, spec_.value_size.hi));
      break;
    case ValueSizeSpec::Kind::kLogUniform: {
      int steps = 0;
      for (uint32_t s = spec_.value_size.lo; s < spec_.value_size.hi; s <<= 1) {
        ++steps;
      }
      op.value_size = spec_.value_size.lo
                      << rng_.NextBounded(static_cast<uint64_t>(steps) + 1);
      break;
    }
  }
  return op;
}

void MakeKey(uint64_t key_id, std::span<std::byte> out) {
  // First 8 bytes: the id (distinctness); rest: avalanche bits.
  uint64_t words[2] = {key_id, sim::Mix64(key_id)};
  size_t n = 0;
  while (n < out.size()) {
    const size_t chunk = std::min(out.size() - n, sizeof(words));
    std::memcpy(out.data() + n, words, chunk);
    n += chunk;
    words[1] = sim::Mix64(words[1]);
  }
}

// Byte i of a value is (base + 131 i) mod 256, a sequence with period 256:
// FillValue computes one period and copies it forward, and CheckValue
// compares against one period, so long values cost memcpy/memcmp speed.
constexpr size_t kValuePeriod = 256;

void FillValue(uint64_t key_id, std::span<std::byte> out) {
  const uint64_t base = sim::Mix64(key_id ^ 0x56414c55u);  // "VALU"
  const size_t head = std::min(out.size(), kValuePeriod);
  for (size_t i = 0; i < head; ++i) {
    out[i] = static_cast<std::byte>((base + i * 131) & 0xff);
  }
  // `done` stays a multiple of the period, so each copy continues it.
  for (size_t done = head; done < out.size();) {
    const size_t n = std::min(done, out.size() - done);
    std::memcpy(out.data() + done, out.data(), n);
    done += n;
  }
}

bool CheckValue(uint64_t key_id, std::span<const std::byte> bytes) {
  std::array<std::byte, kValuePeriod> period{};
  const std::span<std::byte> expected(period.data(), std::min(bytes.size(), kValuePeriod));
  FillValue(key_id, expected);
  for (size_t off = 0; off < bytes.size(); off += kValuePeriod) {
    const size_t n = std::min(bytes.size() - off, kValuePeriod);
    if (std::memcmp(bytes.data() + off, expected.data(), n) != 0) {
      return false;
    }
  }
  return true;
}

void FillValueVersioned(uint64_t key_id, uint64_t version, std::span<std::byte> out) {
  if (out.size() < sizeof(version)) {
    throw std::invalid_argument("workload: versioned values need >= 8 bytes");
  }
  std::memcpy(out.data(), &version, sizeof(version));
  const uint64_t base = sim::Mix64(key_id ^ sim::Mix64(version));
  for (size_t i = sizeof(version); i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((base + i * 131) & 0xff);
  }
}

bool CheckValueVersioned(uint64_t key_id, std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof(uint64_t)) {
    return false;
  }
  uint64_t version = 0;
  std::memcpy(&version, bytes.data(), sizeof(version));
  const uint64_t base = sim::Mix64(key_id ^ sim::Mix64(version));
  for (size_t i = sizeof(version); i < bytes.size(); ++i) {
    if (bytes[i] != static_cast<std::byte>((base + i * 131) & 0xff)) {
      return false;
    }
  }
  return true;
}

}  // namespace workload
