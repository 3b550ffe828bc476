// Parameter selection for RFP (paper Section 3.2).
//
// The paper reduces "when should clients stop fetching" and "how much should
// they fetch" to choosing R (retry threshold) and F (fetch size), bounded by
// hardware knees:
//
//   * F must lie in [L, H]: below L the RNIC's per-op startup cost hides any
//     size reduction; above H fetching loses to bandwidth/out-bound parity.
//   * R must lie in [1, N]: past N retries a call has been outstanding
//     longer than the fetch-vs-reply crossover P*, so continuing to spin
//     buys <10% throughput while doubling client CPU (Fig 9).
//
// Within those bounds an enumeration evaluates Eq 2 over sampled result
// sizes (and optionally process times) and picks the maximizing pair.

#ifndef SRC_RFP_PARAMS_H_
#define SRC_RFP_PARAMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/rdma/config.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace rfp {

struct IopsPoint {
  uint32_t size;  // fetch size in bytes
  double mops;    // measured in-bound READ IOPS at that size
};

// The hardware envelope, measured once per deployment (paper: "tested by
// running benchmarks only once").
struct HardwareProfile {
  std::vector<IopsPoint> inbound_read;  // ascending by size
  double outbound_write_mops = 0.0;     // saturated out-bound WRITE rate
  double fetch_rtt_ns = 0.0;            // one small-fetch round trip

  // Linear interpolation over the measured points (clamped at the ends).
  double InboundMopsAt(uint32_t size) const;
};

// Runs the micro-benchmarks on a private fabric built from `config` and
// returns the measured envelope: saturated in-bound READ IOPS at 14 fetch
// sizes from 16 B to 8 KiB (28 readers on 7 client nodes), saturated
// out-bound WRITE IOPS (4 writers), and one small-fetch round trip. Each
// saturated measurement runs for `window` of virtual time.
HardwareProfile MeasureProfile(const rdma::FabricConfig& config,
                               sim::Time window = sim::Millis(1));

// L: the largest measured size still within 2% of the small-size IOPS peak
// (fetching less than L buys nothing).
uint32_t DetectL(const HardwareProfile& profile);

// H: the largest measured size where remote fetching still beats
// server-reply by at least 1.5x (in-bound/out-bound ratio).
uint32_t DetectH(const HardwareProfile& profile);

// N: retries that fit within the fetch-vs-reply crossover P*, where
// P* = 16 server threads / (outbound_mops * 1.1) — beyond it repeated
// fetching gains < 10% over server-reply (Fig 9).
int DeriveRetryBound(const HardwareProfile& profile);

struct ParamChoice {
  int retry_threshold = 5;    // R
  uint32_t fetch_size = 256;  // F (includes the 8-byte response header)
  double predicted_score = 0.0;
};

// Eq 2 enumeration over R in [1, DeriveRetryBound] and F in
// [DetectL, DetectH] in 64-byte steps. For each candidate (R, F):
//   T(R,F) = sum_i Ti,   Ti = I(F)      if header+S_i <= F   (one fetch)
//                        Ti = I(F)/2    otherwise            (two fetches)
// When process-time samples are provided, calls whose P exceeds R fetch
// round trips are scored at the server-reply (out-bound) rate instead,
// which is what makes R matter in the enumeration.
ParamChoice SelectParameters(const HardwareProfile& profile,
                             std::span<const uint32_t> result_sizes,
                             std::span<const sim::Time> process_times = {});

// Reservoir sampler feeding SelectParameters during a run (paper: pre-run
// or periodic on-line sampling).
class OnlineSampler {
 public:
  OnlineSampler(size_t capacity, uint64_t seed) : capacity_(capacity), rng_(seed) {}

  void Record(uint32_t result_size, sim::Time process_ns);

  uint64_t observed() const { return observed_; }
  std::span<const uint32_t> sizes() const { return sizes_; }
  std::span<const sim::Time> times() const { return times_; }

 private:
  size_t capacity_;
  sim::Rng rng_;
  uint64_t observed_ = 0;
  std::vector<uint32_t> sizes_;
  std::vector<sim::Time> times_;
};

}  // namespace rfp

#endif  // SRC_RFP_PARAMS_H_
