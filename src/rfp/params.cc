#include "src/rfp/params.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace rfp {

double HardwareProfile::InboundMopsAt(uint32_t size) const {
  if (inbound_read.empty()) {
    return 0.0;
  }
  if (size <= inbound_read.front().size) {
    return inbound_read.front().mops;
  }
  if (size >= inbound_read.back().size) {
    return inbound_read.back().mops;
  }
  for (size_t i = 1; i < inbound_read.size(); ++i) {
    if (size <= inbound_read[i].size) {
      const IopsPoint& lo = inbound_read[i - 1];
      const IopsPoint& hi = inbound_read[i];
      const double t = static_cast<double>(size - lo.size) / static_cast<double>(hi.size - lo.size);
      return lo.mops + t * (hi.mops - lo.mops);
    }
  }
  return inbound_read.back().mops;
}

namespace {

// In-bound READ sizes MeasureProfile samples (the knees fall between them).
constexpr std::array<uint32_t, 14> kProfileSizes = {16,  32,  64,   128,  256,  384,  512,
                                                    640, 768, 1024, 1536, 2048, 4096, 8192};
static_assert(std::is_sorted(kProfileSizes.begin(), kProfileSizes.end()),
              "HardwareProfile::inbound_read is ascending by size");
// Enough readers to saturate the in-bound engine at every size.
constexpr int kProfileClientNodes = 7;
constexpr int kProfileThreadsPerNode = 4;
// Enough writers to saturate the out-bound issue pipeline (Fig 3: ~4).
constexpr int kProfileOutboundThreads = 4;

// DetectL: sizes within this fraction of the small-size peak count as flat.
constexpr double kFlatTolerance = 0.02;
// DetectH: the in-bound/out-bound ratio fetching must keep over reply.
constexpr double kAdvantageMargin = 1.50;
// DeriveRetryBound: the server's threads, and the gain below which more
// fetching is not worth its client CPU.
constexpr int kServerThreads = 16;
constexpr double kGainThreshold = 0.10;
// SelectParameters: the response header a fetch carries with the result,
// and the F enumeration step inside [L, H].
constexpr uint32_t kHeaderBytes = 8;
constexpr uint32_t kSizeStep = 64;

struct LoopCounter {
  uint64_t ops = 0;
};

sim::Task<void> ProfileReadLoop(sim::Engine& eng, rdma::QueuePair* qp, rdma::MemoryRegion* local,
                                rdma::MemoryRegion* remote, uint32_t size, sim::Time deadline,
                                LoopCounter* out) {
  while (eng.now() < deadline) {
    rdma::WorkCompletion wc = co_await qp->Read(*local, 0, remote->remote_key(), 0, size);
    if (!wc.ok()) {
      throw std::runtime_error("profile read failed");
    }
    ++out->ops;
  }
}

sim::Task<void> ProfileWriteLoop(sim::Engine& eng, rdma::QueuePair* qp, rdma::MemoryRegion* local,
                                 rdma::MemoryRegion* remote, uint32_t size, sim::Time deadline,
                                 LoopCounter* out) {
  while (eng.now() < deadline) {
    rdma::WorkCompletion wc = co_await qp->Write(*local, 0, remote->remote_key(), 0, size);
    if (!wc.ok()) {
      throw std::runtime_error("profile write failed");
    }
    ++out->ops;
  }
}

// Measures saturated in-bound READ IOPS at one fetch size on a fresh fabric.
double MeasureInbound(const rdma::FabricConfig& config, sim::Time window, uint32_t size) {
  sim::Engine engine;
  rdma::Fabric fabric(engine, config);
  rdma::Node& server = fabric.AddNode("server");
  rdma::MemoryRegion* remote = server.RegisterMemory(16384, rdma::kAccessRemoteRead);
  std::vector<LoopCounter> counters(
      static_cast<size_t>(kProfileClientNodes * kProfileThreadsPerNode));
  size_t idx = 0;
  for (int n = 0; n < kProfileClientNodes; ++n) {
    rdma::Node& client = fabric.AddNode("client" + std::to_string(n));
    for (int t = 0; t < kProfileThreadsPerNode; ++t) {
      auto [cqp, sqp] = fabric.ConnectRc(client, server);
      (void)sqp;
      rdma::MemoryRegion* local = client.RegisterMemory(16384, rdma::kAccessLocal);
      engine.Spawn(ProfileReadLoop(engine, cqp, local, remote, size, window,
                                   &counters[idx++]));
    }
  }
  engine.Run();
  uint64_t total = 0;
  for (const auto& c : counters) {
    total += c.ops;
  }
  return static_cast<double>(total) / sim::ToSeconds(window) / 1e6;
}

double MeasureOutbound(const rdma::FabricConfig& config, sim::Time window) {
  sim::Engine engine;
  rdma::Fabric fabric(engine, config);
  rdma::Node& server = fabric.AddNode("server");
  std::vector<LoopCounter> counters(static_cast<size_t>(kProfileOutboundThreads));
  for (int t = 0; t < kProfileOutboundThreads; ++t) {
    rdma::Node& client = fabric.AddNode("client" + std::to_string(t));
    rdma::MemoryRegion* remote = client.RegisterMemory(16384, rdma::kAccessRemoteWrite);
    auto [sqp, cqp] = fabric.ConnectRc(server, client);
    (void)cqp;
    rdma::MemoryRegion* local = server.RegisterMemory(16384, rdma::kAccessLocal);
    engine.Spawn(ProfileWriteLoop(engine, sqp, local, remote, 32, window,
                                  &counters[static_cast<size_t>(t)]));
  }
  engine.Run();
  uint64_t total = 0;
  for (const auto& c : counters) {
    total += c.ops;
  }
  return static_cast<double>(total) / sim::ToSeconds(window) / 1e6;
}

double MeasureFetchRtt(const rdma::FabricConfig& config) {
  sim::Engine engine;
  rdma::Fabric fabric(engine, config);
  rdma::Node& server = fabric.AddNode("server");
  rdma::Node& client = fabric.AddNode("client");
  rdma::MemoryRegion* remote = server.RegisterMemory(256, rdma::kAccessRemoteRead);
  rdma::MemoryRegion* local = client.RegisterMemory(256, rdma::kAccessLocal);
  auto [cqp, sqp] = fabric.ConnectRc(client, server);
  (void)sqp;
  LoopCounter counter;
  engine.Spawn(ProfileReadLoop(engine, cqp, local, remote, 32, sim::Micros(100), &counter));
  engine.Run();
  if (counter.ops == 0) {
    throw std::runtime_error("fetch RTT measurement produced no ops");
  }
  return static_cast<double>(engine.now()) / static_cast<double>(counter.ops);
}

}  // namespace

HardwareProfile MeasureProfile(const rdma::FabricConfig& config, sim::Time window) {
  HardwareProfile profile;
  for (uint32_t size : kProfileSizes) {
    profile.inbound_read.push_back(IopsPoint{size, MeasureInbound(config, window, size)});
  }
  profile.outbound_write_mops = MeasureOutbound(config, window);
  profile.fetch_rtt_ns = MeasureFetchRtt(config);
  return profile;
}

uint32_t DetectL(const HardwareProfile& profile) {
  if (profile.inbound_read.empty()) {
    throw std::invalid_argument("profile has no in-bound points");
  }
  const double peak = profile.inbound_read.front().mops;
  uint32_t l = profile.inbound_read.front().size;
  for (const IopsPoint& p : profile.inbound_read) {
    if (p.mops >= peak * (1.0 - kFlatTolerance)) {
      l = p.size;
    } else {
      break;
    }
  }
  return l;
}

uint32_t DetectH(const HardwareProfile& profile) {
  if (profile.inbound_read.empty() || profile.outbound_write_mops <= 0.0) {
    throw std::invalid_argument("profile incomplete");
  }
  uint32_t h = profile.inbound_read.front().size;
  for (const IopsPoint& p : profile.inbound_read) {
    if (p.mops >= profile.outbound_write_mops * kAdvantageMargin) {
      h = p.size;
    }
  }
  return h;
}

int DeriveRetryBound(const HardwareProfile& profile) {
  if (profile.outbound_write_mops <= 0.0 || profile.fetch_rtt_ns <= 0.0) {
    throw std::invalid_argument("profile incomplete");
  }
  // P* in nanoseconds: the process time at which server-reply throughput
  // (server threads / P) matches out-bound capacity within the gain margin.
  const double p_star_ns = static_cast<double>(kServerThreads) * 1000.0 /
                           (profile.outbound_write_mops * (1.0 + kGainThreshold));
  const int n = static_cast<int>(std::lround(p_star_ns / profile.fetch_rtt_ns));
  return std::max(1, n);
}

ParamChoice SelectParameters(const HardwareProfile& profile,
                             std::span<const uint32_t> result_sizes,
                             std::span<const sim::Time> process_times) {
  if (result_sizes.empty()) {
    throw std::invalid_argument("SelectParameters needs at least one result-size sample");
  }
  const uint32_t l = DetectL(profile);
  const uint32_t h = std::max(DetectH(profile), l);
  const int n = DeriveRetryBound(profile);

  ParamChoice best;
  best.predicted_score = -1.0;
  for (int r = 1; r <= n; ++r) {
    const double fetch_budget_ns = static_cast<double>(r) * profile.fetch_rtt_ns;
    for (uint32_t f = l; f <= h; f += kSizeStep) {
      const double i_f = profile.InboundMopsAt(f);
      double total = 0.0;
      for (size_t i = 0; i < result_sizes.size(); ++i) {
        // Calls that outlive R fetch round trips complete via server-reply.
        if (!process_times.empty() &&
            static_cast<double>(process_times[i % process_times.size()]) > fetch_budget_ns) {
          total += profile.outbound_write_mops;
          continue;
        }
        total += (result_sizes[i] + kHeaderBytes <= f) ? i_f : i_f / 2.0;
      }
      if (total > best.predicted_score) {
        best.predicted_score = total;
        best.retry_threshold = r;
        best.fetch_size = f;
      }
    }
  }
  return best;
}

void OnlineSampler::Record(uint32_t result_size, sim::Time process_ns) {
  ++observed_;
  if (sizes_.size() < capacity_) {
    sizes_.push_back(result_size);
    times_.push_back(process_ns);
    return;
  }
  // Vitter's algorithm R: keep each observation with probability k/n.
  const uint64_t slot = rng_.NextBounded(observed_);
  if (slot < capacity_) {
    sizes_[static_cast<size_t>(slot)] = result_size;
    times_[static_cast<size_t>(slot)] = process_ns;
  }
}

}  // namespace rfp
