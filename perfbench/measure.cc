#include "perfbench/measure.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

namespace {

// Per-bucket sample counts of a histogram, recovered from its CDF.
std::vector<uint64_t> BucketCounts(const std::vector<sim::Histogram::CdfPoint>& cdf,
                                   uint64_t total) {
  std::vector<uint64_t> counts;
  counts.reserve(cdf.size());
  uint64_t prev = 0;
  for (const auto& point : cdf) {
    const auto cum = static_cast<uint64_t>(std::llround(point.cumulative * static_cast<double>(total)));
    counts.push_back(cum - prev);
    prev = cum;
  }
  return counts;
}

}  // namespace

Snapshot TakeSnapshot(Cluster& cluster) {
  Snapshot s;
  s.events = cluster.engine.events_processed();
  const rdma::Nic& nic = cluster.server_node->nic();
  s.inbound_ops = nic.inbound_ops();
  s.outbound_ops = nic.outbound_ops();
  s.issue_wait = nic.issue_wait_ns();
  ChannelCounts& c = s.channels;
  for (rfp::Channel* channel : cluster.channels) {
    const rfp::Channel::Stats& st = channel->stats();
    c.calls += st.calls;
    c.request_writes += st.request_writes;
    c.fetch_reads += st.fetch_reads;
    c.failed_fetches += st.failed_fetches;
    c.extra_fetches += st.extra_fetches;
    c.reply_pushes += st.reply_pushes;
    c.switches_to_reply += st.switches_to_reply;
    c.switches_to_fetch += st.switches_to_fetch;
    c.coalesced_fetches += st.coalesced_fetches;
    c.coalesced_slots += st.coalesced_slots;
    c.batches += st.batch_occupancy.count();
    c.batch_ops += st.batch_occupancy.mean() * static_cast<double>(st.batch_occupancy.count());
    c.client_busy_ns += channel->client_busy().busy();
  }
  rfp::RpcServer& rpc = cluster.rpc();
  for (int t = 0; t < rpc.num_threads(); ++t) {
    s.served_by.push_back(rpc.requests_served_by(t));
  }
  s.steals = rpc.channel_steals();
  if (cluster.jakiro != nullptr) {
    for (int t = 0; t < cluster.jakiro->num_threads(); ++t) {
      const kv::BucketTable::Stats& st = cluster.jakiro->partition(t).stats();
      s.kv_hits += st.hits;
      s.kv_misses += st.misses;
      s.kv_evictions += st.evictions;
      s.kv_cow_puts += st.cow_puts;
    }
  }
  return s;
}

int64_t PercentileSince(const sim::Histogram& after, const sim::Histogram& before, double q) {
  const uint64_t total = after.count() - before.count();
  if (total == 0) {
    return 0;
  }
  const auto a = after.Cdf();
  const auto b = before.Cdf();
  std::vector<uint64_t> counts = BucketCounts(a, after.count());
  const std::vector<uint64_t> earlier = BucketCounts(b, before.count());
  // `before`'s buckets are a subset of `after`'s, in the same order; only
  // its top bucket can read lower, clamped to the smaller max.
  size_t j = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    while (j < a.size() && a[j].value < b[i].value) {
      ++j;
    }
    if (j < a.size()) {
      counts[j] -= earlier[i];
    }
  }
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    seen += counts[k];
    if (static_cast<double>(seen) >= target && seen > 0) {
      return a[k].value;
    }
  }
  return a.back().value;
}

std::vector<double> Quantiles(std::vector<int64_t>& samples, const std::vector<double>& qs) {
  std::vector<double> out;
  if (samples.empty()) {
    out.assign(qs.size(), 0);
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (double q : qs) {
    const auto rank = static_cast<size_t>(std::max(1.0, std::ceil(q * static_cast<double>(n))));
    const size_t k = std::min(rank, n) - 1;
    const size_t w = std::min(k, n - 1 - k) / 100;
    double sum = 0;
    for (size_t i = k - w; i <= k + w; ++i) {
      sum += static_cast<double>(samples[i]);
    }
    out.push_back(sum / static_cast<double>(2 * w + 1));
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
