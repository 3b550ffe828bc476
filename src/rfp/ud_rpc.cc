#include "src/rfp/ud_rpc.h"

#include <cstring>
#include <stdexcept>

namespace rfp {

namespace {

constexpr size_t kHdr = sizeof(UdHeader);
constexpr uint16_t kReplyFlag = 1;

size_t SlotBytes(const UdRpcOptions& options) { return kHdr + options.max_message_bytes; }

UdHeader LoadHeader(const rdma::MemoryRegion& mr, size_t offset) {
  return mr.Load<UdHeader>(offset);
}

}  // namespace

// ---- Server ---------------------------------------------------------------------

UdRpcServer::UdRpcServer(rdma::Fabric& fabric, rdma::Node& node, int num_threads,
                         UdRpcOptions options)
    : fabric_(fabric), node_(node), options_(options) {
  const size_t slot = SlotBytes(options_);
  for (int t = 0; t < num_threads; ++t) {
    qps_.push_back(fabric.CreateUd(node));
    regions_.push_back(node.RegisterMemory(slot * (static_cast<size_t>(options_.recv_pool) + 1),
                                           rdma::kAccessLocal));
  }
}

void UdRpcServer::RegisterHandler(uint16_t rpc_id, Handler handler) {
  handlers_[rpc_id] = std::move(handler);
}

rdma::AddressHandle UdRpcServer::address(int thread) const {
  return rdma::AddressHandle{node_.id(), qps_[static_cast<size_t>(thread)]->qp_num()};
}

uint64_t UdRpcServer::recv_overflows() const {
  uint64_t total = 0;
  for (const rdma::QueuePair* qp : qps_) {
    total += qp->dropped_no_recv();
  }
  return total;
}

void UdRpcServer::RepostRecv(int thread, uint64_t wr_id) {
  const size_t slot = SlotBytes(options_);
  qps_[static_cast<size_t>(thread)]->PostRecv(wr_id, *regions_[static_cast<size_t>(thread)],
                                              static_cast<size_t>(wr_id) * slot,
                                              static_cast<uint32_t>(slot));
}

void UdRpcServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (int t = 0; t < num_threads(); ++t) {
    for (int i = 0; i < options_.recv_pool; ++i) {
      RepostRecv(t, static_cast<uint64_t>(i));
    }
    fabric_.engine().Spawn(ServeLoop(t));
  }
}

sim::Task<void> UdRpcServer::ServeLoop(int thread) {
  sim::Engine& engine = fabric_.engine();
  rdma::QueuePair* qp = qps_[static_cast<size_t>(thread)];
  rdma::MemoryRegion* mr = regions_[static_cast<size_t>(thread)];
  const size_t slot = SlotBytes(options_);
  const size_t tx_offset = slot * static_cast<size_t>(options_.recv_pool);
  std::vector<std::byte> request(options_.max_message_bytes);
  while (!stop_) {
    const auto wc = qp->recv_cq()->Poll();
    if (!wc.has_value()) {
      co_await engine.Sleep(sim::Nanos(200));
      continue;
    }
    if (!wc->ok() || wc->byte_len < kHdr) {
      RepostRecv(thread, wc->wr_id);
      continue;
    }
    const size_t rx_offset = static_cast<size_t>(wc->wr_id) * slot;
    const UdHeader header = LoadHeader(*mr, rx_offset);
    const size_t payload = wc->byte_len - kHdr;
    mr->ReadBytes(rx_offset + kHdr, std::span(request.data(), payload));
    RepostRecv(thread, wc->wr_id);

    auto it = handlers_.find(header.rpc_id);
    if (it == handlers_.end()) {
      ++malformed_requests_;  // the RECV is already reposted
      continue;
    }
    // The handler writes the response payload directly into the TX slot.
    std::byte* tx = mr->bytes().data() + tx_offset;
    const HandlerResult result =
        it->second(HandlerContext{thread}, std::span<const std::byte>(request.data(), payload),
                   std::span<std::byte>(tx + kHdr, options_.max_message_bytes));
    co_await engine.Sleep(result.process_ns);

    UdHeader reply = header;
    reply.flags = kReplyFlag;
    mr->Store(tx_offset, reply);
    const rdma::AddressHandle to{header.client_node, header.client_qpn};
    rdma::WorkCompletion swc = co_await qp->SendTo(
        to, *mr, tx_offset, static_cast<uint32_t>(kHdr + result.response_size));
    if (!swc.ok()) {
      throw std::runtime_error("ud rpc: reply send failed");
    }
    ++requests_served_;
  }
}

// ---- Client --------------------------------------------------------------------

UdRpcClient::UdRpcClient(rdma::Fabric& fabric, rdma::Node& node, rdma::AddressHandle server,
                         UdRpcOptions options)
    : fabric_(fabric), node_(node), server_(server), options_(options) {
  qp_ = fabric.CreateUd(node);
  const size_t slot = SlotBytes(options_);
  region_ =
      node.RegisterMemory(slot * (static_cast<size_t>(options_.recv_pool) + 1), rdma::kAccessLocal);
  for (int i = 0; i < options_.recv_pool; ++i) {
    RepostRecv(static_cast<uint64_t>(i));
  }
}

void UdRpcClient::RepostRecv(uint64_t wr_id) {
  const size_t slot = SlotBytes(options_);
  qp_->PostRecv(wr_id, *region_, static_cast<size_t>(wr_id) * slot,
                static_cast<uint32_t>(slot));
}

sim::Task<size_t> UdRpcClient::Call(uint16_t rpc_id, std::span<const std::byte> request,
                                    std::span<std::byte> response) {
  sim::Engine& engine = fabric_.engine();
  const sim::Time start = engine.now();
  const size_t slot = SlotBytes(options_);
  const size_t tx_offset = slot * static_cast<size_t>(options_.recv_pool);
  const uint32_t seq = ++next_seq_;

  UdHeader header;
  header.client_node = node_.id();
  header.client_qpn = qp_->qp_num();
  header.seq = seq;
  header.rpc_id = rpc_id;
  region_->Store(tx_offset, header);
  region_->WriteBytes(tx_offset + kHdr, request);
  const uint32_t wire_bytes = static_cast<uint32_t>(kHdr + request.size());

  ++stats_.calls;
  int transmits = 0;
  sim::Time deadline = 0;
  while (true) {
    if (transmits == 0 || engine.now() >= deadline) {
      if (transmits > options_.max_retransmits) {
        ++stats_.failures;
        throw std::runtime_error("ud rpc: call timed out after retransmits");
      }
      if (transmits > 0) {
        ++stats_.retransmits;
      }
      ++transmits;
      ++stats_.sends;
      co_await qp_->SendTo(server_, *region_, tx_offset, wire_bytes);
      deadline = engine.now() + options_.retry_timeout_ns;
    }
    // Drain arrived responses.
    while (auto wc = qp_->recv_cq()->Poll()) {
      const size_t rx_offset = static_cast<size_t>(wc->wr_id) * slot;
      const UdHeader reply = LoadHeader(*region_, rx_offset);
      const size_t payload = wc->byte_len >= kHdr ? wc->byte_len - kHdr : 0;
      const bool match = wc->ok() && reply.seq == seq;
      if (match && payload <= response.size()) {
        region_->ReadBytes(rx_offset + kHdr, response.subspan(0, payload));
      }
      RepostRecv(wc->wr_id);
      if (match) {
        latency_.Record(engine.now() - start);
        co_return payload;
      }
      ++stats_.duplicates;  // stale reply to an earlier (retransmitted) seq
    }
    co_await engine.Sleep(options_.client_poll_ns);
  }
}

}  // namespace rfp
