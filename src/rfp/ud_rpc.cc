#include "src/rfp/ud_rpc.h"

#include <cstring>
#include <stdexcept>

namespace rfp {

namespace {

constexpr size_t kHdr = sizeof(UdHeader);
constexpr uint16_t kReplyFlag = 1;
constexpr size_t kSlotBytes = kHdr + kUdMaxMessageBytes;
// Each registered region: [kUdRecvPool receive slots][one tx staging slot].
constexpr size_t kRegionBytes = kSlotBytes * (kUdRecvPool + 1);
constexpr size_t kTxOffset = kSlotBytes * kUdRecvPool;

}  // namespace

// ---- Server ---------------------------------------------------------------------

UdRpcServer::UdRpcServer(rdma::Fabric& fabric, rdma::Node& node, int num_threads)
    : fabric_(fabric), node_(node) {
  for (int t = 0; t < num_threads; ++t) {
    qps_.push_back(fabric.CreateUd(node));
    regions_.push_back(node.RegisterMemory(kRegionBytes, rdma::kAccessLocal));
  }
}

UdRpcServer::~UdRpcServer() {
  for (size_t t = 0; t < pollers_.size(); ++t) {
    qps_[t]->recv_cq()->Unwatch(pollers_[t].get());
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
  qps_[static_cast<size_t>(thread)]->PostRecv(wr_id, *regions_[static_cast<size_t>(thread)],
                                              static_cast<size_t>(wr_id) * kSlotBytes,
                                              static_cast<uint32_t>(kSlotBytes));
}

void UdRpcServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (int t = 0; t < num_threads(); ++t) {
    pollers_.push_back(std::make_unique<sim::Poller>(fabric_.engine()));
    qps_[static_cast<size_t>(t)]->recv_cq()->Watch(pollers_.back().get());
  }
  for (int t = 0; t < num_threads(); ++t) {
    for (int i = 0; i < kUdRecvPool; ++i) {
      RepostRecv(t, static_cast<uint64_t>(i));
    }
    fabric_.engine().Spawn(ServeLoop(t));
  }
}

void UdRpcServer::Stop() {
  stop_ = true;
  for (const auto& poller : pollers_) {
    poller->Wake();
  }
}

sim::Task<void> UdRpcServer::ServeLoop(int thread) {
  sim::Engine& engine = fabric_.engine();
  rdma::QueuePair* qp = qps_[static_cast<size_t>(thread)];
  rdma::MemoryRegion* mr = regions_[static_cast<size_t>(thread)];
  std::vector<std::byte> request(kUdMaxMessageBytes);
  sim::Poller& poller = *pollers_[static_cast<size_t>(thread)];
  while (!stop_) {
    const auto wc = qp->recv_cq()->Poll();
    if (!wc.has_value()) {
      co_await poller.Park(kDatagramPollNs);
      continue;
    }
    if (!wc->ok() || wc->byte_len < kHdr) {
      ++malformed_requests_;  // too large for the slot, or shorter than the header
      RepostRecv(thread, wc->wr_id);
      continue;
    }
    const size_t rx_offset = static_cast<size_t>(wc->wr_id) * kSlotBytes;
    const UdHeader header = mr->Load<UdHeader>(rx_offset);
    const size_t payload = wc->byte_len - kHdr;
    mr->ReadBytes(rx_offset + kHdr, std::span(request.data(), payload));
    RepostRecv(thread, wc->wr_id);

    auto it = handlers_.find(header.rpc_id);
    if (it == handlers_.end()) {
      ++malformed_requests_;  // the RECV is already reposted
      continue;
    }
    // The handler writes the response payload directly into the TX slot.
    std::byte* tx = mr->bytes().data() + kTxOffset;
    const HandlerResult result =
        it->second(HandlerContext{thread}, std::span<const std::byte>(request.data(), payload),
                   std::span<std::byte>(tx + kHdr, kUdMaxMessageBytes));
    co_await engine.Sleep(result.process_ns);

    UdHeader reply = header;
    reply.flags = kReplyFlag;
    mr->Store(kTxOffset, reply);
    const rdma::AddressHandle to{header.client_node, header.client_qpn};
    rdma::WorkCompletion swc = co_await qp->SendTo(
        to, *mr, kTxOffset, static_cast<uint32_t>(kHdr + result.response_size));
    if (!swc.ok()) {
      throw std::runtime_error("ud rpc: reply send failed");
    }
    ++requests_served_;
  }
}

// ---- Client --------------------------------------------------------------------

UdRpcClient::UdRpcClient(rdma::Fabric& fabric, rdma::Node& node, rdma::AddressHandle server)
    : fabric_(fabric), node_(node), server_(server) {
  slots_.qp = fabric.CreateUd(node);
  slots_.mr = node.RegisterMemory(kRegionBytes, rdma::kAccessLocal);
  slots_.slot_bytes = kSlotBytes;
  for (int i = 0; i < kUdRecvPool; ++i) {
    slots_.PostRecv(static_cast<uint64_t>(i));
  }
}

sim::Task<size_t> UdRpcClient::Call(uint16_t rpc_id, std::span<const std::byte> request,
                                    std::span<std::byte> response) {
  sim::Engine& engine = fabric_.engine();
  const sim::Time start = engine.now();
  const uint32_t seq = ++next_seq_;

  UdHeader header;
  header.client_node = node_.id();
  header.client_qpn = slots_.qp->qp_num();
  header.seq = seq;
  header.rpc_id = rpc_id;
  slots_.mr->Store(kTxOffset, header);
  slots_.mr->WriteBytes(kTxOffset + kHdr, request);

  ++stats_.calls;
  const size_t n = co_await DatagramCall<UdHeader>(
      engine, slots_, server_, kTxOffset, static_cast<uint32_t>(kHdr + request.size()), seq,
      response, stats_, "ud rpc");
  latency_.Record(engine.now() - start);
  co_return n;
}

}  // namespace rfp
