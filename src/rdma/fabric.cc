#include "src/rdma/fabric.h"

#include <utility>

#include "src/obs/metrics.h"

namespace rdma {

namespace {

uint64_t QpAddr(uint32_t node_id, uint32_t qp_num) {
  return (static_cast<uint64_t>(node_id) << 32) | qp_num;
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, FabricConfig config)
    : engine_(engine), config_(config), rng_(config.seed) {
  ValidateConfig(config_);
  const check::Mode mode = check::CurrentMode();
  if (mode != check::Mode::kOff) {
    checker_ = std::make_unique<check::FabricChecker>(&engine_, mode);
  }
}

Fabric::~Fabric() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (const auto& node : nodes_) {
    const obs::Labels labels{{"node", node->name()}};
    reg.GetGauge("rdma.mr.registered_bytes", labels)
        ->Set(static_cast<double>(node->registered_bytes_));
    if (node->registration_count_ > 0) {
      reg.GetCounter("rdma.mr.registrations", labels)->Add(node->registration_count_);
    }
    if (node->deregistration_count_ > 0) {
      reg.GetCounter("rdma.mr.deregistrations", labels)->Add(node->deregistration_count_);
    }
  }
}

Node& Fabric::AddNode(std::string name) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  // Per-node jitter streams derive from the fabric seed, so changing the
  // seed perturbs every service time while keeping runs reproducible.
  nodes_.push_back(std::make_unique<Node>(engine_, this, id, std::move(name), config_.nic,
                                          sim::Mix64(config_.seed) ^ id));
  return *nodes_.back();
}

CompletionQueue* Fabric::CreateCq(Node& node) {
  (void)node;  // CQs carry no per-node state in the model, only identity.
  cqs_.push_back(std::make_unique<CompletionQueue>(engine_));
  cqs_.back()->set_checker(checker_.get());
  return cqs_.back().get();
}

QpEnds Fabric::Connect(Node& a, Node& b, QpType type) {
  CompletionQueue* a_send = CreateCq(a);
  CompletionQueue* a_recv = CreateCq(a);
  CompletionQueue* b_send = CreateCq(b);
  CompletionQueue* b_recv = CreateCq(b);
  const uint32_t qpn_a = next_qpn_++;
  const uint32_t qpn_b = next_qpn_++;
  qps_.push_back(std::make_unique<QueuePair>(this, type, qpn_a, &a, &b, a_send, a_recv));
  QueuePair* qa = qps_.back().get();
  qps_.push_back(std::make_unique<QueuePair>(this, type, qpn_b, &b, &a, b_send, b_recv));
  QueuePair* qb = qps_.back().get();
  qa->peer_qp_num_ = qpn_b;
  qb->peer_qp_num_ = qpn_a;
  qps_by_addr_[QpAddr(a.id(), qpn_a)] = qa;
  qps_by_addr_[QpAddr(b.id(), qpn_b)] = qb;
  a.nic().AddActiveQps(1);
  b.nic().AddActiveQps(1);
  if (checker_ != nullptr) {
    checker_->OnQpCreated(qpn_a, type);
    checker_->OnQpCreated(qpn_b, type);
  }
  return QpEnds{qa, qb};
}

QpEnds Fabric::ConnectRc(Node& a, Node& b) { return Connect(a, b, QpType::kRc); }

QpEnds Fabric::ConnectUc(Node& a, Node& b) { return Connect(a, b, QpType::kUc); }

QueuePair* Fabric::CreateUd(Node& node) {
  CompletionQueue* send_cq = CreateCq(node);
  CompletionQueue* recv_cq = CreateCq(node);
  const uint32_t qpn = next_qpn_++;
  qps_.push_back(
      std::make_unique<QueuePair>(this, QpType::kUd, qpn, &node, nullptr, send_cq, recv_cq));
  QueuePair* qp = qps_.back().get();
  qps_by_addr_[QpAddr(node.id(), qpn)] = qp;
  node.nic().AddActiveQps(1);
  if (checker_ != nullptr) {
    checker_->OnQpCreated(qpn, QpType::kUd);
  }
  return qp;
}

MemoryRegion* Fabric::RegisterMemory(Node& node, size_t size, uint32_t access) {
  const uint32_t key = next_key_++;
  node.regions_.push_back(std::make_unique<MemoryRegion>(&node, key, key, size, access));
  MemoryRegion* mr = node.regions_.back().get();
  regions_by_rkey_[key] = mr;
  node.registered_bytes_ += size;
  ++node.registration_count_;
  if (checker_ != nullptr) {
    checker_->OnMrRegistered(key, &node, size, access);
  }
  return mr;
}

void Fabric::DeregisterMemory(MemoryRegion* mr) {
  if (mr == nullptr) {
    return;
  }
  const uint32_t key = mr->remote_key().rkey;
  regions_by_rkey_.erase(key);
  if (checker_ != nullptr) {
    checker_->OnMrDeregistered(key);
  }
  Node* node = mr->node();
  for (auto it = node->regions_.begin(); it != node->regions_.end(); ++it) {
    if (it->get() == mr) {
      node->registered_bytes_ -= (*it)->size();
      ++node->deregistration_count_;
      node->regions_.erase(it);
      break;
    }
  }
}

void Fabric::RetireQp(QueuePair* qp) {
  if (qp == nullptr || qp->retired_) {
    return;
  }
  qp->retired_ = true;
  qps_by_addr_.erase(QpAddr(qp->local_node()->id(), qp->qp_num()));
  qp->local_node()->nic().AddActiveQps(-1);
  if (checker_ != nullptr) {
    checker_->OnQpRetired(qp->qp_num());
  }
}

MemoryRegion* Fabric::FindRemote(RemoteKey rkey) {
  auto it = regions_by_rkey_.find(rkey.rkey);
  return it == regions_by_rkey_.end() ? nullptr : it->second;
}

size_t Fabric::LiveQpCount(const Node& node) const {
  size_t live = 0;
  for (const auto& qp : qps_) {
    if (!qp->retired() && qp->local_node() == &node) {
      ++live;
    }
  }
  return live;
}

QueuePair* Fabric::FindQp(uint32_t node_id, uint32_t qp_num) {
  auto it = qps_by_addr_.find(QpAddr(node_id, qp_num));
  return it == qps_by_addr_.end() ? nullptr : it->second;
}

void Fabric::SetLinkFault(uint32_t a, uint32_t b, const LinkFault& fault) {
  link_faults_[PairKey(a, b)] = fault;
}

void Fabric::ClearLinkFault(uint32_t a, uint32_t b) { link_faults_.erase(PairKey(a, b)); }

const LinkFault* Fabric::FindLinkFault(uint32_t a, uint32_t b) const {
  auto it = link_faults_.find(PairKey(a, b));
  return it == link_faults_.end() ? nullptr : &it->second;
}

sim::Time Fabric::WireDelay(const Node* from, const Node* to, bool reliable) {
  sim::Time delay = kWireLatencyNs;
  if (link_faults_.empty() || from == nullptr || to == nullptr) {
    return delay;
  }
  auto it = link_faults_.find(PairKey(from->id(), to->id()));
  if (it == link_faults_.end()) {
    return delay;
  }
  const LinkFault& fault = it->second;
  delay += fault.extra_delay_ns;
  if (reliable && fault.loss_prob > 0.0) {
    // RC retries until the packet gets through; each lost attempt costs one
    // retransmission timeout. Geometric number of losses before success,
    // capped so a total-blackhole (loss_prob == 1) burst stays finite.
    for (int lost = 0; lost < 16 && rng_.NextBernoulli(fault.loss_prob); ++lost) {
      delay += fault.rc_retransmit_ns;
    }
  }
  return delay;
}

bool Fabric::DrawUnreliableLoss(const Node* from, const Node* to) {
  bool lost = DrawLoss();
  if (!link_faults_.empty() && from != nullptr && to != nullptr) {
    auto it = link_faults_.find(PairKey(from->id(), to->id()));
    if (it != link_faults_.end() && it->second.loss_prob > 0.0 &&
        rng_.NextBernoulli(it->second.loss_prob)) {
      lost = true;
    }
  }
  return lost;
}

int Fabric::FailRcQps(uint32_t a, uint32_t b) {
  const uint64_t key = PairKey(a, b);
  int failed = 0;
  for (auto& qp : qps_) {
    if (qp->type() != QpType::kRc || qp->in_error() || qp->retired() ||
        qp->peer_node() == nullptr) {
      continue;
    }
    if (PairKey(qp->local_node()->id(), qp->peer_node()->id()) == key) {
      qp->SetError();
      ++failed;
    }
  }
  return failed;
}

}  // namespace rdma
