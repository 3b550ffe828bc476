#include "src/repl/log.h"

#include <cstring>

#include "src/rdma/memory.h"

namespace repl {

size_t EncodedSize(const Record& record) {
  return kRecordHeaderBytes + record.key.size() + record.value.size();
}

size_t EncodeRecord(std::span<std::byte> out, const Record& record) {
  const uint16_t ks = static_cast<uint16_t>(record.key.size());
  const uint32_t vs = static_cast<uint32_t>(record.value.size());
  size_t n = 0;
  std::memcpy(out.data() + n, &record.lsn, sizeof(record.lsn));
  n += sizeof(record.lsn);
  std::memcpy(out.data() + n, &record.rpc_id, sizeof(record.rpc_id));
  n += sizeof(record.rpc_id);
  std::memcpy(out.data() + n, &ks, sizeof(ks));
  n += sizeof(ks);
  std::memcpy(out.data() + n, &vs, sizeof(vs));
  n += sizeof(vs);
  // CopyBytes, not memcpy: a delete's empty value has a null data pointer.
  rdma::CopyBytes(out.subspan(n, ks), record.key);
  n += ks;
  rdma::CopyBytes(out.subspan(n, vs), record.value);
  n += vs;
  return n;
}

std::optional<Record> DecodeRecord(std::span<const std::byte> payload) {
  if (payload.size() < kRecordHeaderBytes) {
    return std::nullopt;
  }
  Record record;
  uint16_t ks = 0;
  uint32_t vs = 0;
  size_t n = 0;
  std::memcpy(&record.lsn, payload.data() + n, sizeof(record.lsn));
  n += sizeof(record.lsn);
  std::memcpy(&record.rpc_id, payload.data() + n, sizeof(record.rpc_id));
  n += sizeof(record.rpc_id);
  std::memcpy(&ks, payload.data() + n, sizeof(ks));
  n += sizeof(ks);
  std::memcpy(&vs, payload.data() + n, sizeof(vs));
  n += sizeof(vs);
  if (payload.size() < n + ks + vs) {
    return std::nullopt;
  }
  record.key.assign(payload.begin() + static_cast<ptrdiff_t>(n),
                    payload.begin() + static_cast<ptrdiff_t>(n + ks));
  record.value.assign(payload.begin() + static_cast<ptrdiff_t>(n + ks),
                      payload.begin() + static_cast<ptrdiff_t>(n + ks + vs));
  return record;
}

uint64_t ReplLog::Append(uint16_t rpc_id, std::span<const std::byte> key,
                         std::span<const std::byte> value) {
  Record record;
  record.lsn = next_lsn_++;
  record.rpc_id = rpc_id;
  record.key.assign(key.begin(), key.end());
  record.value.assign(value.begin(), value.end());
  records_.push_back(std::move(record));
  return records_.back().lsn;
}

const Record* ReplLog::NextToShip() const {
  return ship_cursor_ < records_.size() ? &records_[ship_cursor_] : nullptr;
}

void ReplLog::MarkShipped() {
  if (ship_cursor_ < records_.size()) {
    ++ship_cursor_;
  }
}

void ReplLog::OnAcked(uint64_t lsn) {
  while (!records_.empty() && records_.front().lsn <= lsn) {
    records_.pop_front();
    if (ship_cursor_ > 0) {
      --ship_cursor_;
    }
  }
  if (lsn > acked_lsn_) {
    acked_lsn_ = lsn;
  }
}

}  // namespace repl
