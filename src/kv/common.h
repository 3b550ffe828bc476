// Shared vocabulary of the key-value systems: RPC ids, request/response
// encodings, and byte hashing.
//
// GET request payload:    [u16 key_size][key]
// PUT request payload:    [u16 key_size][u32 value_size][key][value]
// DELETE request payload: [u16 key_size][key]
// GET response:           [u8 status][value]
// PUT/DELETE response:    [u8 status]

#ifndef SRC_KV_COMMON_H_
#define SRC_KV_COMMON_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>

#include "src/rdma/memory.h"

namespace kv {

constexpr uint16_t kRpcGet = 1;
constexpr uint16_t kRpcPut = 2;
constexpr uint16_t kRpcDelete = 3;
// MULTIGET request:  [u16 count][(u16 key_size, key bytes) x count]
// MULTIGET response: [u8 status][u16 count][(u32 size_or_miss, value) x count]
// where size_or_miss == kMultiGetMiss marks an absent key.
constexpr uint16_t kRpcMultiGet = 4;
constexpr uint32_t kMultiGetMiss = 0xffffffffu;

enum class Status : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kError = 2,
};

// FNV-1a over bytes; stable across platforms, used for partitioning,
// bucket choice, and Pilaf slot tags.
inline uint64_t HashBytes(std::span<const std::byte> bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    h ^= static_cast<uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- Request encoding -------------------------------------------------------

// Every encoder throws std::length_error, before writing anything, when a key
// does not fit its u16 size field or the request does not fit `capacity`
// bytes of output.
inline void CheckRequestFits(size_t capacity, size_t key_size, size_t request_size) {
  if (key_size > UINT16_MAX) {
    throw std::length_error("kv: key longer than 65535 bytes");
  }
  if (request_size > capacity) {
    throw std::length_error("kv: request larger than the message buffer");
  }
}

inline size_t EncodeGet(std::span<std::byte> out, std::span<const std::byte> key) {
  CheckRequestFits(out.size(), key.size(), sizeof(uint16_t) + key.size());
  const uint16_t ks = static_cast<uint16_t>(key.size());
  std::memcpy(out.data(), &ks, sizeof(ks));
  std::memcpy(out.data() + sizeof(ks), key.data(), key.size());
  return sizeof(ks) + key.size();
}

inline size_t EncodeDelete(std::span<std::byte> out, std::span<const std::byte> key) {
  return EncodeGet(out, key);
}

inline size_t EncodePut(std::span<std::byte> out, std::span<const std::byte> key,
                        std::span<const std::byte> value) {
  CheckRequestFits(out.size(), key.size(),
                   sizeof(uint16_t) + sizeof(uint32_t) + key.size() + value.size());
  const uint16_t ks = static_cast<uint16_t>(key.size());
  const uint32_t vs = static_cast<uint32_t>(value.size());
  size_t n = 0;
  std::memcpy(out.data() + n, &ks, sizeof(ks));
  n += sizeof(ks);
  std::memcpy(out.data() + n, &vs, sizeof(vs));
  n += sizeof(vs);
  rdma::CopyBytes(out.subspan(n, key.size()), key);
  n += key.size();
  // CopyBytes, not memcpy: an empty value may carry a null data pointer.
  rdma::CopyBytes(out.subspan(n, value.size()), value);
  n += value.size();
  return n;
}

// ---- Request decoding (returns nullopt on malformed input) -----------------

struct GetRequest {
  std::span<const std::byte> key;
};

inline std::optional<GetRequest> DecodeGet(std::span<const std::byte> payload) {
  uint16_t ks = 0;
  if (payload.size() < sizeof(ks)) {
    return std::nullopt;
  }
  std::memcpy(&ks, payload.data(), sizeof(ks));
  if (payload.size() < sizeof(ks) + ks) {
    return std::nullopt;
  }
  return GetRequest{payload.subspan(sizeof(ks), ks)};
}

struct PutRequest {
  std::span<const std::byte> key;
  std::span<const std::byte> value;
};

inline std::optional<PutRequest> DecodePut(std::span<const std::byte> payload) {
  uint16_t ks = 0;
  uint32_t vs = 0;
  if (payload.size() < sizeof(ks) + sizeof(vs)) {
    return std::nullopt;
  }
  std::memcpy(&ks, payload.data(), sizeof(ks));
  std::memcpy(&vs, payload.data() + sizeof(ks), sizeof(vs));
  const size_t need = sizeof(ks) + sizeof(vs) + ks + vs;
  if (payload.size() < need) {
    return std::nullopt;
  }
  return PutRequest{payload.subspan(sizeof(ks) + sizeof(vs), ks),
                    payload.subspan(sizeof(ks) + sizeof(vs) + ks, vs)};
}

// ---- Response encoding -------------------------------------------------------

inline size_t EncodeStatus(std::span<std::byte> out, Status status) {
  out[0] = static_cast<std::byte>(status);
  return 1;
}

inline size_t EncodeGetResponse(std::span<std::byte> out, Status status,
                                std::span<const std::byte> value) {
  out[0] = static_cast<std::byte>(status);
  std::memcpy(out.data() + 1, value.data(), value.size());
  return 1 + value.size();
}

inline Status DecodeStatus(std::span<const std::byte> response) {
  return response.empty() ? Status::kError : static_cast<Status>(response[0]);
}

}  // namespace kv

#endif  // SRC_KV_COMMON_H_
