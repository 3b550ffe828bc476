#include "src/rfp/options.h"

#include <stdexcept>
#include <string>

#include "src/rfp/wire.h"

namespace rfp {

namespace {

void Reject(const char* what) {
  throw std::invalid_argument(std::string("rfp options: ") + what);
}

void CheckNonNegative(sim::Time v, const char* what) {
  if (v < 0) Reject(what);
}

}  // namespace

void ValidateOptions(const RfpOptions& options) {
  if (options.retry_threshold < 0) Reject("retry_threshold must be >= 0");
  if (options.fetch_size == 0) Reject("fetch_size must be > 0");
  if (options.slow_calls_before_switch < 1) Reject("slow_calls_before_switch must be >= 1");
  if (options.max_message_bytes == 0) Reject("max_message_bytes must be > 0");
  if (options.window < 1) Reject("window must be >= 1");
  if (options.window > kMaxWindow) Reject("window must be <= wire::kMaxWindow");
  CheckNonNegative(options.fetch_timeout_ns, "fetch_timeout_ns must be >= 0");
  CheckNonNegative(options.fetch_backoff_initial_ns, "fetch_backoff_initial_ns must be >= 0");
  CheckNonNegative(options.fetch_backoff_max_ns, "fetch_backoff_max_ns must be >= 0");
  if (options.max_reconnect_attempts < 0) Reject("max_reconnect_attempts must be >= 0");
  CheckNonNegative(options.call_deadline_ns, "call_deadline_ns must be >= 0");
}

size_t ChannelSlotBytes(const RfpOptions& options) {
  return size_t{kReqHeaderBytes} + options.max_message_bytes +
         (options.checksum_responses ? kChecksumBytes : 0);
}

size_t ChannelRingBytes(const RfpOptions& options) {
  return 2 * static_cast<size_t>(options.window) * ChannelSlotBytes(options);
}

void ValidateOptions(const ServerOptions& options) {
  if (options.max_message_bytes == 0) Reject("max_message_bytes must be > 0");
  CheckNonNegative(options.overload_lo_watermark_ns, "overload_lo_watermark_ns must be >= 0");
  CheckNonNegative(options.overload_hi_watermark_ns, "overload_hi_watermark_ns must be >= 0");
  if (options.overload_lo_watermark_ns > options.overload_hi_watermark_ns) {
    Reject("overload watermarks must satisfy lo <= hi");
  }
}

}  // namespace rfp
