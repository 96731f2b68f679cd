// In-memory spans for the traced server run.
//
// The traced run replaces BrokerDriver::step with a benchmark-owned loop
// that makes exactly the public calls step() and the inline poll() make,
// one span per call: EventLoop::wait, FdTransport::service,
// Transport::receive, SessionBroker::on_message (inside a CountScope),
// Transport::send and SessionBroker::poll_retransmits. Each call's parent
// is the span of the loop iteration ("step") that made it, and its request
// id is the client device index plus, for records, the record sequence
// number. Spans stay in memory and are written out after the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adapter.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kStep,  // one loop iteration; parent of the calls below
  kWait,
  kService,
  kReceive,
  kOnMessage,
  kSend,
  kPollRetransmits,
};

struct Span {
  std::int64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t parent = 0;  // index of the step span; kNoParent for steps
  std::uint32_t device = 0;  // request id: client device index
  std::uint32_t seq = 0;     // request id: record sequence number (DT1)
  SpanKind kind = SpanKind::kStep;
  Step step = Step::kOther;  // message step (receive / on_message / send)
  std::uint16_t ec_mul = 0;  // on_message only: primitive counts
  std::uint32_t fp_mul = 0;
  std::uint16_t sha256_blocks = 0;
  std::uint16_t aes_blocks = 0;
};

inline constexpr std::uint32_t kNoParent = UINT32_MAX;

class Tracer {
 public:
  explicit Tracer(std::size_t max_spans) : max_spans_(max_spans) { spans_.reserve(max_spans); }

  /// Records the spans that start inside [start_ns, end_ns), while there
  /// is room.
  void set_window(std::int64_t start_ns, std::int64_t end_ns) {
    window_start_ = start_ns;
    window_end_ = end_ns;
  }
  [[nodiscard]] bool truncated() const { return truncated_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Counts kept beside the spans, for recorded calls only.
  std::uint64_t wakeups = 0;            // wait() calls that returned ready fds
  std::uint64_t service_datagrams = 0;  // datagrams decoded by service() calls

  /// One iteration of the traced server loop. False on a call error.
  bool step(Server& server);

  /// Writes every span as one CSV line.
  bool write_csv(const std::string& path) const;

 private:
  std::uint32_t open(SpanKind kind, std::uint32_t parent);
  void close(std::uint32_t index);

  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::int64_t window_start_ = 0;
  std::int64_t window_end_ = 0;
  bool truncated_ = false;
};

}  // namespace perfbench
