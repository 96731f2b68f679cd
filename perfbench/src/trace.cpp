#include "trace.hpp"

#include <cstdio>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr const char* kKindNames[] = {"step", "wait", "service", "receive",
                                      "on_message", "send", "poll_retransmits"};
constexpr const char* kStepNames[] = {"A1", "A2", "DT1", "-"};

}  // namespace

std::uint32_t Tracer::open(SpanKind kind, std::uint32_t parent) {
  const std::int64_t start = now_ns();
  if (start < window_start_ || start >= window_end_) return kNoParent;
  if (spans_.size() >= max_spans_) {
    truncated_ = true;
    return kNoParent;
  }
  Span span;
  span.kind = kind;
  span.parent = parent;
  span.start_ns = start;
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t index) {
  if (index == kNoParent) return;
  Span& span = spans_[index];
  span.dur_ns = static_cast<std::uint32_t>(now_ns() - span.start_ns);
}

bool Tracer::step(Server& server) {
  bool ok = true;
  const std::uint32_t step = open(SpanKind::kStep, kNoParent);
  const int timeout_ms = server.prepare_wait();

  std::uint32_t span = open(SpanKind::kWait, step);
  const int ready = server.wait(timeout_ms);
  close(span);
  ok &= ready >= 0;
  if (span != kNoParent && ready > 0) ++wakeups;

  span = open(SpanKind::kService, step);
  const std::size_t decoded = server.service();
  close(span);
  if (span != kNoParent) service_datagrams += decoded;

  // ConcurrentSessionBroker::poll with workers = 0: due retransmissions
  // first, then every inbound datagram handled inline.
  span = open(SpanKind::kPollRetransmits, step);
  const std::size_t due = server.poll_retransmits();
  close(span);
  for (std::size_t i = 0; i < due; ++i) {
    span = open(SpanKind::kSend, step);
    ok &= server.send_retransmit(i);
    close(span);
  }

  for (;;) {
    Server::Inbound in;
    span = open(SpanKind::kReceive, step);
    const bool got = server.receive(in);
    close(span);
    if (!got) break;
    const auto tag = [&](std::uint32_t index) {
      if (index == kNoParent) return;
      spans_[index].device = in.device;
      spans_[index].seq = static_cast<std::uint32_t>(in.seq);
      spans_[index].step = in.step;
    };
    tag(span);

    bool replied = false;
    span = open(SpanKind::kOnMessage, step);
    {
      CryptoCounter counter;
      replied = server.on_message();
      const CryptoOps ops = counter.ops();
      close(span);
      if (span != kNoParent) {
        spans_[span].ec_mul = static_cast<std::uint16_t>(ops.ec_mul);
        spans_[span].fp_mul = static_cast<std::uint32_t>(ops.fp_mul);
        spans_[span].sha256_blocks = static_cast<std::uint16_t>(ops.sha256_blocks);
        spans_[span].aes_blocks = static_cast<std::uint16_t>(ops.aes_blocks);
      }
    }
    tag(span);
    if (replied) {
      span = open(SpanKind::kSend, step);
      ok &= server.send_reply();
      close(span);
      tag(span);
    }
  }
  server.finish_step();
  close(step);
  return ok;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "index,name,start_ns,end_ns,parent,device,seq,step,ec_mul,fp_mul,"
                    "sha256_blocks,aes_blocks\n");
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t start = s.start_ns - origin;
    std::fprintf(out, "%zu,%s,%lld,%lld,%lld,%u,%u,%s,%u,%u,%u,%u\n", i,
                 kKindNames[static_cast<int>(s.kind)], static_cast<long long>(start),
                 static_cast<long long>(start + s.dur_ns),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent), s.device,
                 s.seq, kStepNames[static_cast<int>(s.step)], s.ec_mul, s.fp_mul,
                 s.sha256_blocks, s.aes_blocks);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
