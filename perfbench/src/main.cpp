// Server-side session benchmark over loopback sockets.
//
//   perfbench --workload <hs-storm|rec-stream> --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 measures the untraced server (BrokerDriver::step) and prints
// the end-to-end metrics. --trace 1 measures the untraced server, then a
// traced run of the same fixture, and prints the per-layer metrics; the
// traced run's spans are written to DIR. Either way the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for what each workload and metric means.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
/// The traced run's window is capped here: per-layer numbers need
/// thousands of ops, not the full run, and spans are kept in memory.
constexpr double kMaxTracedSeconds = 3.0;
constexpr std::size_t kMaxSpans = std::size_t{1} << 21;
/// Server-bound guard: on a closed-loop workload the server must be busy
/// for at least this share of the window, or the run measured the
/// generators instead.
constexpr double kMaxServerIdle = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args.trace = value[0] == '1';
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void print_lines() const {
    for (const Entry& e : entries_)
      std::printf("  %-40s %14.6g %s\n", e.name.c_str(), e.value, e.unit);
  }
  void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < entries_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  entries_[i].name.c_str(), entries_[i].value, entries_[i].unit);
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Ops that finished in the phase: attempted minus failed.
std::uint64_t ops_done(const PhaseResult& p) {
  return p.attempted() > p.failed() ? p.attempted() - p.failed() : 0;
}

/// Exact-quantity checks: prints each and returns false on a mismatch.
bool check_exact(const Workload& w, const PhaseResult& p, const char* phase) {
  bool ok = true;
  const std::uint64_t ops = ops_done(p);
  const std::uint64_t wire = p.after.wire_bytes - p.before.wire_bytes;
  const auto expect = [&](const char* what, std::uint64_t got, std::uint64_t per_op) {
    const bool match = got == per_op * ops;
    std::fprintf(stderr, "[%s] %-26s %" PRIu64 " over %" PRIu64 " ops = %.6f/op, expected %" PRIu64
                         "/op: %s\n",
                 phase, what, got, ops, ratio(static_cast<double>(got), static_cast<double>(ops)),
                 per_op, match ? "ok" : "MISMATCH");
    ok &= match;
  };
  expect("crypto.ec_mul", p.server_ops.ec_mul, w.expect.ec_mul_per_op);
  expect("net.wire_bytes", wire, w.expect.wire_bytes_per_op);
  const std::uint64_t sent = p.records_sent();
  const bool delivered = p.records_delivered == sent;
  std::fprintf(stderr, "[%s] records delivered %" PRIu64 " of %" PRIu64 " sent, %" PRIu64
                       " with a wrong plaintext: %s\n",
               phase, p.records_delivered, sent, p.corrupt,
               delivered && p.corrupt == 0 ? "ok" : "MISMATCH");
  ok &= delivered && p.corrupt == 0;
  const std::uint64_t errors = p.server_errors + (p.after.errors - p.before.errors);
  std::fprintf(stderr, "[%s] server call errors %" PRIu64 ": %s\n", phase, errors,
               errors == 0 ? "ok" : "MISMATCH");
  ok &= errors == 0;
  // Every completed hs-storm session sent its record.
  ok &= sent == ops_done(p) || w.kind == Kind::kStream;
  return ok;
}

/// Server busy share of the window from its thread CPU time.
double busy_ratio(const PhaseResult& p) { return ratio(p.window.server_cpu_s, p.window.wall_s); }

double ops_per_s(const PhaseResult& p) {
  return ratio(static_cast<double>(p.window.ops), p.window.wall_s);
}

double server_us_per_op(const PhaseResult& p) {
  return ratio(p.window.server_cpu_s * 1e6, static_cast<double>(p.window.ops));
}

/// Latency figures are per 2 s sub-window, median over sub-windows.
constexpr double kSubWindowMs = 2000.0;

double window_ms(const PhaseResult& p) { return p.window_s * 1000.0; }

std::vector<Sample> merged_hs(const PhaseResult& p) {
  std::vector<Sample> out;
  for (const GenResult& g : p.gens) out.insert(out.end(), g.hs_ms.begin(), g.hs_ms.end());
  return out;
}

/// Figures of the untraced run. An op is the unit of work the workload is
/// about: on hs-storm a session, timed from connect() to a ready session at
/// the client; on rec-stream a record, timed from make_data to the server's
/// on_data. A figure of the other kind (rec-stream's handshakes happen only
/// in set-up) would rest on a few seconds of samples and not repeat.
void end_to_end(const Workload& w, const PhaseResult& p, double setup_s, Report& report) {
  std::vector<Sample> latency_ms = merged_hs(p);
  if (w.kind == Kind::kStream) {
    latency_ms = p.rec_us;
    for (Sample& s : latency_ms) s.value *= 1e-3f;
  }
  report.add("setup_s", setup_s, "s");
  report.add("ops_per_s", ops_per_s(p), "1/s");
  report.add("op_p50_ms", windowed_quantile(latency_ms, 0.50, window_ms(p), kSubWindowMs), "ms");
  report.add("op_p99_ms", windowed_quantile(latency_ms, 0.99, window_ms(p), kSubWindowMs), "ms");
  report.add("server_cpu_us_per_op", server_us_per_op(p), "us");
  report.add("success_ratio",
             1.0 - ratio(static_cast<double>(p.failed()), static_cast<double>(p.attempted())),
             "ratio");
  std::printf("samples: %zu op latencies; server busy %.3f of the window\n", latency_ms.size(),
              busy_ratio(p));
}

/// Per-layer figures: spans of the traced run, library counters of the
/// traced run, generator figures of the untraced run. Returns the traced
/// run's idle share (time in epoll_wait).
double per_layer(const Workload& w, const PhaseResult& plain, const PhaseResult& traced,
                 const Tracer& tracer, bool idle_flagged, Report& report) {
  const std::vector<Span>& spans = tracer.spans();
  std::int64_t first = INT64_MAX, last = 0;
  struct Sum {
    double ns = 0;
    std::uint64_t n = 0;
  };
  Sum sum[7];
  std::vector<float> on_message_us[3];  // A1, A2, DT1
  double on_message_total_us[3] = {0, 0, 0};
  // A session's crypto is its A1 plus its A2, paired by device so that
  // handshakes cut by the window edges do not count.
  std::unordered_map<std::uint32_t, const Span*> open_a1;
  std::uint64_t ec = 0, fp = 0, paired = 0;
  std::vector<std::uint32_t> sha, aes;
  for (const Span& s : spans) {
    const int k = static_cast<int>(s.kind);
    if (s.kind == SpanKind::kStep) continue;
    first = std::min(first, s.start_ns);
    last = std::max(last, s.start_ns + static_cast<std::int64_t>(s.dur_ns));
    sum[k].ns += s.dur_ns;
    ++sum[k].n;
    if (s.kind != SpanKind::kOnMessage || s.step == Step::kOther) continue;
    const int m = static_cast<int>(s.step);
    on_message_us[m].push_back(static_cast<float>(s.dur_ns * 1e-3));
    on_message_total_us[m] += s.dur_ns * 1e-3;
    if (s.step == Step::kDT1) {
      sha.push_back(s.sha256_blocks);
      aes.push_back(s.aes_blocks);
    } else if (s.step == Step::kA1) {
      open_a1[s.device] = &s;
    } else if (const auto a1 = open_a1.find(s.device); a1 != open_a1.end()) {
      ec += a1->second->ec_mul + s.ec_mul;
      fp += a1->second->fp_mul + s.fp_mul;
      ++paired;
      open_a1.erase(a1);
    }
  }
  const double wall_ns = last > first ? static_cast<double>(last - first) : 0.0;
  const std::uint64_t sessions = on_message_us[1].size();  // one A2 per session
  const double ops = static_cast<double>(w.kind == Kind::kStream ? on_message_us[2].size()
                                                                 : sessions);
  const auto covered = [&](SpanKind k) { return sum[static_cast<int>(k)]; };
  double leaf_ns = 0;
  for (int k = 1; k < 7; ++k) leaf_ns += sum[k].ns;

  const ServerCounters& a = traced.after;
  const ServerCounters& b = traced.before;
  const auto delta = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(x - y); };

  // net
  report.add("net.service_us_per_call",
             ratio(covered(SpanKind::kService).ns * 1e-3, covered(SpanKind::kService).n), "us");
  report.add("net.datagrams_per_service",
             ratio(static_cast<double>(tracer.service_datagrams), covered(SpanKind::kService).n),
             "count");
  report.add("net.receive_us_per_msg",
             ratio(covered(SpanKind::kReceive).ns * 1e-3,
                   static_cast<double>(on_message_us[0].size() + on_message_us[1].size() +
                                       on_message_us[2].size())),
             "us");
  report.add("net.send_us_per_msg",
             ratio(covered(SpanKind::kSend).ns * 1e-3, covered(SpanKind::kSend).n), "us");
  report.add("net.wire_bytes_per_op",
             ratio(delta(a.wire_bytes, b.wire_bytes), static_cast<double>(ops_done(traced))),
             "B");
  report.add("net.send_drops",
             delta(a.send_drops, b.send_drops) + static_cast<double>(traced.client_send_drops),
             "count");
  report.add("net.decode_errors", delta(a.decode_errors, b.decode_errors), "count");
  // event_loop
  const double idle = ratio(covered(SpanKind::kWait).ns, wall_ns);
  report.add("event_loop.idle_ratio", idle, "ratio");
  report.add("event_loop.wakeups_per_op", ratio(static_cast<double>(tracer.wakeups), ops),
             "count");
  // broker
  const char* names[3] = {"A1", "A2", "DT1"};
  for (int m = 0; m < 3; ++m) {
    report.add(std::string("broker.on_message_us.") + names[m] + ".p50",
               quantile(on_message_us[m], 0.5), "us");
    report.add(std::string("broker.on_message_us.") + names[m] + ".total_per_op",
               ratio(on_message_total_us[m], ops), "us");
  }
  report.add("broker.retransmits", delta(a.retransmits, b.retransmits), "count");
  report.add("broker.duplicates_ignored", delta(a.duplicates_ignored, b.duplicates_ignored),
             "count");
  report.add("broker.handshakes_failed",
             delta(a.handshakes_failed, b.handshakes_failed) +
                 delta(a.handshakes_aborted, b.handshakes_aborted),
             "count");
  // crypto
  report.add("crypto.ec_mul_per_session",
             ratio(static_cast<double>(ec), static_cast<double>(paired)), "count");
  report.add("crypto.fp_mul_per_session",
             ratio(static_cast<double>(fp), static_cast<double>(paired)), "count");
  report.add("crypto.sha256_blocks_per_record", quantile(sha, 0.5), "count");
  report.add("crypto.aes_blocks_per_record", quantile(aes, 0.5), "count");
  // peer_cache
  report.add("peer_cache.hit_ratio",
             ratio(delta(a.cache_hits, b.cache_hits),
                   delta(a.cache_hits, b.cache_hits) + delta(a.cache_misses, b.cache_misses)),
             "ratio");
  report.add("peer_cache.evictions", delta(a.cache_evictions, b.cache_evictions), "count");
  // store
  report.add("store.installs", delta(a.store_installs, b.store_installs), "count");
  report.add("store.opens", delta(a.store_opens, b.store_opens), "count");
  report.add("store.ratchet_signals_applied",
             delta(a.store_ratchet_signals_applied, b.store_ratchet_signals_applied), "count");
  report.add("store.capacity_evictions",
             delta(a.store_capacity_evictions, b.store_capacity_evictions), "count");
  report.add("store.epoch_rejects", delta(a.store_epoch_rejects, b.store_epoch_rejects),
             "count");
  // gen (untraced run)
  std::uint64_t gen_calls = 0, gen_ns = 0;
  for (const GenResult& g : plain.gens) {
    gen_calls += g.on_message_calls;
    gen_ns += g.on_message_ns;
  }
  report.add("gen.cpu_us_per_op",
             ratio(plain.window.gen_cpu_s * 1e6, static_cast<double>(plain.window.ops)), "us");
  report.add("gen.on_message_us",
             ratio(static_cast<double>(gen_ns) * 1e-3, static_cast<double>(gen_calls)), "us");
  // ledger
  const double plain_cpu = server_us_per_op(plain);
  const double traced_cpu = server_us_per_op(traced);
  report.add("ledger.coverage", ratio(leaf_ns, wall_ns), "ratio");
  report.add("ledger.tracing_overhead", plain_cpu > 0 ? traced_cpu / plain_cpu - 1.0 : 0.0,
             "ratio");
  report.add("ledger.spans", static_cast<double>(spans.size()), "count");
  report.add("ledger.traced_ops", ops, "count");
  report.add("guard.server_busy_ratio", busy_ratio(plain), "ratio");
  report.add("guard.server_idle_flagged",
             idle_flagged || idle > kMaxServerIdle ? 1.0 : 0.0,
             "count");
  report.add("samples.hs", static_cast<double>(merged_hs(plain).size()), "count");
  report.add("samples.rec", static_cast<double>(plain.rec_us.size()), "count");
  report.add("fail_ratio",
             ratio(static_cast<double>(plain.failed() + traced.failed()),
                   static_cast<double>(plain.attempted() + traced.attempted())),
             "ratio");
  return idle;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<double> setup_times;
  std::unique_ptr<Fixture> fx;
  bool setups_ok = true;  // every session a set-up established came up
  for (int i = 0; i < kSetupRepeats; ++i) {
    fx.reset();
    const std::int64_t start = now_ns();
    fx = setup(*w, args.seed);
    setup_times.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    setups_ok &= fx->establish.failed() == 0;
  }
  const double setup_s = quantile(setup_times, 0.5);
  std::printf("%s seed %" PRIu64 ": set-up %.3f s (median of %d)\n", args.workload.c_str(),
              args.seed, setup_s, kSetupRepeats);

  PhaseResult plain = run_phase(*fx, args.seconds, nullptr);
  bool correct = check_exact(*w, plain, "untraced");
  correct &= setups_ok;

  // Server-bound guard: a closed-loop run in which the server idled
  // measured the generators. The untraced run is judged by the server
  // thread's CPU time, the traced run by its time in epoll_wait.
  const double plain_idle = 1.0 - busy_ratio(plain);
  bool idle_flagged = plain_idle > kMaxServerIdle;
  double traced_idle = 0.0;

  Report report;
  std::uint64_t attempted = plain.attempted();
  std::uint64_t failed = plain.failed();
  if (!args.trace) {
    end_to_end(*w, plain, setup_s, report);
  } else {
    Tracer tracer(kMaxSpans);
    PhaseResult traced =
        run_phase(*fx, std::min(args.seconds, kMaxTracedSeconds), &tracer);
    correct &= check_exact(*w, traced, "traced");
    attempted += traced.attempted();
    failed += traced.failed();
    traced_idle = per_layer(*w, plain, traced, tracer, idle_flagged, report);
    idle_flagged |= traced_idle > kMaxServerIdle;
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".csv";
    if (tracer.write_csv(path))
      std::printf("spans: %zu written to %s%s\n", tracer.spans().size(), path.c_str(),
                  tracer.truncated() ? " (span buffer full; later calls untraced)" : "");
  }
  if (idle_flagged)
    std::fprintf(stderr, "FLAG: the server idled for %.1f%% (untraced) / %.1f%% (traced) of a "
                         "closed-loop window, above the %.0f%% limit: this run measured the "
                         "generators, not the server\n",
                 100.0 * plain_idle, 100.0 * traced_idle, 100.0 * kMaxServerIdle);

  report.print_lines();
  report.print_json(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <hs-storm|rec-stream> --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
