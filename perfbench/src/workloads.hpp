// Workload definitions, set-up, and the phase runner: one server thread
// plus two load-generator threads over loopback sockets.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <string_view>
#include <vector>

#include "adapter.hpp"
#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Kind : std::uint8_t {
  kStorm,   // closed loop: fresh device, full STS, one record, retire
  kStream,  // closed loop: records over sessions established in set-up
};

/// Exact per-op quantities over a whole phase. A run whose counts differ
/// fails: these move only when the protocol's work or bytes change.
struct Expect {
  std::uint64_t ec_mul_per_op = 0;      // server scalar multiplications
  std::uint64_t wire_bytes_per_op = 0;  // server socket bytes, both directions
};

struct Workload {
  std::string_view name;
  Kind kind;
  std::size_t fleet;                // provisioned client devices
  std::size_t store_capacity;       // server session store bound
  std::size_t peer_cache_capacity;  // server peer-key cache bound
  Policy policy;
  std::size_t in_flight;      // per generator: handshakes, or records for kStream
  std::size_t established;    // kStream: sessions pre-established in set-up
  Expect expect;
};

/// Plaintext bytes per record, the smallest telemetry frame: per-packet
/// costs dominate.
inline constexpr std::size_t kRecordBytes = 64;

/// The workload named `name`, or nullptr.
const Workload* find_workload(std::string_view name);

/// Server-side application sink: checks and times every opened record.
/// Written by the server thread during a phase; read after it is joined.
struct RecordSink {
  std::uint64_t seed = 0;
  std::int64_t window_start = 0;
  std::int64_t window_end = 0;
  std::array<std::atomic<std::uint64_t>, kGenerators> delivered{};
  std::uint64_t corrupt = 0;
  std::vector<Sample> latency_us;  // records sent inside the window

  void reset(std::int64_t start, std::int64_t end);
  void on_data(const std::uint8_t* data, std::size_t len);
  [[nodiscard]] std::uint64_t delivered_total() const;
};

struct GenState {
  std::unique_ptr<ClientLink> link;
  std::uint64_t cursor = 0;   // devices or records issued so far
  std::uint64_t records = 0;  // records sent so far (record ids)
  std::vector<std::size_t> sessions;  // kStream: established client slots
};

struct GenResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t records_sent = 0;
  std::vector<Sample> hs_ms;  // ops started inside the window
  std::uint64_t on_message_ns = 0;
  std::uint64_t on_message_calls = 0;
};

/// What the measurement window saw, from samples taken at its edges.
struct Window {
  double wall_s = 0.0;
  double server_cpu_s = 0.0;  // server thread user + system time
  double gen_cpu_s = 0.0;     // all generator threads
  std::uint64_t ops = 0;      // ops completed (kStream: records opened)
};

struct PhaseResult {
  double window_s = 0.0;
  std::array<GenResult, kGenerators> gens;
  Window window;
  std::uint64_t records_delivered = 0;
  std::uint64_t corrupt = 0;
  std::vector<Sample> rec_us;  // record latencies (make_data to on_data)
  std::uint64_t server_errors = 0;
  CryptoOps server_ops;        // whole phase
  ServerCounters before, after;  // whole phase
  std::uint64_t client_send_drops = 0;

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;  // incl. undelivered and corrupt records
  [[nodiscard]] std::uint64_t records_sent() const;
};

struct Fixture {
  Fixture(const Workload& workload, std::uint64_t seed) : w(workload), seed(seed) {}

  const Workload& w;
  std::uint64_t seed;
  std::unique_ptr<Fleet> fleet;
  RecordSink sink;
  std::unique_ptr<Server> server;
  std::array<GenState, kGenerators> gens;
  PhaseResult establish;             // kStream: the set-up handshakes
};

/// Builds the fleet, server and generator links; kStream also establishes
/// its sessions through the server.
std::unique_ptr<Fixture> setup(const Workload& workload, std::uint64_t seed);

/// Runs one measured phase: warm-up, a `window_s` window, then a drain of
/// every op still in flight. With a tracer the server runs the traced loop
/// and records spans inside the window.
PhaseResult run_phase(Fixture& fx, double window_s, Tracer* tracer);

}  // namespace perfbench
