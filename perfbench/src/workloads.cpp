#include "workloads.hpp"

#include <sched.h>
#include <sys/prctl.h>

#include <thread>

namespace perfbench {

namespace {

constexpr std::int64_t kMs = 1000000;
constexpr std::int64_t kWarmupNs = 300 * kMs;
constexpr std::int64_t kDrainNs = 10000 * kMs;
constexpr std::int64_t kOpTimeoutNs = 5000 * kMs;
/// Handshakes each generator keeps in flight while establishing sessions.
constexpr std::size_t kEstablishInFlight = 24;

const Workload kWorkloads[] = {
    // hs-storm: cold peer cache (every A1 carries an unseen certificate),
    // so EC crypto, sts and store installs are nearly all of server CPU; the
    // socket layer is a few percent, so a syscall change should not move it.
    // Devices cycle through a pool three times the peer-cache and store
    // capacity, so every handshake misses the cache and evicts a session.
    {.name = "hs-storm",
     .kind = Kind::kStorm,
     .fleet = 3072,
     .store_capacity = 1024,
     .peer_cache_capacity = 1024,
     .policy = {.records_per_epoch = 1024, .max_epochs = 8},
     .in_flight = 24,
     .established = 0,
     .expect = {.ec_mul_per_op = 5, .wire_bytes_per_op = 780}},
    // rec-stream: zero EC work; per-datagram syscalls, epoll wakeups,
    // decode, dispatch, store lookup and the default v2 record layer are the
    // whole cost, so this is where a per-packet optimisation shows. The
    // record budget makes piggybacked epoch ratchets fire, and the epoch
    // budget is far beyond reach, so no full re-handshake happens.
    {.name = "rec-stream",
     .kind = Kind::kStream,
     .fleet = 4096,
     .store_capacity = 8192,
     .peer_cache_capacity = 8192,
     .policy = {.records_per_epoch = 128, .max_epochs = 1u << 30},
     .in_flight = 96,
     .established = 4096,
     .expect = {.ec_mul_per_op = 0, .wire_bytes_per_op = 145}},
};

/// One phase's clock, and the completion counters the window is read from.
struct Timing {
  std::int64_t phase_start = 0;
  std::int64_t window_start = 0;
  std::int64_t window_end = 0;
  std::int64_t deadline = 0;  // in-flight ops still open here have failed
  std::array<std::atomic<std::uint64_t>, kGenerators> done{};  // ops completed
  /// Set once the window's closing sample is taken. A generator thread
  /// stays alive until then: the CPU clock of a thread that has ended
  /// cannot be read.
  std::atomic<bool> window_sampled{false};
};

void sleep_ns(std::int64_t ns) {
  if (ns <= 0) return;
  timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
  nanosleep(&ts, nullptr);
}

std::uint64_t client_seed(std::uint64_t seed, int g, std::uint64_t n) {
  return splitmix64(seed ^ (static_cast<std::uint64_t>(g + 1) << 40) ^ splitmix64(n));
}

bool in_window(std::int64_t at, const Timing& t) {
  return at >= t.window_start && at < t.window_end;
}

/// Sends one seeded record for a client; false when it could not be sent.
bool send_record(Fixture& fx, int g, std::size_t slot, GenResult& out) {
  GenState& gs = fx.gens[g];
  std::uint8_t buffer[kRecordBytes];
  fill_record(buffer, kRecordBytes, fx.seed, record_id(g, gs.records++), now_ns());
  if (gs.link->send_record(slot, buffer, kRecordBytes) == 0) return false;
  ++out.records_sent;
  return true;
}

/// Closed-loop handshake generator: keeps `in_flight` handshakes open. With
/// `establish` it connects this generator's share of the sessions to
/// pre-establish and keeps them; otherwise every client is a fresh device
/// that sends its records and retires.
void run_handshakes(Fixture& fx, int g, Timing& t, bool establish, GenResult& out) {
  const Workload& w = fx.w;
  GenState& gs = fx.gens[g];
  ClientLink& link = *gs.link;
  struct Op {
    std::size_t slot;
    std::int64_t start;  // connect() time
  };
  std::vector<Op> active;
  const std::size_t in_flight = establish ? kEstablishInFlight : w.in_flight;
  // This generator's share of the sessions to pre-establish.
  const std::size_t establish_total = (w.established + kGenerators - 1 - g) / kGenerators;

  // Opens handshakes up to `in_flight`; false once this generator issues no
  // more. Generators take alternate devices, cycling through the fleet.
  const auto issue = [&] {
    if (establish ? gs.cursor >= establish_total : now_ns() >= t.window_end) return false;
    while (active.size() < in_flight && (!establish || gs.cursor < establish_total)) {
      const auto device = static_cast<std::uint32_t>((gs.cursor * kGenerators + g) % w.fleet);
      const std::size_t slot = link.open_client(device, client_seed(fx.seed, g, gs.cursor));
      ++gs.cursor;
      ++out.attempted;
      if (!link.connect(slot)) {
        ++out.failed;
        link.close_client(slot);
        continue;
      }
      active.push_back({slot, now_ns()});
    }
    return true;
  };

  for (;;) {
    const bool issuing = issue();
    if (!issuing && active.empty()) break;
    if (now_ns() > t.deadline) {
      out.failed += active.size();
      for (const Op& op : active) link.close_client(op.slot);
      break;
    }

    bool progress = false;
    for (std::size_t i = 0; i < active.size();) {
      const Op op = active[i];
      const ClientLink::Pump pumped = link.pump(op.slot);
      out.on_message_ns += pumped.on_message_ns;
      out.on_message_calls += pumped.messages;
      progress |= pumped.messages > 0;
      const std::int64_t done = now_ns();
      bool retire = true;
      if (pumped.error || done - op.start > kOpTimeoutNs) {
        ++out.failed;
      } else if (pumped.ready) {
        if (in_window(op.start, t))
          out.hs_ms.push_back({static_cast<std::uint32_t>((op.start - t.window_start) / kMs),
                               static_cast<float>(static_cast<double>(done - op.start) * 1e-6)});
        t.done[g].fetch_add(1, std::memory_order_relaxed);
        if (establish) {
          gs.sessions.push_back(op.slot);
          active[i] = active.back();
          active.pop_back();
          continue;
        }
        if (!send_record(fx, g, op.slot, out)) ++out.failed;
      } else {
        retire = false;
      }
      if (retire) {
        link.close_client(op.slot);
        active[i] = active.back();
        active.pop_back();
      } else {
        ++i;
      }
    }
    if (!progress) link.wait(1);
  }
}

/// Record-stream generator: keeps `in_flight` records unopened at the
/// server, round-robin over this generator's established sessions.
void run_stream(Fixture& fx, int g, const Timing& t, GenResult& out) {
  const Workload& w = fx.w;
  GenState& gs = fx.gens[g];
  const std::atomic<std::uint64_t>& delivered = fx.sink.delivered[g];
  for (;;) {
    if (now_ns() >= t.window_end) break;
    const std::uint64_t open = out.records_sent - delivered.load(std::memory_order_acquire);
    if (open >= w.in_flight) {
      sleep_ns(20000);
      continue;
    }
    for (std::uint64_t i = open; i < w.in_flight; ++i) {
      const std::size_t slot = gs.sessions[gs.cursor++ % gs.sessions.size()];
      ++out.attempted;
      if (!send_record(fx, g, slot, out)) ++out.failed;
    }
  }
}

/// The server thread: BrokerDriver::step, or the traced loop. Under
/// sustained load one step can last the whole window (the drain loop keeps
/// finding new datagrams), so window edges are never observed here.
struct ServerRun {
  std::uint64_t errors = 0;
  CryptoOps ops;
};

void serve(Server& server, const std::atomic<bool>& stop, Tracer* tracer, ServerRun& out) {
  CryptoCounter phase_ops;
  while (!stop.load(std::memory_order_acquire)) {
    const bool ok = tracer != nullptr ? tracer->step(server) : server.step();
    if (!ok) ++out.errors;
  }
  out.ops = phase_ops.ops();
}

/// Pins the phase's threads one per CPU (server first), when the process
/// may use at least one CPU per thread. Left to the scheduler, a generator
/// woken by the server's send can be placed on the server's CPU, and the
/// two then time-share it until the load balancer moves one of them.
void pin_threads(std::thread& server, std::array<std::thread, kGenerators>& generators) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  if (cpus.size() < 1 + kGenerators) return;
  const auto pin = [](std::thread& thread, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(thread.native_handle(), sizeof one, &one);
  };
  pin(server, cpus[0]);
  for (int g = 0; g < kGenerators; ++g) pin(generators[g], cpus[1 + g]);
}

void sleep_until_ns(std::int64_t at) {
  for (std::int64_t now = now_ns(); now < at; now = now_ns()) sleep_ns(at - now);
}

PhaseResult run(Fixture& fx, double window_s, Tracer* tracer, bool establish) {
  PhaseResult result;
  Timing t;
  t.phase_start = now_ns();
  t.window_start = establish ? t.phase_start : t.phase_start + kWarmupNs;
  t.window_end = t.window_start + static_cast<std::int64_t>(window_s * 1e9);
  t.deadline = t.window_end + kDrainNs;
  t.window_sampled.store(establish, std::memory_order_relaxed);  // set-up takes no samples
  result.window_s = window_s;
  fx.sink.reset(t.window_start, t.window_end);
  if (tracer != nullptr) tracer->set_window(t.window_start, t.window_end);
  result.before = fx.server->counters();

  std::atomic<bool> stop{false};
  ServerRun server_run;
  std::thread server_thread([&] { serve(*fx.server, stop, tracer, server_run); });
  std::array<std::thread, kGenerators> generators;
  for (int g = 0; g < kGenerators; ++g) {
    generators[g] = std::thread([&, g] {
      GenResult& out = result.gens[g];
      if (!establish && fx.w.kind == Kind::kStream)
        run_stream(fx, g, t, out);
      else
        run_handshakes(fx, g, t, establish, out);
      while (!t.window_sampled.load(std::memory_order_acquire)) sleep_ns(100000);
    });
  }
  pin_threads(server_thread, generators);
  if (!establish) {
    // This thread samples every thread's CPU clock and the completion
    // counters at the window edges.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    struct Sample {
      std::int64_t wall;
      double server_cpu, gen_cpu;
      std::uint64_t ops, records;
    };
    const auto sample = [&] {
      Sample at{now_ns(), thread_cpu_s(server_thread), 0.0, 0, fx.sink.delivered_total()};
      for (int g = 0; g < kGenerators; ++g) {
        at.gen_cpu += thread_cpu_s(generators[g]);
        at.ops += t.done[g].load(std::memory_order_relaxed);
      }
      if (fx.w.kind == Kind::kStream) at.ops = at.records;  // a stream op is one record
      return at;
    };
    sleep_until_ns(t.window_start);
    const Sample first = sample();
    sleep_until_ns(t.window_end);
    const Sample last = sample();
    t.window_sampled.store(true, std::memory_order_release);
    result.window.wall_s = static_cast<double>(last.wall - first.wall) * 1e-9;
    result.window.server_cpu_s = last.server_cpu - first.server_cpu;
    result.window.gen_cpu_s = last.gen_cpu - first.gen_cpu;
    result.window.ops = last.ops - first.ops;
  }
  for (std::thread& thread : generators) thread.join();
  // Every record sent must reach the server before it stops.
  while (fx.sink.delivered_total() < result.records_sent() && now_ns() < t.deadline)
    sleep_ns(100000);
  stop.store(true, std::memory_order_release);
  server_thread.join();

  result.after = fx.server->counters();
  result.server_errors = server_run.errors;
  result.server_ops = server_run.ops;
  result.records_delivered = fx.sink.delivered_total();
  result.corrupt = fx.sink.corrupt;
  result.rec_us = std::move(fx.sink.latency_us);
  for (const GenState& gs : fx.gens) result.client_send_drops += gs.link->send_drops();
  return result;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

void RecordSink::reset(std::int64_t start, std::int64_t end) {
  window_start = start;
  window_end = end;
  for (auto& d : delivered) d.store(0, std::memory_order_relaxed);
  corrupt = 0;
  latency_us.clear();
}

void RecordSink::on_data(const std::uint8_t* data, std::size_t len) {
  const std::int64_t now = now_ns();
  std::uint64_t id = 0;
  std::int64_t sent = 0;
  if (len != kRecordBytes || !check_record(data, len, seed)) {
    ++corrupt;
    return;
  }
  std::memcpy(&id, data, 8);
  std::memcpy(&sent, data + 8, 8);
  const int g = record_generator(id);
  if (g >= kGenerators) {
    ++corrupt;
    return;
  }
  if (sent >= window_start && sent < window_end)
    latency_us.push_back({static_cast<std::uint32_t>((sent - window_start) / 1000000),
                          static_cast<float>(static_cast<double>(now - sent) * 1e-3)});
  delivered[g].fetch_add(1, std::memory_order_release);
}

std::uint64_t RecordSink::delivered_total() const {
  std::uint64_t total = 0;
  for (const auto& d : delivered) total += d.load(std::memory_order_acquire);
  return total;
}

std::uint64_t PhaseResult::attempted() const {
  std::uint64_t n = 0;
  for (const GenResult& g : gens) n += g.attempted;
  return n;
}

std::uint64_t PhaseResult::records_sent() const {
  std::uint64_t n = 0;
  for (const GenResult& g : gens) n += g.records_sent;
  return n;
}

std::uint64_t PhaseResult::failed() const {
  std::uint64_t n = corrupt;
  for (const GenResult& g : gens) n += g.failed;
  const std::uint64_t sent = records_sent();
  if (records_delivered < sent) n += sent - records_delivered;
  return n;
}

std::unique_ptr<Fixture> setup(const Workload& workload, std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>(workload, seed);
  fx->sink.seed = seed;
  fx->fleet = std::make_unique<Fleet>(seed, workload.fleet);
  ServerOptions options;
  options.policy = workload.policy;
  options.store_capacity = workload.store_capacity;
  options.peer_cache_capacity = workload.peer_cache_capacity;
  options.seed = splitmix64(seed ^ 0x5eu);
  options.on_data = [sink = &fx->sink](std::uint32_t, const std::uint8_t* data, std::size_t len) {
    sink->on_data(data, len);
  };
  fx->server = std::make_unique<Server>(*fx->fleet, options);
  for (GenState& gs : fx->gens)
    gs.link = std::make_unique<ClientLink>(*fx->fleet, fx->server->port(), workload.policy);
  if (workload.kind == Kind::kStream) {
    fx->establish = run(*fx, 3600.0, nullptr, /*establish=*/true);
    for (GenState& gs : fx->gens) gs.cursor = 0;
  }
  return fx;
}

PhaseResult run_phase(Fixture& fx, double window_s, Tracer* tracer) {
  return run(fx, window_s, tracer, /*establish=*/false);
}

}  // namespace perfbench
