// Fleet session server: one broker endpoint terminating dynamic secure
// sessions for a whole ECQV fleet — the deployment shape the paper's
// two-party protocol grows into (one backend, thousands of certificate
// holders, V2X-SCMS style).
//
// Walks through the fabric end to end:
//   1. enrollment of a fleet + batch prewarm of the server's per-peer
//      verification cache (one shared inversion per phase);
//   2. interleaved STS handshakes through the message-driven broker —
//      no blocking driver, hundreds of half-open handshakes at once;
//   3. steady-state sealed telemetry through the sharded, capacity-bounded
//      session store (LRU evictions observed when the fleet outgrows it);
//   4. the rekey ladder: cheap epoch-ratchet resumptions (RK1) while the
//      budget lasts, full STS re-handshake after the escalation point;
//   5. the transport fabric: the same handshakes + telemetry through a
//      pluggable transport and a worker-pool broker;
//   6. graceful degradation: the same fabric through a link that drops,
//      duplicates and reorders datagrams — the reliability engine recovers
//      every handshake and the casualty report accounts for the storm.
//
// Build & run:  ./examples/fleet_session_server
//               ./examples/fleet_session_server --transport canfd --workers 4
//               ./examples/fleet_session_server --loss 0.30
//               ./examples/fleet_session_server --transport udp            (adds §7)
//               ./examples/fleet_session_server --transport tcp --listen 4711
//               ./examples/fleet_session_server --transport tcp --connect 4711
//
//   --transport ideal|canfd|udp|tcp
//                             ideal|canfd pick the section-5 link (default:
//                             ideal). udp|tcp additionally run section 7:
//                             the same fleet workload through REAL kernel
//                             sockets on loopback.
//   --workers N               worker threads on the section-5/6/7 server
//                             brokers (default: 0 = inline dispatch).
//   --loss P                  datagram drop probability for the section-6
//                             lossy link (default: 0.15).
//   --listen PORT             (udp|tcp only) skip the walkthrough and run a
//                             bare socket server on PORT until --serve
//                             seconds elapse — a second process can
//                             --connect to it.
//   --connect PORT            (udp|tcp only) run a client fleet against a
//                             --listen server on PORT.
//   --fleet N                 vehicles in --connect mode (default: 32).
//   --serve SECONDS           lifetime of --listen mode (default: 30).
//
// The --listen/--connect pair derive the same certificate authority from a
// fixed seed, so certificates provisioned in the client process verify in
// the server process — a real cross-process ECQV handshake over the
// kernel's loopback stack. Their brokers draw ephemeral scalars from the
// system RNG, so a restarted process never replays an old session's keys.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "canfd/canfd_transport.hpp"
#include "canfd/timeline.hpp"
#include "core/concurrent_broker.hpp"
#include "core/faulty_transport.hpp"
#include "core/session_broker.hpp"
#include "net/event_loop.hpp"
#include "net/loopback_soak.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"
#include "rng/system_rng.hpp"
#include "rng/test_rng.hpp"

using namespace ecqv;

namespace {

constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kDay = 86400;

/// Runs one full handshake between a client broker and the server.
bool handshake(proto::SessionBroker& client, proto::SessionBroker& server,
               const cert::DeviceId& client_id, const cert::DeviceId& server_id,
               std::uint64_t now) {
  if (!proto::SessionBroker::pump(client, server, client.connect(server_id, now), now).ok())
    return false;
  return server.session_ready(client_id, now);
}

// --- cross-process socket modes -------------------------------------------
// Both processes derive the SAME certificate authority from a fixed seed,
// so the client process provisions certificates the server process
// verifies — the trust anchor is shared out of band, the sessions are
// negotiated over the real socket. Only the trust anchor and the long-term
// credentials are seeded: every broker draws its ephemeral ECDH scalars
// from SystemRng, so the forward secrecy of a session survives restarts.

constexpr std::uint64_t kSharedCaSeed = 90;
constexpr const char* kBackendId = "fleet-backend";

cert::CertificateAuthority shared_ca() {
  rng::TestRng boot(kSharedCaSeed);
  return cert::CertificateAuthority(cert::DeviceId::from_string("fleet-ca"), boot);
}

/// --listen mode: a bare socket server. Terminates every handshake, opens
/// every record, retransmits on its own wall-clock timers, and reports what
/// the fleet did to it when the clock runs out.
int run_socket_server(bool tcp, std::uint16_t port, std::size_t workers, int serve_seconds) {
  cert::CertificateAuthority ca = shared_ca();
  rng::TestRng server_rng(kSharedCaSeed + 1);
  const proto::Credentials creds = proto::provision_device(
      ca, cert::DeviceId::from_string(kBackendId), kNow, kDay, server_rng);

  std::unique_ptr<net::FdTransport> transport;
  if (tcp) {
    auto opened = net::TcpStreamTransport::listen({.port = port, .concurrent = workers > 0});
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot listen on tcp %u: %s\n", port, error_name(opened.error()));
      return 1;
    }
    transport = std::move(opened).value();
  } else {
    auto opened = net::UdpTransport::open({.port = port, .concurrent = workers > 0});
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot bind udp %u: %s\n", port, error_name(opened.error()));
      return 1;
    }
    transport = std::move(opened).value();
  }
  std::printf("%s server %s on 127.0.0.1:%u (%zu workers), serving %d s\n",
              tcp ? "tcp" : "udp", creds.id.to_string().c_str(), port, workers,
              serve_seconds);

  proto::ConcurrentSessionBroker::Config config;
  config.workers = workers;
  config.broker.store.capacity = 1 << 18;
  config.broker.store.shards = 64;
  config.broker.store.policy = proto::RekeyPolicy{4, /*max_age_seconds=*/0xffffffff};
  config.broker.reliability.enabled = true;
  StatCounter records;
  config.broker.on_data = [&records](const cert::DeviceId&, Bytes) { ++records; };
  proto::ConcurrentSessionBroker server(creds, rng::SystemRng::instance(), *transport, config);
  net::BrokerDriver driver(server, *transport);

  const double end_ms = net::FdTransport::steady_now_ms() + serve_seconds * 1000.0;
  double next_report_ms = net::FdTransport::steady_now_ms() + 2000.0;
  while (net::FdTransport::steady_now_ms() < end_ms) {
    if (!driver.step(kNow).ok()) break;
    if (net::FdTransport::steady_now_ms() >= next_report_ms) {
      next_report_ms += 2000.0;
      std::printf("  sessions=%zu handshakes=%llu records=%llu retransmits=%llu\n",
                  server.broker().store().active_sessions(),
                  static_cast<unsigned long long>(
                      server.broker().stats().handshakes_completed.load()),
                  static_cast<unsigned long long>(records.load()),
                  static_cast<unsigned long long>(server.broker().stats().retransmits.load()));
    }
  }
  const auto& wire = transport->wire_stats();
  std::printf("served: %llu handshakes, %zu resident sessions, %llu records opened, "
              "%llu rekeys applied\n",
              static_cast<unsigned long long>(
                  server.broker().stats().handshakes_completed.load()),
              server.broker().store().active_sessions(),
              static_cast<unsigned long long>(records.load()),
              static_cast<unsigned long long>(
                  server.broker().store().stats().ratchet_signals_applied.load()));
  std::printf("wire: %llu datagrams in / %llu out, %llu bytes in / %llu out, "
              "%llu decode errors\n",
              static_cast<unsigned long long>(wire.datagrams_received.load()),
              static_cast<unsigned long long>(wire.datagrams_sent.load()),
              static_cast<unsigned long long>(wire.bytes_received.load()),
              static_cast<unsigned long long>(wire.bytes_sent.load()),
              static_cast<unsigned long long>(wire.decode_errors.load()));
  return 0;
}

/// --connect mode: a client fleet against a --listen server. Every vehicle
/// handshakes, streams four records (piggyback-rekeying past the budget)
/// and reports.
int run_socket_fleet(bool tcp, std::uint16_t port, std::size_t fleet_size) {
  cert::CertificateAuthority ca = shared_ca();
  const cert::DeviceId server_id = cert::DeviceId::from_string(kBackendId);

  std::unique_ptr<net::FdTransport> transport;
  net::UdpTransport* udp = nullptr;
  if (tcp) {
    auto opened = net::TcpStreamTransport::connect_to({.port = port});
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot connect tcp %u: %s\n", port, error_name(opened.error()));
      return 1;
    }
    transport = std::move(opened).value();
  } else {
    auto opened = net::UdpTransport::open({});
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open udp socket: %s\n", error_name(opened.error()));
      return 1;
    }
    udp = opened->get();
    transport = std::move(opened).value();
    udp->add_route(server_id, port);
  }
  std::printf("%s fleet of %zu vehicles -> 127.0.0.1:%u\n", tcp ? "tcp" : "udp", fleet_size,
              port);

  struct Vehicle {
    std::unique_ptr<proto::Credentials> creds;
    std::unique_ptr<proto::SessionBroker> broker;
    std::size_t sent = 0;
    bool done = false;
  };
  proto::BrokerConfig config;
  config.store.capacity = 4;
  config.store.policy = proto::RekeyPolicy{2, /*max_age_seconds=*/0xffffffff};
  config.reliability.enabled = true;
  rng::TestRng provision_rng(kSharedCaSeed + 3);
  std::vector<Vehicle> fleet(fleet_size);
  for (std::size_t i = 0; i < fleet_size; ++i) {
    Vehicle& v = fleet[i];
    v.creds = std::make_unique<proto::Credentials>(proto::provision_device(
        ca, cert::DeviceId::from_string("vehicle-" + std::to_string(i)), kNow, kDay,
        provision_rng));
    v.broker =
        std::make_unique<proto::SessionBroker>(*v.creds, rng::SystemRng::instance(), config);
    v.broker->bind_clock(transport.get());
    transport->attach(v.creds->id);
    auto first = v.broker->connect(server_id, kNow);
    if (!first.ok()) return 1;
    (void)transport->send(v.creds->id, server_id, std::move(first).value());
  }

  constexpr std::size_t kRecords = 4;
  std::size_t done = 0;
  const double deadline = net::FdTransport::steady_now_ms() + 30000.0;
  while (done < fleet_size && net::FdTransport::steady_now_ms() < deadline) {
    transport->service();
    for (Vehicle& v : fleet) {
      if (v.done) continue;
      proto::SessionBroker& broker = *v.broker;
      for (proto::SessionBroker::Outbound& out :
           broker.poll_retransmits(transport->now_ms(), kNow))
        (void)transport->send(broker.id(), out.peer, std::move(out.message));
      while (auto datagram = transport->receive(broker.id())) {
        auto reply = broker.on_message(datagram->src, datagram->message, kNow);
        if (reply.ok() && reply->has_value())
          (void)transport->send(broker.id(), datagram->src, **reply);
      }
      if (v.sent < kRecords && broker.session_ready(server_id, kNow)) {
        while (v.sent < kRecords) {
          auto record = broker.make_data(server_id, bytes_of("soc=74% t=21C"), kNow);
          if (!record.ok()) break;
          (void)transport->send(broker.id(), server_id, std::move(record).value());
          ++v.sent;
        }
        v.done = true;
        ++done;
      }
    }
    ::usleep(500);
  }
  std::size_t retransmits = 0;
  for (const Vehicle& v : fleet) retransmits += v.broker->stats().retransmits.load();
  std::printf("fleet: %zu/%zu vehicles established + streamed %zu records each "
              "(%zu retransmits, %llu wire datagrams sent)\n",
              done, fleet_size, kRecords, retransmits,
              static_cast<unsigned long long>(
                  transport->wire_stats().datagrams_sent.load()));
  return done == fleet_size ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool use_canfd = false;
  bool use_udp = false;
  bool use_tcp = false;
  std::size_t workers = 0;
  double loss = 0.15;
  int listen_port = -1;
  int connect_port = -1;
  std::size_t fleet_size = 32;
  int serve_seconds = 30;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      use_canfd = std::strcmp(name, "canfd") == 0;
      use_udp = std::strcmp(name, "udp") == 0;
      use_tcp = std::strcmp(name, "tcp") == 0;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--loss") == 0 && i + 1 < argc) {
      loss = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_port = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_port = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--fleet") == 0 && i + 1 < argc) {
      fleet_size = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_seconds = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--transport ideal|canfd|udp|tcp] [--workers N] [--loss P]\n"
                   "          [--listen PORT [--serve S]] [--connect PORT [--fleet N]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (listen_port >= 0 || connect_port >= 0) {
    if (!use_udp && !use_tcp) {
      std::fprintf(stderr, "--listen/--connect need --transport udp or tcp\n");
      return 2;
    }
    if (listen_port >= 0)
      return run_socket_server(use_tcp, static_cast<std::uint16_t>(listen_port), workers,
                               serve_seconds);
    return run_socket_fleet(use_tcp, static_cast<std::uint16_t>(connect_port), fleet_size);
  }

  std::printf("ECQV fleet session server (broker + sharded store + ratchet)\n");
  std::printf("============================================================\n\n");

  // --- 1. enrollment + cache prewarm --------------------------------------
  constexpr std::size_t kFleetSize = 200;
  constexpr std::size_t kServerCapacity = 64;  // deliberately < fleet size
  rng::TestRng ca_rng(1);
  cert::CertificateAuthority ca(cert::DeviceId::from_string("fleet-ca"), ca_rng);

  rng::TestRng enroll_rng(2);
  std::vector<proto::Credentials> fleet;
  std::vector<cert::Certificate> certs;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    fleet.push_back(proto::provision_device(
        ca, cert::DeviceId::from_string("vehicle-" + std::to_string(i)), kNow, kDay,
        enroll_rng));
    certs.push_back(fleet.back().certificate);
  }
  rng::TestRng server_rng(3);
  proto::Credentials server_creds =
      proto::provision_device(ca, cert::DeviceId::from_string("backend"), kNow, kDay, server_rng);

  proto::BrokerConfig server_config;
  server_config.store.capacity = kServerCapacity;
  server_config.store.shards = 8;
  server_config.store.policy = proto::RekeyPolicy{4, 3600};  // tiny record budget
  server_config.store.max_epochs = 2;
  server_config.max_pending = kFleetSize;
  proto::SessionBroker server(server_creds, server_rng, server_config);

  const std::size_t prewarmed = server.peer_cache().prewarm(certs, ca.public_key());
  std::printf("enrolled %zu vehicles; prewarmed %zu verification tables\n"
              "(batch extraction + batch table build: one shared field inversion each)\n\n",
              kFleetSize, prewarmed);

  // --- 2. interleaved handshakes ------------------------------------------
  proto::BrokerConfig client_config;
  client_config.store.capacity = 2;
  client_config.store.policy = server_config.store.policy;
  client_config.store.max_epochs = server_config.store.max_epochs;
  std::vector<std::unique_ptr<rng::TestRng>> client_rngs;
  std::vector<std::unique_ptr<proto::SessionBroker>> clients;
  std::size_t established = 0;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    client_rngs.push_back(std::make_unique<rng::TestRng>(1000 + i));
    clients.push_back(
        std::make_unique<proto::SessionBroker>(fleet[i], *client_rngs[i], client_config));
    if (handshake(*clients[i], server, fleet[i].id, server_creds.id, kNow)) ++established;
  }
  std::printf("%zu/%zu STS handshakes terminated by one broker\n", established, kFleetSize);
  std::printf("server sessions resident: %zu (capacity %zu, LRU evictions: %llu)\n",
              server.store().active_sessions(), kServerCapacity,
              static_cast<unsigned long long>(server.store().stats().capacity_evictions));
  std::printf("peer-cache hits so far: %llu (handshake verifies reused cached tables)\n\n",
              static_cast<unsigned long long>(server.peer_cache().stats().hits));

  // --- 3. steady-state telemetry -------------------------------------------
  std::size_t delivered = 0, rejected = 0;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    auto record = clients[i]->seal(server_creds.id, bytes_of("soc=81% t=23C"), kNow + 1);
    if (!record.ok()) continue;
    auto opened = server.open(fleet[i].id, record.value(), kNow + 1);
    if (opened.ok())
      ++delivered;
    else
      ++rejected;  // LRU-evicted peer: would re-handshake via refresh()
  }
  std::printf("telemetry: %zu records delivered, %zu rejected (evicted peers re-handshake)\n\n",
              delivered, rejected);

  // --- 4. the rekey ladder --------------------------------------------------
  const cert::DeviceId vehicle = fleet[kFleetSize - 1].id;  // still resident
  proto::SessionBroker& client = *clients[kFleetSize - 1];
  std::printf("rekey ladder for %s (record budget 4, max 2 epochs):\n",
              vehicle.to_string().c_str());
  for (int round = 0; round < 3; ++round) {
    // Spend the epoch's record budget.
    std::size_t sent = 0;
    for (;; ++sent) {
      auto record = client.seal(server_creds.id, bytes_of("burst"), kNow + 2);
      if (!record.ok()) break;
      if (!server.open(vehicle, record.value(), kNow + 2).ok()) break;
    }
    auto refresh = client.refresh(server_creds.id, kNow + 2);
    if (!refresh.ok()) {
      std::printf("  refresh failed: %s\n", error_name(refresh.error()));
      break;
    }
    if (refresh->step == "RK1") {
      // Cheap path: deliver the ratchet announcement to the server.
      const bool applied = server.on_message(vehicle, refresh.value(), kNow + 2).ok();
      std::printf("  epoch %u: %zu records, then RK1 ratchet (%s) — a few HMACs, no EC\n",
                  client.store().epoch(server_creds.id).value_or(0), sent,
                  applied ? "applied" : "rejected");
    } else {
      // Escalation: the epoch budget is spent; a fresh STS handshake runs.
      const std::string step = refresh->step;
      (void)proto::SessionBroker::pump(client, server, std::move(refresh), kNow + 2);
      std::printf("  epoch budget spent after %zu records -> full STS rekey (step %s, "
                  "4 messages, fresh ephemerals)\n",
                  sent, step.c_str());
    }
  }
  std::printf("\nbroker stats: %llu handshakes completed, %llu ratchets sent, %llu received, "
              "%llu full rekeys\n",
              static_cast<unsigned long long>(server.stats().handshakes_completed),
              static_cast<unsigned long long>(client.stats().ratchets_sent),
              static_cast<unsigned long long>(server.stats().ratchets_received),
              static_cast<unsigned long long>(client.stats().full_rekeys));

  // --- 4b. piggybacked rekeying (streaming) --------------------------------
  // When telemetry is flowing, the ratchet needs no RK1 round at all: the
  // record that spends the epoch's budget carries the authenticated epoch
  // signal inside its own header (make_data's DataRekey::kAuto default),
  // and the peer's next record is the implicit ack.
  const cert::DeviceId streamer = fleet[kFleetSize - 2].id;  // still resident
  proto::SessionBroker& stream_client = *clients[kFleetSize - 2];
  std::printf("\npiggybacked rekeying for %s (streaming 8 records, budget 4/epoch):\n",
              streamer.to_string().c_str());
  std::size_t streamed = 0;
  for (int i = 0; i < 8; ++i) {
    auto message = stream_client.make_data(server_creds.id, bytes_of("stream"), kNow + 2);
    if (!message.ok() || !server.on_message(streamer, message.value(), kNow + 2).ok()) break;
    ++streamed;
  }
  std::printf("  %zu DT1 records delivered, epoch now %u/%u — %llu epoch signals rode the "
              "data plane, %llu standalone RK1s sent\n",
              streamed, stream_client.store().epoch(server_creds.id).value_or(0),
              server.store().epoch(streamer).value_or(0),
              static_cast<unsigned long long>(stream_client.stats().piggyback_sent),
              static_cast<unsigned long long>(stream_client.stats().ratchets_sent));

  std::printf("dead-session sweeps reclaim expired state in bulk: swept %zu\n",
              server.sweep(kNow + 2 * kDay));

  // --- 5. the transport fabric ---------------------------------------------
  // The same workload through a pluggable transport: every message rides a
  // real link object (ideal in-memory, or the full Fig. 6 CAN-FD stack)
  // and the server terminates handshakes on a worker pool.
  constexpr std::size_t kTransportFleet = 40;
  std::printf("\ntransport fabric: %zu vehicles over the %s link, %zu worker(s)\n",
              kTransportFleet, use_canfd ? "CAN-FD" : "ideal", workers);

  std::unique_ptr<proto::Transport> link;
  can::CanFdTransport* canfd = nullptr;
  if (use_canfd) {
    can::CanFdTransport::Config link_config;
    link_config.concurrent = workers > 0;
    auto owned = std::make_unique<can::CanFdTransport>(std::move(link_config));
    canfd = owned.get();
    link = std::move(owned);
  } else {
    link = std::make_unique<proto::IdealLinkTransport>(/*concurrent=*/workers > 0);
  }

  rng::TestRng fabric_rng(4);
  proto::ConcurrentSessionBroker::Config fabric_config;
  fabric_config.workers = workers;
  fabric_config.broker.store.capacity = kTransportFleet;
  fabric_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  fabric_config.broker.max_pending = kTransportFleet;
  std::atomic<std::size_t> telemetry_in{0};  // bumped from worker threads
  fabric_config.broker.on_data = [&](const cert::DeviceId&, Bytes) { ++telemetry_in; };
  proto::ConcurrentSessionBroker fabric_server(server_creds, fabric_rng, *link, fabric_config);

  std::vector<std::unique_ptr<rng::TestRng>> fabric_rngs;
  std::vector<std::unique_ptr<proto::ConcurrentSessionBroker>> vehicles;
  std::vector<proto::ConcurrentSessionBroker*> endpoints{&fabric_server};
  for (std::size_t i = 0; i < kTransportFleet; ++i) {
    fabric_rngs.push_back(std::make_unique<rng::TestRng>(5000 + i));
    vehicles.push_back(std::make_unique<proto::ConcurrentSessionBroker>(
        fleet[i], *fabric_rngs.back(), *link,
        proto::ConcurrentSessionBroker::Config{client_config, 0}));
    endpoints.push_back(vehicles.back().get());
  }
  for (auto& vehicle : vehicles) (void)vehicle->connect(server_creds.id, kNow);
  proto::settle(endpoints, kNow);
  for (auto& vehicle : vehicles)
    (void)vehicle->send_data(server_creds.id, bytes_of("soc=74% t=21C"), kNow);
  proto::settle(endpoints, kNow);

  std::printf("fabric: %llu handshakes terminated, %zu telemetry records delivered\n",
              static_cast<unsigned long long>(
                  fabric_server.broker().stats().handshakes_completed),
              telemetry_in.load());
  if (canfd != nullptr) {
    const auto& s = canfd->stats();
    std::printf("CAN-FD wire: %llu frames (+%llu flow control), %llu wire bytes for %llu "
                "payload bytes (%.2fx overhead), bus busy %.1f ms\n",
                static_cast<unsigned long long>(s.frames_sent),
                static_cast<unsigned long long>(s.flow_controls),
                static_cast<unsigned long long>(s.wire_bytes),
                static_cast<unsigned long long>(s.payload_bytes),
                static_cast<double>(s.wire_bytes) / static_cast<double>(s.payload_bytes),
                canfd->bus_time_ms());
  }

  // --- 6. graceful degradation on a lossy link ------------------------------
  // The same fabric, but every datagram now runs a gauntlet: the injected
  // loss model drops, duplicates and reorders traffic on a seeded stream.
  // The reliability engine (virtual-time retransmission timers, duplicate
  // absorption, replay afterlife) still carries every vehicle to an
  // established session, and the casualty report below accounts for the
  // storm end to end: what the wire did, what the engine recovered, and
  // what the timeline recorder witnessed.
  constexpr std::size_t kLossyFleet = 40;
  std::printf("\nlossy fabric: %zu vehicles at %.0f%% drop (+5%% duplicate, +5%% reorder)\n",
              kLossyFleet, loss * 100.0);

  proto::IdealLinkTransport lossy_inner(/*concurrent=*/workers > 0);
  can::TimelineRecorder casualties;
  proto::FaultyTransport::Config loss_model;
  loss_model.seed = 20230417;
  loss_model.p_drop = loss;
  loss_model.p_duplicate = 0.05;
  loss_model.p_reorder = 0.05;
  loss_model.concurrent = workers > 0;
  loss_model.recorder = &casualties;
  proto::FaultyTransport lossy_link(lossy_inner, std::move(loss_model));

  rng::TestRng lossy_rng(6);
  proto::ConcurrentSessionBroker::Config lossy_config;
  lossy_config.workers = workers;
  lossy_config.broker.store.capacity = kLossyFleet;
  lossy_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  lossy_config.broker.max_pending = kLossyFleet;
  lossy_config.broker.reliability.enabled = true;
  std::atomic<std::size_t> survivor_records{0};
  lossy_config.broker.on_data = [&](const cert::DeviceId&, Bytes) { ++survivor_records; };
  proto::ConcurrentSessionBroker lossy_server(server_creds, lossy_rng, lossy_link, lossy_config);

  proto::BrokerConfig lossy_client_config = client_config;
  lossy_client_config.store.policy = proto::RekeyPolicy::unlimited();
  lossy_client_config.reliability.enabled = true;
  std::vector<std::unique_ptr<rng::TestRng>> lossy_rngs;
  std::vector<std::unique_ptr<proto::ConcurrentSessionBroker>> survivors;
  std::vector<proto::ConcurrentSessionBroker*> lossy_endpoints{&lossy_server};
  for (std::size_t i = 0; i < kLossyFleet; ++i) {
    lossy_rngs.push_back(std::make_unique<rng::TestRng>(7000 + i));
    survivors.push_back(std::make_unique<proto::ConcurrentSessionBroker>(
        fleet[i], *lossy_rngs.back(), lossy_link,
        proto::ConcurrentSessionBroker::Config{lossy_client_config, 0}));
    lossy_endpoints.push_back(survivors.back().get());
  }
  for (auto& vehicle : survivors) (void)vehicle->connect(server_creds.id, kNow);
  proto::settle_lossy(lossy_endpoints, lossy_link, kNow);

  std::size_t lossy_ready = 0, recovery_retransmits = 0;
  for (auto& vehicle : survivors) {
    if (vehicle->broker().session_ready(server_creds.id, kNow)) ++lossy_ready;
    recovery_retransmits += vehicle->broker().stats().retransmits;
  }
  // Telemetry still flows through the (still lossy) link — records that die
  // are the data plane's casualties; sessions stay healthy regardless.
  for (auto& vehicle : survivors)
    (void)vehicle->send_data(server_creds.id, bytes_of("soc=68% t=19C"), kNow);
  proto::settle_lossy(lossy_endpoints, lossy_link, kNow);

  const proto::FaultyTransport::Stats wire = lossy_link.stats();
  const proto::SessionBroker::Stats& srv = lossy_server.broker().stats();
  const can::TimelineRecorder::Summary seen = casualties.summary();
  std::printf("established: %zu/%zu sessions through the storm\n", lossy_ready, kLossyFleet);
  std::printf("wire casualties: %llu sent -> %llu dropped, %llu duplicated, %llu reordered, "
              "%llu forwarded\n",
              static_cast<unsigned long long>(wire.sent),
              static_cast<unsigned long long>(wire.dropped),
              static_cast<unsigned long long>(wire.duplicated),
              static_cast<unsigned long long>(wire.reordered),
              static_cast<unsigned long long>(wire.forwarded));
  std::printf("recovery: %zu client retransmits, %llu duplicates absorbed, %llu stale "
              "ignored, %llu aborted, %llu dead peers\n",
              recovery_retransmits,
              static_cast<unsigned long long>(srv.duplicates_ignored),
              static_cast<unsigned long long>(srv.stale_ignored),
              static_cast<unsigned long long>(srv.handshakes_aborted),
              static_cast<unsigned long long>(srv.dead_peers));
  std::printf("timeline: %zu drops + %zu other faults witnessed over %.1f virtual ms; "
              "%zu/%zu telemetry records survived the data plane\n",
              seen.drops, seen.faults, seen.end_ms, survivor_records.load(), kLossyFleet);

  // --- 7. the real data plane ------------------------------------------------
  // The same workload once more, but nothing is simulated: handshakes,
  // sealed records and mid-stream piggyback rekeys ride kernel sockets on
  // loopback, the server blocks in epoll between events, and the
  // reliability engine runs on the actual wall clock.
  if (use_udp || use_tcp) {
    net::SoakConfig soak;
    soak.sessions = 500;
    soak.wave = 128;
    soak.records_per_session = 4;
    soak.records_budget = 2;
    soak.server_workers = workers;
    soak.tcp = use_tcp;
    std::printf("\nreal sockets: %zu sessions over kernel %s on loopback, %zu worker(s)\n",
                soak.sessions, use_tcp ? "TCP streams" : "UDP datagrams", workers);
    auto report = net::run_loopback_soak(soak);
    if (!report.ok()) {
      std::fprintf(stderr, "socket soak failed: %s\n", error_name(report.error()));
      return 1;
    }
    std::printf("sockets: %zu handshakes -> %zu concurrent sessions in %.0f ms "
                "(%.0f sessions/s)\n",
                report->handshakes, report->server_sessions, report->elapsed_ms,
                report->handshakes * 1000.0 / report->elapsed_ms);
    std::printf("traffic: %zu records opened, %zu piggybacked rekeys, %zu retransmits, "
                "%llu datagrams / %llu wire bytes at the server, %llu kernel drops\n",
                report->records, report->rekeys, report->retransmits,
                static_cast<unsigned long long>(report->wire_datagrams),
                static_cast<unsigned long long>(report->wire_bytes),
                static_cast<unsigned long long>(report->send_drops));
  }
  return 0;
}
