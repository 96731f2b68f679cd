// The benchmark's only door into the library.
//
// Every call the benchmark makes into src/ goes through this header, and
// no other benchmark file includes a library header. The library's clock
// (the frozen `now` seconds its broker and store APIs take) and its drive
// loop (net::BrokerDriver) are both used here and nowhere else, so a change
// to either touches this file and adapter.cpp only.
//
// Three roles:
//   * Fleet      — a seeded certificate authority, the server's credentials
//                  and N pre-provisioned client devices (set-up work).
//   * Server     — the system under test: SessionBroker behind
//                  ConcurrentSessionBroker{workers = 0} on a UDP socket. step() is one BrokerDriver::step, the path
//                  `fleet_session_server --listen` runs; the other members
//                  expose the same public calls one at a time so a traced
//                  loop can time each of them.
//   * ClientLink — one load-generator UDP socket carrying any number of
//                  client devices, each a SessionBroker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace perfbench {

/// Fabric step of one inbound message, as the server sees it.
enum class Step : std::uint8_t { kA1, kA2, kDT1, kOther };

/// Primitive operations counted by the library's CountScope.
struct CryptoOps {
  std::uint64_t ec_mul = 0;  // base, variable, dual and cached-dual scalar mults
  std::uint64_t fp_mul = 0;  // Montgomery field/scalar multiplications
  std::uint64_t sha256_blocks = 0;
  std::uint64_t aes_blocks = 0;
};

/// RAII: counts the primitive operations run on this thread while alive.
/// Scopes nest; an inner scope's tally also reaches the outer one.
class CryptoCounter {
 public:
  CryptoCounter();
  ~CryptoCounter();
  CryptoCounter(const CryptoCounter&) = delete;
  CryptoCounter& operator=(const CryptoCounter&) = delete;

  [[nodiscard]] CryptoOps ops() const;

 private:
  alignas(8) unsigned char scope_[128];  // an ecqv::CountScope, built in place
};

class Fleet {
 public:
  /// Provisions the server and `devices` client devices from `seed`.
  Fleet(std::uint64_t seed, std::size_t devices);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  struct Impl;
  [[nodiscard]] const Impl& impl() const { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Session policy shared by the server and its clients.
struct Policy {
  std::uint64_t records_per_epoch = 1024;  // piggybacked ratchet cadence
  std::uint32_t max_epochs = 8;            // ratchets before a full re-handshake
};

struct ServerOptions {
  Policy policy{};
  std::size_t store_capacity = 4096;
  std::size_t peer_cache_capacity = 4096;
  std::uint64_t seed = 0;
  /// Receives every opened record: (client device index, plaintext).
  std::function<void(std::uint32_t, const std::uint8_t*, std::size_t)> on_data;
};

/// A snapshot of the server's library counters.
struct ServerCounters {
  std::uint64_t handshakes_failed = 0;
  std::uint64_t handshakes_aborted = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_ignored = 0;
  std::uint64_t store_installs = 0;
  std::uint64_t store_opens = 0;
  std::uint64_t store_ratchet_signals_applied = 0;
  std::uint64_t store_capacity_evictions = 0;
  std::uint64_t store_epoch_rejects = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t wire_bytes = 0;  // socket bytes, both directions
  std::uint64_t send_drops = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t errors = 0;  // rejected messages and failed reply sends
};

class Server {
 public:
  Server(const Fleet& fleet, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const;

  /// One BrokerDriver::step. False on a driver error.
  bool step();

  // ---- the calls step() makes, one at a time ---------------------------
  /// Declares fd interest; returns the epoll timeout step() would use.
  int prepare_wait();
  /// EventLoop::wait; the number of ready fds, or -1 on error.
  int wait(int timeout_ms);
  /// FdTransport::service; the number of datagrams decoded.
  std::size_t service();

  struct Inbound {
    std::uint32_t device = 0;  // client device index
    Step step = Step::kOther;
    std::uint64_t seq = 0;  // record sequence number (DT1 only)
  };
  /// Transport::receive of one datagram, held for on_message().
  bool receive(Inbound& out);
  /// SessionBroker::on_message on the held datagram. True when it produced
  /// a reply, held for send_reply().
  bool on_message();
  /// Transport::send of the held reply.
  bool send_reply();
  /// SessionBroker::poll_retransmits; the number of messages due.
  std::size_t poll_retransmits();
  /// Transport::send of the i-th message poll_retransmits() returned.
  bool send_retransmit(std::size_t i);
  /// Drops fds the transport closed from the event loop's interest set.
  void finish_step();

  [[nodiscard]] ServerCounters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class ClientLink {
 public:
  ClientLink(const Fleet& fleet, std::uint16_t server_port, Policy policy);
  ~ClientLink();
  ClientLink(const ClientLink&) = delete;
  ClientLink& operator=(const ClientLink&) = delete;

  /// A fresh client for fleet device `device` (no session state); returns
  /// its slot.
  std::size_t open_client(std::uint32_t device, std::uint64_t rng_seed);
  /// Retires the client; its key material is wiped.
  void close_client(std::size_t slot);

  /// Sends the client's A1. False on failure.
  bool connect(std::size_t slot);

  struct Pump {
    bool ready = false;  // the client holds an established session
    bool error = false;  // a message was rejected or a send failed
    std::uint32_t messages = 0;
    std::uint64_t on_message_ns = 0;  // time inside the client's on_message
  };
  /// Runs the client's retransmission timers and handles every datagram
  /// waiting for it.
  Pump pump(std::size_t slot);

  /// Seals `len` bytes for the server (piggybacking the epoch ratchet when
  /// the record spends the budget) and sends them. Returns the sealed
  /// record's size, 0 on failure.
  std::size_t send_record(std::size_t slot, const std::uint8_t* data, std::size_t len);

  /// Blocks up to `timeout_ms` for the link socket to become ready.
  void wait(int timeout_ms);

  [[nodiscard]] std::uint64_t send_drops() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
