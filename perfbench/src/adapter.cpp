#include "adapter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/concurrent_broker.hpp"
#include "core/credentials.hpp"
#include "net/event_loop.hpp"
#include "net/udp_transport.hpp"
#include "rng/test_rng.hpp"

namespace perfbench {

namespace {

using ecqv::cert::DeviceId;

// The library's session clock: broker and store calls take unix seconds.
// The benchmark runs far inside every certificate's validity window and
// never lets sessions age out, so one frozen instant serves every call.
constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kLifetime = 7 * 86400;

// Client devices are named "pb" + 8 hex digits of their fleet index, so the
// server side maps a peer id back to its index without a lookup table.
DeviceId device_id(std::uint32_t index) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string name = "pb";
  for (int shift = 28; shift >= 0; shift -= 4) name.push_back(kHex[(index >> shift) & 0xf]);
  return DeviceId::from_string(name);
}

std::uint32_t device_index(const DeviceId& id) {
  std::uint32_t index = 0;
  for (std::size_t i = 2; i < 10; ++i) {
    const std::uint8_t c = id.bytes[i];
    index = (index << 4) | static_cast<std::uint32_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return index;
}

Step step_of(const std::string& step) {
  if (step == ecqv::proto::kDataStepLabel) return Step::kDT1;
  if (step == "A1") return Step::kA1;
  if (step == "A2") return Step::kA2;
  return Step::kOther;
}

ecqv::CountScope& scope_at(unsigned char* storage) {
  return *std::launder(reinterpret_cast<ecqv::CountScope*>(storage));
}

ecqv::proto::RekeyPolicy rekey_policy(const Policy& policy) {
  return ecqv::proto::RekeyPolicy{policy.records_per_epoch, /*max_age_seconds=*/UINT64_MAX};
}

}  // namespace

// ------------------------------------------------------------ CryptoCounter

static_assert(sizeof(ecqv::CountScope) <= 128 && alignof(ecqv::CountScope) <= 8);

CryptoCounter::CryptoCounter() { new (scope_) ecqv::CountScope(); }

CryptoCounter::~CryptoCounter() { scope_at(scope_).~CountScope(); }

CryptoOps CryptoCounter::ops() const {
  const ecqv::OpCounts& c =
      std::launder(reinterpret_cast<const ecqv::CountScope*>(scope_))->counts();
  using ecqv::Op;
  CryptoOps out;
  out.ec_mul = c[Op::kEcMulBase] + c[Op::kEcMulVar] + c[Op::kEcMulDual] +
               c[Op::kEcMulDualCached];
  out.fp_mul = c[Op::kFpMul];
  out.sha256_blocks = c[Op::kSha256Block];
  out.aes_blocks = c[Op::kAesBlock];
  return out;
}

// -------------------------------------------------------------------- Fleet

struct Fleet::Impl {
  std::unique_ptr<ecqv::cert::CertificateAuthority> ca;
  ecqv::proto::Credentials server;
  std::vector<ecqv::proto::Credentials> devices;
};

Fleet::Fleet(std::uint64_t seed, std::size_t devices) : impl_(std::make_unique<Impl>()) {
  ecqv::rng::TestRng rng(seed);
  impl_->ca = std::make_unique<ecqv::cert::CertificateAuthority>(
      DeviceId::from_string("pb-ca"), ecqv::ec::Curve::p256().random_scalar(rng));
  impl_->server = ecqv::proto::provision_device(*impl_->ca, DeviceId::from_string("pb-server"),
                                                kNow, kLifetime, rng);
  impl_->devices.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i)
    impl_->devices.push_back(ecqv::proto::provision_device(
        *impl_->ca, device_id(static_cast<std::uint32_t>(i)), kNow, kLifetime, rng));
}

Fleet::~Fleet() = default;

// ------------------------------------------------------------------- Server

struct Server::Impl {
  std::unique_ptr<ecqv::net::FdTransport> transport;
  std::uint16_t port = 0;
  const Fleet::Impl* fleet = nullptr;
  std::unique_ptr<ecqv::rng::TestRng> rng;
  std::unique_ptr<ecqv::proto::ConcurrentSessionBroker> broker;
  std::unique_ptr<ecqv::net::BrokerDriver> driver;

  // The traced loop's own event loop and per-step state.
  ecqv::net::EventLoop loop;
  std::vector<int> fds;
  std::optional<ecqv::proto::Datagram> held;
  std::optional<ecqv::proto::Message> reply;
  std::vector<ecqv::proto::SessionBroker::Outbound> outbound;
  std::uint64_t call_errors = 0;

  ecqv::proto::SessionBroker& sb() { return broker->broker(); }
};

Server::Server(const Fleet& fleet, ServerOptions options) : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  s.fleet = &fleet.impl();
  auto opened = ecqv::net::UdpTransport::open({.port = 0});
  if (!opened.ok()) throw std::runtime_error("cannot bind udp");
  s.port = (*opened)->port();
  s.transport = std::move(opened).value();
  // The configuration `fleet_session_server --listen` uses, with the
  // workload's capacities and record budget.
  ecqv::proto::ConcurrentSessionBroker::Config config;
  config.workers = 0;
  config.broker.store.capacity = options.store_capacity;
  config.broker.store.shards = 64;
  config.broker.store.policy = rekey_policy(options.policy);
  config.broker.store.max_epochs = options.policy.max_epochs;
  config.broker.peer_cache_capacity = options.peer_cache_capacity;
  config.broker.reliability.enabled = true;
  config.broker.on_data = [sink = std::move(options.on_data)](const DeviceId& peer,
                                                              ecqv::Bytes plaintext) {
    if (sink) sink(device_index(peer), plaintext.data(), plaintext.size());
  };
  s.rng = std::make_unique<ecqv::rng::TestRng>(options.seed);
  s.broker = std::make_unique<ecqv::proto::ConcurrentSessionBroker>(s.fleet->server, *s.rng,
                                                                     *s.transport, config);
  s.driver = std::make_unique<ecqv::net::BrokerDriver>(*s.broker, *s.transport);
}

Server::~Server() = default;

std::uint16_t Server::port() const { return impl_->port; }

bool Server::step() { return impl_->driver->step(kNow).ok(); }

int Server::prepare_wait() {
  Impl& s = *impl_;
  s.fds = s.transport->poll_fds();
  for (const int fd : s.fds)
    if (!s.loop.watch(fd, s.transport->wants_write(fd)).ok()) return 0;
  int timeout_ms = ecqv::net::BrokerDriver::Config{}.max_wait_ms;
  if (const auto due = s.sb().next_retransmit_due_ms(); due.has_value()) {
    const double wait = *due - s.transport->now_ms();
    timeout_ms =
        std::clamp(static_cast<int>(std::ceil(std::max(wait, 0.0))), 0, timeout_ms);
  }
  return timeout_ms;
}

int Server::wait(int timeout_ms) {
  auto events = impl_->loop.wait(timeout_ms);
  if (!events.ok()) return -1;
  for (const auto& event : *events)
    if (event.error) impl_->loop.unwatch(event.fd);
  return static_cast<int>(events->size());
}

std::size_t Server::service() { return impl_->transport->service(); }

bool Server::receive(Inbound& out) {
  Impl& s = *impl_;
  s.held = s.transport->receive(s.sb().id());
  if (!s.held.has_value()) return false;
  out.device = device_index(s.held->src);
  out.step = step_of(s.held->message.step);
  out.seq = 0;
  // Legacy v2 record header: epoch(4) || flags(1) || seq(8, BE).
  const ecqv::Bytes& payload = s.held->message.payload;
  if (out.step == Step::kDT1 && payload.size() >= 13)
    out.seq = ecqv::load_be64(ecqv::ByteView(payload).subspan(5, 8));
  return true;
}

bool Server::on_message() {
  Impl& s = *impl_;
  s.reply.reset();
  auto reply = s.sb().on_message(s.held->src, s.held->message, kNow);
  if (!reply.ok()) {
    ++s.call_errors;
    return false;
  }
  s.reply = std::move(reply).value();
  return s.reply.has_value();
}

bool Server::send_reply() {
  Impl& s = *impl_;
  const bool sent = s.transport->send(s.sb().id(), s.held->src, *s.reply).ok();
  if (!sent) ++s.call_errors;
  return sent;
}

std::size_t Server::poll_retransmits() {
  Impl& s = *impl_;
  s.outbound = s.sb().poll_retransmits(s.transport->now_ms(), kNow);
  return s.outbound.size();
}

bool Server::send_retransmit(std::size_t i) {
  Impl& s = *impl_;
  const bool sent =
      s.transport->send(s.sb().id(), s.outbound[i].peer, s.outbound[i].message).ok();
  if (!sent) ++s.call_errors;
  return sent;
}

void Server::finish_step() {
  Impl& s = *impl_;
  std::vector<int> live = s.transport->poll_fds();
  if (live.size() == s.loop.watched()) return;
  std::sort(live.begin(), live.end());
  for (const int fd : s.fds)
    if (!std::binary_search(live.begin(), live.end(), fd)) s.loop.unwatch(fd);
}

ServerCounters Server::counters() const {
  ecqv::proto::SessionBroker& b = impl_->sb();
  const auto& bs = b.stats();
  const auto& ss = b.store().stats();
  const auto& cs = b.peer_cache().stats();
  const auto& ws = impl_->transport->wire_stats();
  ServerCounters c;
  c.handshakes_failed = bs.handshakes_failed.load();
  c.handshakes_aborted = bs.handshakes_aborted.load();
  c.retransmits = bs.retransmits.load() + bs.ratchet_retransmits.load();
  c.duplicates_ignored = bs.duplicates_ignored.load();
  c.store_installs = ss.installs.load();
  c.store_opens = ss.opens.load();
  c.store_ratchet_signals_applied = ss.ratchet_signals_applied.load();
  c.store_capacity_evictions = ss.capacity_evictions.load();
  c.store_epoch_rejects = ss.epoch_rejects.load();
  c.cache_hits = cs.hits.load();
  c.cache_misses = cs.misses.load();
  c.cache_evictions = cs.evictions.load();
  c.wire_bytes = ws.bytes_received.load() + ws.bytes_sent.load();
  c.send_drops = ws.send_drops.load();
  c.decode_errors = ws.decode_errors.load();
  // Untraced, ConcurrentSessionBroker counts them; traced, the calls above.
  c.errors = impl_->broker->stats().errors.load() + impl_->call_errors;
  return c;
}

// --------------------------------------------------------------- ClientLink

struct ClientLink::Impl {
  struct Client {
    std::unique_ptr<ecqv::rng::TestRng> rng;
    std::unique_ptr<ecqv::proto::SessionBroker> broker;
  };

  const Fleet::Impl* fleet = nullptr;
  std::unique_ptr<ecqv::net::FdTransport> transport;
  ecqv::net::EventLoop loop;
  ecqv::proto::BrokerConfig config;
  std::vector<std::unique_ptr<Client>> slots;
  std::vector<std::size_t> free_slots;
  std::uint64_t handled = 0;  // datagrams taken out of client inboxes

  const DeviceId& server_id() const { return fleet->server.id; }
};

ClientLink::ClientLink(const Fleet& fleet, std::uint16_t server_port, Policy policy)
    : impl_(std::make_unique<Impl>()) {
  Impl& l = *impl_;
  l.fleet = &fleet.impl();
  auto opened = ecqv::net::UdpTransport::open({.port = 0});
  if (!opened.ok()) throw std::runtime_error("cannot open udp");
  (*opened)->add_route(l.server_id(), server_port);
  l.transport = std::move(opened).value();
  l.config.store.capacity = 4;
  l.config.store.shards = 1;
  l.config.store.policy = rekey_policy(policy);
  l.config.store.max_epochs = policy.max_epochs;
  l.config.peer_cache_capacity = 4;
  // Clients recover lost datagrams, but on a lossless loopback a timer
  // that fires is a stall, so the first timeout sits far above any queue
  // wait the server builds.
  l.config.reliability.enabled = true;
  l.config.reliability.rto_ms = 1000.0;
}

ClientLink::~ClientLink() = default;

std::size_t ClientLink::open_client(std::uint32_t device, std::uint64_t rng_seed) {
  Impl& l = *impl_;
  auto client = std::make_unique<Impl::Client>();
  client->rng = std::make_unique<ecqv::rng::TestRng>(rng_seed);
  client->broker = std::make_unique<ecqv::proto::SessionBroker>(l.fleet->devices.at(device),
                                                                *client->rng, l.config);
  client->broker->bind_clock(l.transport.get());
  l.transport->attach(client->broker->id());
  if (!l.free_slots.empty()) {
    const std::size_t slot = l.free_slots.back();
    l.free_slots.pop_back();
    l.slots[slot] = std::move(client);
    return slot;
  }
  l.slots.push_back(std::move(client));
  return l.slots.size() - 1;
}

void ClientLink::close_client(std::size_t slot) {
  Impl& l = *impl_;
  l.slots[slot].reset();
  l.free_slots.push_back(slot);
}

bool ClientLink::connect(std::size_t slot) {
  Impl& l = *impl_;
  ecqv::proto::SessionBroker& broker = *l.slots[slot]->broker;
  auto first = broker.connect(l.server_id(), kNow);
  if (!first.ok()) return false;
  return l.transport->send(broker.id(), l.server_id(), std::move(first).value()).ok();
}

ClientLink::Pump ClientLink::pump(std::size_t slot) {
  Impl& l = *impl_;
  ecqv::proto::SessionBroker& broker = *l.slots[slot]->broker;
  Pump out;
  for (auto& retransmit : broker.poll_retransmits(l.transport->now_ms(), kNow))
    out.error |= !l.transport->send(broker.id(), retransmit.peer, retransmit.message).ok();
  while (auto datagram = l.transport->receive(broker.id())) {
    ++out.messages;
    ++l.handled;
    const auto start = std::chrono::steady_clock::now();
    auto reply = broker.on_message(datagram->src, datagram->message, kNow);
    out.on_message_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count());
    if (!reply.ok()) {
      out.error = true;
      continue;
    }
    if (reply->has_value())
      out.error |= !l.transport->send(broker.id(), datagram->src, **reply).ok();
  }
  out.ready = broker.session_ready(l.server_id(), kNow);
  return out;
}

std::size_t ClientLink::send_record(std::size_t slot, const std::uint8_t* data, std::size_t len) {
  Impl& l = *impl_;
  ecqv::proto::SessionBroker& broker = *l.slots[slot]->broker;
  auto record = broker.make_data(l.server_id(), ecqv::ByteView(data, len), kNow,
                                 ecqv::proto::DataRekey::kAuto);
  if (!record.ok()) return 0;
  const std::size_t size = record->payload.size();
  if (!l.transport->send(broker.id(), l.server_id(), std::move(record).value()).ok()) return 0;
  return size;
}

void ClientLink::wait(int timeout_ms) {
  Impl& l = *impl_;
  // A client's receive() services the shared socket, so it can pull a
  // datagram for a client pumped earlier in the same round. That datagram
  // waits in an inbox, not in the socket: do not block on the socket then.
  if (l.transport->wire_stats().datagrams_received.load() > l.handled) return;
  for (const int fd : l.transport->poll_fds())
    (void)l.loop.watch(fd, l.transport->wants_write(fd));
  (void)l.loop.wait(timeout_ms);
  l.transport->service();
}

std::uint64_t ClientLink::send_drops() const {
  return impl_->transport->wire_stats().send_drops.load();
}


}  // namespace perfbench
