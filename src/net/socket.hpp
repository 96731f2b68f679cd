// Thin POSIX socket layer: RAII fds and the handful of loopback-oriented
// helpers the net transports need. Everything is non-blocking and
// EINTR-safe; errors surface as the library's Status/Result codes, never
// errno leaking into callers.
#pragma once

#include <cstdint>

#include "common/result.hpp"

namespace ecqv::net {

/// Owning file descriptor. Move-only; closes on destruction (retrying
/// close() through EINTR is deliberately not done — POSIX leaves the fd
/// state undefined and Linux always releases it).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Non-blocking IPv4 UDP socket bound to 127.0.0.1:`port` (0 = ephemeral).
Result<Fd> udp_bind_loopback(std::uint16_t port);

/// Non-blocking IPv4 TCP listener on 127.0.0.1:`port` (0 = ephemeral),
/// SO_REUSEADDR set.
Result<Fd> tcp_listen_loopback(std::uint16_t port, int backlog = 128);

/// Non-blocking IPv4 TCP connect to 127.0.0.1:`port`, TCP_NODELAY set. May
/// return before the handshake completes (EINPROGRESS) — the fd becomes
/// writable when established, which the transports' service loop absorbs
/// naturally.
Result<Fd> tcp_connect_loopback(std::uint16_t port);

/// The port the kernel actually bound (resolves port 0 requests).
Result<std::uint16_t> local_port(int fd);

Status set_nonblocking(int fd);

/// Disables Nagle's algorithm. Every fabric frame is a complete message the
/// peer is waiting for; with Nagle on, a small frame queued behind an
/// unacknowledged one waits for the peer's delayed ACK (≈ 40 ms on Linux).
Status set_no_delay(int fd);

/// Shrinks the socket send buffer (tests use this to force short writes).
Status set_send_buffer(int fd, int bytes);

/// Sizes the socket receive buffer (the kernel clamps to rmem_max). A UDP
/// fleet socket needs headroom for a whole wave of replies landing while
/// the servicing thread is busy elsewhere — the 208 KiB default holds only
/// ~80 handshake messages.
Status set_receive_buffer(int fd, int bytes);

}  // namespace ecqv::net
