#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ecqv::net {

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Error::kInternal;
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return Error::kInternal;
  return {};
}

Status set_no_delay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0) return Error::kInternal;
  return {};
}

Status set_send_buffer(int fd, int bytes) {
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes) < 0)
    return Error::kInternal;
  return {};
}

Status set_receive_buffer(int fd, int bytes) {
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes) < 0)
    return Error::kInternal;
  return {};
}

Result<Fd> udp_bind_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return Error::kInternal;
  const sockaddr_in addr = loopback(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0)
    return Error::kBadState;
  if (const Status s = set_nonblocking(fd.get()); !s.ok()) return s.error();
  return fd;
}

Result<Fd> tcp_listen_loopback(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error::kInternal;
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in addr = loopback(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0)
    return Error::kBadState;
  if (::listen(fd.get(), backlog) < 0) return Error::kBadState;
  if (const Status s = set_nonblocking(fd.get()); !s.ok()) return s.error();
  return fd;
}

Result<Fd> tcp_connect_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error::kInternal;
  if (const Status s = set_nonblocking(fd.get()); !s.ok()) return s.error();
  if (const Status s = set_no_delay(fd.get()); !s.ok()) return s.error();
  const sockaddr_in addr = loopback(port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && errno != EINPROGRESS) return Error::kBadState;
  return fd;
}

Result<std::uint16_t> local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    return Error::kInternal;
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

}  // namespace ecqv::net
