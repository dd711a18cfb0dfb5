#include "net/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/ipv4.hpp"

namespace rdns::net {

namespace {

void fill_sockaddr(const UdpEndpoint& ep, sockaddr_in& sa) {
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.address);
  sa.sin_port = htons(ep.port);
}

UdpEndpoint from_sockaddr(const sockaddr_in& sa) {
  UdpEndpoint ep;
  ep.address = ntohl(sa.sin_addr.s_addr);
  ep.port = ntohs(sa.sin_port);
  return ep;
}

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string{what} + ": " + std::strerror(errno);
}

[[nodiscard]] int open_nonblocking_udp_fd() {
#if defined(SOCK_NONBLOCK) && defined(SOCK_CLOEXEC)
  return ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
#else
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd >= 0) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
#endif
}

[[nodiscard]] bool poll_one(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return (pfd.revents & (events | POLLERR | POLLHUP)) != 0;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

}  // namespace

std::string UdpEndpoint::to_string() const {
  return Ipv4Addr{address}.to_string() + ":" + std::to_string(port);
}

std::optional<UdpEndpoint> UdpEndpoint::parse(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) return std::nullopt;
  const auto addr = Ipv4Addr::parse(text.substr(0, colon));
  if (!addr) return std::nullopt;
  unsigned long port = 0;
  const std::string port_text = text.substr(colon + 1);
  char* end = nullptr;
  port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) return std::nullopt;
  UdpEndpoint ep;
  ep.address = addr->value();
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

std::optional<UdpSocket> UdpSocket::bind(const UdpEndpoint& local, bool reuse_port,
                                         std::string* error) {
  const int fd = open_nonblocking_udp_fd();
  if (fd < 0) {
    set_error(error, "socket");
    return std::nullopt;
  }
  UdpSocket sock{fd};
  if (reuse_port) {
#ifdef SO_REUSEPORT
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      set_error(error, "setsockopt(SO_REUSEPORT)");
      return std::nullopt;
    }
#else
    set_error(error, "SO_REUSEPORT unsupported on this platform");
    return std::nullopt;
#endif
  }
  sockaddr_in sa{};
  fill_sockaddr(local, sa);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    set_error(error, "bind");
    return std::nullopt;
  }
  return sock;
}

std::optional<UdpSocket> UdpSocket::open(std::string* error) {
  const int fd = open_nonblocking_udp_fd();
  if (fd < 0) {
    set_error(error, "socket");
    return std::nullopt;
  }
  return UdpSocket{fd};
}

bool UdpSocket::connect(const UdpEndpoint& peer, std::string* error) {
  sockaddr_in sa{};
  fill_sockaddr(peer, sa);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    set_error(error, "connect");
    return false;
  }
  return true;
}

std::optional<UdpEndpoint> UdpSocket::local_endpoint() const {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return std::nullopt;
  return from_sockaddr(sa);
}

bool UdpSocket::send(std::span<const std::uint8_t> payload, const UdpEndpoint& peer) {
  sockaddr_in sa{};
  fill_sockaddr(peer, sa);
  const auto sent = ::sendto(fd_, payload.data(), payload.size(), 0,
                             reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  return sent == static_cast<ssize_t>(payload.size());
}

bool UdpSocket::send(std::span<const std::uint8_t> payload) {
  const auto sent = ::send(fd_, payload.data(), payload.size(), 0);
  return sent == static_cast<ssize_t>(payload.size());
}

std::optional<std::size_t> UdpSocket::recv(std::span<std::uint8_t> buffer,
                                           UdpEndpoint* peer_out) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  // MSG_TRUNC makes recvfrom report the datagram's true length even when
  // it exceeds the buffer — the truncation signal the header promises.
  const auto got = ::recvfrom(fd_, buffer.data(), buffer.size(), MSG_TRUNC,
                              reinterpret_cast<sockaddr*>(&sa), &len);
  if (got < 0) return std::nullopt;
  if (peer_out != nullptr) *peer_out = from_sockaddr(sa);
  return static_cast<std::size_t>(got);
}

std::size_t UdpSocket::recv_batch(std::vector<UdpDatagram>& out, std::size_t max_batch,
                                  std::size_t max_payload) {
  if (max_batch == 0) return 0;
#if defined(__linux__)
  // recvmmsg: one syscall drains a burst. Stack-capped batch size keeps
  // the iovec/header arrays small; callers wanting more call again.
  constexpr std::size_t kMaxVecs = 64;
  const std::size_t batch = std::min(max_batch, kMaxVecs);
  std::vector<std::vector<std::uint8_t>> buffers(batch);
  mmsghdr headers[kMaxVecs];
  iovec iovecs[kMaxVecs];
  sockaddr_in sources[kMaxVecs];
  std::memset(headers, 0, sizeof(mmsghdr) * batch);
  for (std::size_t i = 0; i < batch; ++i) {
    buffers[i].resize(max_payload);
    iovecs[i].iov_base = buffers[i].data();
    iovecs[i].iov_len = buffers[i].size();
    headers[i].msg_hdr.msg_iov = &iovecs[i];
    headers[i].msg_hdr.msg_iovlen = 1;
    headers[i].msg_hdr.msg_name = &sources[i];
    headers[i].msg_hdr.msg_namelen = sizeof(sources[i]);
  }
  const int got = ::recvmmsg(fd_, headers, static_cast<unsigned>(batch), MSG_DONTWAIT, nullptr);
  if (got <= 0) return 0;
  for (int i = 0; i < got; ++i) {
    UdpDatagram d;
    d.truncated = (headers[i].msg_hdr.msg_flags & MSG_TRUNC) != 0;
    buffers[static_cast<std::size_t>(i)].resize(headers[i].msg_len);
    d.payload = std::move(buffers[static_cast<std::size_t>(i)]);
    d.peer = from_sockaddr(sources[i]);
    out.push_back(std::move(d));
  }
  return static_cast<std::size_t>(got);
#else
  // Portable fallback: loop single recvs until the queue is dry.
  std::size_t got = 0;
  std::vector<std::uint8_t> buffer(max_payload);
  while (got < max_batch) {
    UdpEndpoint peer;
    const auto n = recv(buffer, &peer);
    if (!n) break;
    UdpDatagram d;
    d.truncated = *n > buffer.size();
    d.payload.assign(buffer.begin(),
                     buffer.begin() + static_cast<std::ptrdiff_t>(std::min(*n, buffer.size())));
    d.peer = peer;
    out.push_back(std::move(d));
    ++got;
  }
  return got;
#endif
}

std::size_t UdpSocket::send_batch(const UdpDatagram* first, std::size_t count) {
  if (count == 0) return 0;
#if defined(__linux__)
  constexpr std::size_t kMaxVecs = 64;
  std::size_t sent_total = 0;
  while (sent_total < count) {
    const std::size_t batch = std::min(count - sent_total, kMaxVecs);
    mmsghdr headers[kMaxVecs];
    iovec iovecs[kMaxVecs];
    sockaddr_in dests[kMaxVecs];
    std::memset(headers, 0, sizeof(mmsghdr) * batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const UdpDatagram& d = first[sent_total + i];
      iovecs[i].iov_base = const_cast<std::uint8_t*>(d.payload.data());
      iovecs[i].iov_len = d.payload.size();
      fill_sockaddr(d.peer, dests[i]);
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
      headers[i].msg_hdr.msg_name = &dests[i];
      headers[i].msg_hdr.msg_namelen = sizeof(dests[i]);
    }
    const int sent = ::sendmmsg(fd_, headers, static_cast<unsigned>(batch), MSG_DONTWAIT);
    if (sent <= 0) break;
    sent_total += static_cast<std::size_t>(sent);
    if (static_cast<std::size_t>(sent) < batch) break;  // back-pressure
  }
  return sent_total;
#else
  std::size_t sent_total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!send(first[i].payload, first[i].peer)) break;
    ++sent_total;
  }
  return sent_total;
#endif
}

std::size_t UdpSocket::send_batch(const UdpSendView* first, std::size_t count) {
  if (count == 0) return 0;
#if defined(__linux__)
  constexpr std::size_t kMaxVecs = 64;
  std::size_t sent_total = 0;
  while (sent_total < count) {
    const std::size_t batch = std::min(count - sent_total, kMaxVecs);
    mmsghdr headers[kMaxVecs];
    iovec iovecs[kMaxVecs];
    sockaddr_in dests[kMaxVecs];
    std::memset(headers, 0, sizeof(mmsghdr) * batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const UdpSendView& v = first[sent_total + i];
      iovecs[i].iov_base = const_cast<std::uint8_t*>(v.payload.data());
      iovecs[i].iov_len = v.payload.size();
      fill_sockaddr(v.peer, dests[i]);
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
      headers[i].msg_hdr.msg_name = &dests[i];
      headers[i].msg_hdr.msg_namelen = sizeof(dests[i]);
    }
    const int sent = ::sendmmsg(fd_, headers, static_cast<unsigned>(batch), MSG_DONTWAIT);
    if (sent <= 0) break;
    sent_total += static_cast<std::size_t>(sent);
    if (static_cast<std::size_t>(sent) < batch) break;  // back-pressure
  }
  return sent_total;
#else
  std::size_t sent_total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!send(first[i].payload, first[i].peer)) break;
    ++sent_total;
  }
  return sent_total;
#endif
}

bool UdpSocket::wait_readable(int timeout_ms) const { return poll_one(fd_, POLLIN, timeout_ms); }

}  // namespace rdns::net
