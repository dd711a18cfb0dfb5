#pragma once
/// \file udp.hpp
/// Thin RAII wrapper over a non-blocking IPv4 UDP socket: the first layer
/// of this codebase that meets the hardware. Everything above it (the
/// resolver's UdpTransport, the serving loop) speaks datagrams through
/// this class, so the batched-syscall surface (`recvmmsg`/`sendmmsg` on
/// Linux, a portable loop elsewhere) lives in exactly one place.
///
/// Design points:
///   - non-blocking by construction; readiness waits go through
///     wait_readable() (poll(2)) with millisecond deadlines;
///   - SO_REUSEPORT is opt-in at bind time — the serving loop shards one
///     port across N worker sockets and lets the kernel hash flows;
///   - truncation is surfaced, not hidden: a datagram longer than the
///     caller's buffer reports its true length (Linux MSG_TRUNC semantics)
///     so DNS code can decide to retry-over-TCP / drop explicitly.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rdns::net {

/// An IPv4 endpoint (host-order address value + port), convertible to and
/// from the textual "a.b.c.d:port" form used by --transport udp://... URIs.
struct UdpEndpoint {
  std::uint32_t address = 0;  ///< host byte order (0 = INADDR_ANY)
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  /// Parse "a.b.c.d:port"; returns nullopt on malformed input.
  [[nodiscard]] static std::optional<UdpEndpoint> parse(const std::string& text);

  [[nodiscard]] bool operator==(const UdpEndpoint& other) const noexcept = default;
};

/// One datagram in a batched send/receive: payload bytes plus the peer
/// endpoint (source on receive, destination on send).
struct UdpDatagram {
  std::vector<std::uint8_t> payload;
  UdpEndpoint peer;
  /// True when the kernel had more bytes than `payload` could hold; the
  /// payload carries the truncated prefix (DNS: a TC-style signal).
  bool truncated = false;
};

/// A borrowed-payload datagram for zero-copy batched sends: points into a
/// caller-owned buffer (e.g. the serve loop's per-batch reply slab) that
/// must stay alive across the send_batch call.
struct UdpSendView {
  std::span<const std::uint8_t> payload;
  UdpEndpoint peer;
};

/// Non-blocking IPv4/UDP socket. Move-only; the fd closes on destruction.
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Create a socket bound to `local` (port 0 = kernel-assigned). With
  /// `reuse_port`, multiple sockets may bind the same endpoint and the
  /// kernel load-balances inbound datagrams between them (SO_REUSEPORT).
  /// Returns nullopt and fills `error` on failure.
  [[nodiscard]] static std::optional<UdpSocket> bind(const UdpEndpoint& local, bool reuse_port,
                                                     std::string* error = nullptr);

  /// Create an unbound socket for client use (bound implicitly on first
  /// send); `connect()` may pin the peer afterwards.
  [[nodiscard]] static std::optional<UdpSocket> open(std::string* error = nullptr);

  /// Pin the default peer: send() without an endpoint goes here, and the
  /// kernel filters inbound datagrams to this source.
  [[nodiscard]] bool connect(const UdpEndpoint& peer, std::string* error = nullptr);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Endpoint actually bound (resolves port 0 after bind).
  [[nodiscard]] std::optional<UdpEndpoint> local_endpoint() const;

  /// Send one datagram to `peer` (or the connected peer when omitted).
  /// Returns false on EWOULDBLOCK or any other send failure.
  [[nodiscard]] bool send(std::span<const std::uint8_t> payload, const UdpEndpoint& peer);
  [[nodiscard]] bool send(std::span<const std::uint8_t> payload);

  /// Receive one datagram into `buffer`; returns the datagram's *true*
  /// length (which may exceed buffer.size() — truncation), the source in
  /// `peer_out` (optional), or nullopt when nothing is queued.
  [[nodiscard]] std::optional<std::size_t> recv(std::span<std::uint8_t> buffer,
                                                UdpEndpoint* peer_out = nullptr);

  /// Batched receive: drain up to `max_batch` queued datagrams in one
  /// syscall where the platform has recvmmsg, else a recv loop. Each
  /// payload is capped at `max_payload` bytes with `truncated` set when
  /// the wire datagram was longer. Appends to `out`; returns the number
  /// of datagrams received (0 = nothing queued).
  std::size_t recv_batch(std::vector<UdpDatagram>& out, std::size_t max_batch,
                         std::size_t max_payload = kDefaultPayloadCap);

  /// Batched send of pre-addressed datagrams [first, first+count); one
  /// sendmmsg where available, else a send loop. Returns datagrams handed
  /// to the kernel (short counts happen under back-pressure; callers
  /// treat unsent datagrams as dropped — UDP semantics).
  std::size_t send_batch(const UdpDatagram* first, std::size_t count);

  /// Same batched send over borrowed payload views — the iovecs reference
  /// the caller's buffers directly, so assembled replies go from slab to
  /// kernel without an owning copy per datagram.
  std::size_t send_batch(const UdpSendView* first, std::size_t count);

  /// Block up to `timeout_ms` for readability (poll). Returns true when
  /// ready, false on timeout. Negative timeout = wait forever.
  [[nodiscard]] bool wait_readable(int timeout_ms) const;

  /// Default per-datagram payload cap for batched receives: the classic
  /// EDNS0-sized DNS buffer.
  static constexpr std::size_t kDefaultPayloadCap = 4096;

 private:
  explicit UdpSocket(int fd) noexcept : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace rdns::net
