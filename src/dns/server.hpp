#pragma once
/// \file server.hpp
/// Authoritative name server hosting one or more zones, plus the Transport
/// interface the resolver speaks wire format through.
///
/// Transport has two implementations with one contract: the in-process
/// path here (function call instead of a socket — the deterministic
/// reference every other path is byte-compared against) and the real UDP
/// client in dns/udp_transport.hpp aimed at a dns::UdpServerLoop hosting
/// these same zones on a live port. Caching sits above this layer as an
/// explicit opt-in (dns/cache.hpp), never inside it.
///
/// Fault injection models the failure modes the paper observed during its
/// supplemental measurement (Fig. 6): next to normal answers, "name server
/// failures, timeouts, and NXDOMAIN responses".

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dns/message.hpp"
#include "dns/zone.hpp"
#include "util/name_pool.hpp"
#include "util/time.hpp"

namespace rdns::dns {

/// Probabilities of transient failures, evaluated per query.
struct FaultPolicy {
  double servfail_probability = 0.0;
  double timeout_probability = 0.0;

  [[nodiscard]] static FaultPolicy none() noexcept { return {}; }
};

/// Query-handling statistics (per server). Parallel sweeps accumulate
/// these per worker and fold them back with operator+= — all fields are
/// sums, so the merge is order-independent.
struct ServerStats {
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t nodata = 0;
  std::uint64_t servfail_injected = 0;
  std::uint64_t timeouts_injected = 0;
  std::uint64_t truncations_injected = 0;
  std::uint64_t refused = 0;
  std::uint64_t updates = 0;

  ServerStats& operator+=(const ServerStats& other) noexcept;
};

/// Byte-level transport: what a UDP socket would be. The simulator wires a
/// resolver to a server through this, round-tripping RFC 1035 wire format.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Send a query; nullopt models a timeout / dropped datagram.
  [[nodiscard]] virtual std::optional<std::vector<std::uint8_t>> exchange(
      std::span<const std::uint8_t> query_wire, util::SimTime now) = 0;

  /// Stream (TCP) retry for TC=1 answers. The default is "no stream
  /// transport" — the resolver treats nullopt as an unavailable fallback
  /// and keeps its UDP retry ladder, so transports that never opt in (the
  /// in-process reference path, the deterministic sweep) are byte-for-byte
  /// unaffected. UdpTransport overrides this when a TCP port is configured.
  [[nodiscard]] virtual std::optional<std::vector<std::uint8_t>> exchange_stream(
      std::span<const std::uint8_t> query_wire, util::SimTime now) {
    (void)query_wire;
    (void)now;
    return std::nullopt;
  }
};

class AuthoritativeServer {
 public:
  explicit AuthoritativeServer(FaultPolicy faults = FaultPolicy::none(),
                               std::uint64_t fault_seed = 0xFA017);

  /// Host a zone; returns a stable reference for later mutation. The server
  /// owns the zone. Compact-eligible zones share the server's name pool,
  /// so one hostname interned in any zone costs its bytes once.
  Zone& add_zone(DnsName origin, SoaRdata soa);

  /// Bulk-install generic PTRs host-a-b-c-d.<suffix> for every address in
  /// [first, last], observably equivalent to sending one RFC 2136
  /// replace-update per address through handle() against a fault-free
  /// server with no pre-existing records in the range: zone contents,
  /// serials, ServerStats and the dns.server.* counters all advance as the
  /// wire path would. Must not be used when fault injection is configured
  /// (the wire path would then drop some updates). Returns PTRs inserted.
  std::size_t populate_generic(net::Ipv4Addr first, net::Ipv4Addr last, const DnsName& suffix,
                               std::uint32_t ttl);

  /// Zone whose origin best matches (longest suffix of) `name`.
  [[nodiscard]] Zone* find_zone(const DnsName& name) noexcept;
  [[nodiscard]] const Zone* find_zone(const DnsName& name) const noexcept;

  /// Answer a parsed message (query or RFC 2136 update). Returns nullopt
  /// when fault injection decides this query is lost (timeout).
  [[nodiscard]] std::optional<Message> handle(const Message& request);

  /// Const query path for concurrent scanners: answers a QUERY without
  /// touching any server state; statistics land in the caller-supplied
  /// accumulator (merge them back via merge_stats). Fault injection is a
  /// pure hash of (fault seed, transaction id, qname), so the outcome of
  /// every query is independent of query order and thread count — the
  /// property the deterministic parallel sweep relies on. UPDATE messages
  /// are refused here; mutation must go through handle(). A response
  /// (QR=1) gets no reply, and any other opcode but QUERY gets NOTIMP.
  ///
  /// Thread safety: safe to call from many threads concurrently as long
  /// as nothing mutates the hosted zones meanwhile (frozen sim clock).
  [[nodiscard]] std::optional<Message> handle_readonly(const Message& request,
                                                       ServerStats& stats) const;

  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Fold a per-worker accumulator into the server's own counters.
  void merge_stats(const ServerStats& delta) noexcept { stats_ += delta; }

  void set_faults(FaultPolicy faults) noexcept { faults_ = faults; }
  [[nodiscard]] const FaultPolicy& faults() const noexcept { return faults_; }

  [[nodiscard]] std::size_t zone_count() const noexcept { return zones_.size(); }
  [[nodiscard]] std::vector<Zone*> zones() noexcept;
  [[nodiscard]] std::vector<const Zone*> zones() const;

 private:
  [[nodiscard]] Message answer_query(const Message& query, ServerStats& stats) const;
  [[nodiscard]] Message apply_update(const Message& update);
  [[nodiscard]] bool fault_hit(const Message& request, std::uint64_t salt,
                               double p) const noexcept;

  util::NamePool pool_;  ///< declared before zones_: zones borrow it
  std::vector<std::unique_ptr<Zone>> zones_;
  FaultPolicy faults_;
  std::uint64_t fault_seed_;
  ServerStats stats_;
};

/// Transport bound to one server: encodes/decodes through the wire codec so
/// the binary format is on the hot path.
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(AuthoritativeServer& server) noexcept : server_(&server) {}

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> exchange(
      std::span<const std::uint8_t> query_wire, util::SimTime now) override;

 private:
  AuthoritativeServer* server_;
};

}  // namespace rdns::dns
