#pragma once
/// \file answer_cache.hpp
/// Pre-serialized wire-image cache for hot PTR answers.
///
/// The serve path freezes its zones for the lifetime of a generation (the
/// switchboard swaps whole worlds on reload), so every PTR answer is known
/// at serve start. This cache holds the *tail* of each encoded reply —
/// everything after the question section — built once by the reference
/// codec. The hot path then assembles a reply with two memcpys and a
/// four-byte header patch: copy the client's own header + question, patch
/// flags/rcode/section counts, append the cached tail. No Message object,
/// no WireWriter, no allocation.
///
/// Only hosts with data in their zone (PTR owners, and NODATA owners that
/// hold other records) get a tail of their own. Every other host of a zone
/// gets the same NXDOMAIN reply, whose tail differs only by the compression
/// pointer to the origin, i.e. by the lengths of the first two qname
/// labels; the zone keeps five such tails. The build walks the PTR store
/// and calls the codec once per host with data plus five times per zone.
///
/// Why the tail is byte-stable across clients: RFC 1035 §4.1.4 compression
/// pointers in the answer/authority sections reference offsets inside the
/// question, and those offsets depend only on the *lengths* of the qname
/// labels (the codec's compression map is keyed on lowercased suffixes).
/// Any letter-casing of the same qname therefore yields the same tail, and
/// copying the client's question preserves the 0x20-style case echo the
/// codec path produces. Parity is asserted record-by-record in
/// tests/test_answer_cache.cpp against encode(handle_readonly(query)).
///
/// The probe reads the datagram's scan (QueryView, dns/wire.hpp), whose
/// label rules are the decoder's, so it hits only queries decode() accepts.
/// The serve loop runs the same EDNS/TC post-step on a cache hit and on a
/// handler reply, so arming the cache changes speed, never a reply's bytes.
///
/// Invalidation is a whole-cache epoch bump: the serve loop re-fetches the
/// cache through its provider whenever the switchboard epoch moves, and the
/// old image is dropped when the last worker releases its shared_ptr.
///
/// The cache must only cover *announced* address space: the world router
/// models unannounced addresses as timeouts (no reply at all), so caching a
/// whole /16 would invent NXDOMAINs. build() therefore takes explicit
/// [first, last] ranges mirroring the router's announced-prefix table; any
/// address outside them probes as a miss and falls through to the handler.
/// So does every address of a /16 that its server does not answer from a
/// compact /16 reverse zone alone (no zone, a legacy-storage zone, or a
/// zone under the /16, which find_zone prefers for the hosts it holds),
/// and every NXDOMAIN address of a zone whose SOA MNAME or RNAME ends in
/// its own origin: that SOA could compress against the qname's own
/// labels, so its tail would not be shared.
///
/// Fault injection: a cache hit bypasses handle_readonly and with it the
/// deterministic fault sites (DnsTimeout/DnsServfail/DnsTruncate) and any
/// per-server FaultPolicy. Callers must not arm the cache when either is
/// active; rdns_tool serve auto-disables it and says so.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dns/message.hpp"
#include "net/ipv4.hpp"

namespace rdns::dns {

class AuthoritativeServer;
struct QueryView;  // dns/wire.hpp

class AnswerCache {
 public:
  /// One announced range served by one authoritative server. Ranges are
  /// expected to be disjoint (the router's announced prefixes are); when
  /// they overlap, the first source listed wins, matching router scan
  /// order.
  struct Source {
    const AuthoritativeServer* server = nullptr;
    net::Ipv4Addr first;
    net::Ipv4Addr last;
  };

  /// Result of probing a scanned datagram against the cache.
  struct Probe {
    bool hit = false;        ///< tail/rcode/counts below are valid
    bool cacheable = false;  ///< canonical IN PTR query for a 4-octet arpa name
    bool edns = false;       ///< the query's QueryView::edns, for callers holding only the probe
    std::size_t question_end = 0;  ///< one past the question; 0 when it did not scan clean
    Rcode rcode = Rcode::NoError;
    std::uint16_t ancount = 0;
    std::uint16_t nscount = 0;
    std::span<const std::uint8_t> tail;  ///< reply bytes after the question
  };

  /// Pre-encode the PTR answers in the given ranges by replicating the
  /// server's answer_query logic through the reference codec. Pure: no
  /// ServerStats or dns.server.* side effects during the build.
  [[nodiscard]] static std::shared_ptr<const AnswerCache> build(
      const std::vector<Source>& sources);

  /// Allocation-free lookup of a scanned query (dns/wire.hpp); the span
  /// form scans first.
  [[nodiscard]] Probe probe(const QueryView& query) const noexcept;
  [[nodiscard]] Probe probe(std::span<const std::uint8_t> query) const noexcept;

  /// Bytes assemble() writes for a hit.
  [[nodiscard]] static std::size_t reply_size(const Probe& p) noexcept {
    return p.question_end + p.tail.size();
  }

  /// Assemble the full reply for a hit into `out` (≥ reply_size(p) bytes):
  /// client header + question verbatim, then flags patched to the codec's
  /// response bits (QR|AA, RD echoed, everything else cleared), counts set,
  /// cached tail appended. ARCOUNT is written as 0; EDNS OPT append is the
  /// serve loop's post-step so parity with the codec path holds. Returns
  /// bytes written. Bumps the dns.server.* query counters a codec-path
  /// answer would have bumped (metric parity; per-org ServerStats are not
  /// visible from the serve loop and stay untouched — see DESIGN.md §16).
  static std::size_t assemble(const Probe& p, std::span<const std::uint8_t> query,
                              std::uint8_t* out) noexcept;

  /// Addresses that probe as a hit.
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_; }
  /// Heap and inline footprint of the shards.
  [[nodiscard]] std::size_t bytes() const noexcept;

  // -- wire post-processing helpers shared by the serve loop and tests --

  /// Append a minimal EDNS0 OPT RR (root owner, type 41, class =
  /// `udp_size`, zero TTL/RDLEN) to `reply` of length `len` and bump
  /// ARCOUNT. Caller guarantees 11 spare bytes. Returns the new length.
  static std::size_t append_opt(std::uint8_t* reply, std::size_t len,
                                std::uint16_t udp_size) noexcept;

  /// Truncate `reply` to header + question (RFC 2181 §9: do not send
  /// partial sections): TC=1, AN/NS/AR zeroed; when `opt_udp_size` is
  /// non-zero an OPT advertising it is re-appended. Returns the new length.
  static std::size_t truncate_to_tc(std::uint8_t* reply, std::size_t question_end,
                                    std::uint16_t opt_udp_size) noexcept;

 private:
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;

  /// A stretch of hosts, up to the next run's first, that shares one
  /// NXDOMAIN entry set (or none: not cached).
  struct Run {
    std::uint32_t first = 0;  ///< first host part; runs[0].first is 0
    std::uint32_t nxdomain = kNoEntry;  ///< entry of length class 0; class k is +k
  };

  /// One /16. A host with data has bit `host` set in `explicit_bits`; its
  /// entry is rank[host / 64] plus the set bits below it in that word.
  /// Any other host reads its run's NXDOMAIN set at the question's length
  /// class. Entry i spans blob[offsets[i], offsets[i + 1]):
  /// [rcode u8][ancount u16 BE][nscount u8][tail bytes].
  struct Shard {
    std::uint32_t base = 0;  ///< address >> 16
    std::array<std::uint64_t, 1024> explicit_bits{};
    std::array<std::uint32_t, 1024> rank{};
    std::vector<Run> runs;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint8_t> blob;
  };

  AnswerCache() = default;
  [[nodiscard]] const Shard* shard_for(std::uint32_t base) const noexcept;

  std::vector<Shard> shards_;  ///< sorted by base
  std::size_t entries_ = 0;
};

}  // namespace rdns::dns
