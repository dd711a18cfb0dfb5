#pragma once
/// \file traffic.hpp
/// Serve workloads: the frozen world `rdns_tool serve` hosts, the query
/// streams the load generator sends, and the reference outcome of every
/// query. The program under test never sees the seed, only these datagrams.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dns/serve_guard.hpp"
#include "sim/world.hpp"

namespace perfbench {

/// `rdns_tool serve` defaults: 24 orgs, scale 0.4, frozen at 2021-01-02 14:00.
struct FrozenWorld {
  std::unique_ptr<rdns::sim::World> world;
  rdns::util::SimTime now = 0;
  double build_s = 0;      ///< make_internet_world
  double run_until_s = 0;  ///< start + run_until the freeze instant
  double run_until_cpu_s = 0;
};

[[nodiscard]] FrozenWorld freeze_world(std::uint64_t seed);

/// Every address the server pre-builds answers for, in cmd_serve's
/// announced-prefix order.
[[nodiscard]] std::vector<std::uint32_t> announced_addresses(const rdns::sim::World& world);

enum class Kind : std::uint8_t { Ptr, ThreeOctet, NsProbe, Chaos, Malformed };
inline constexpr int kKinds = 5;
[[nodiscard]] const char* to_string(Kind k) noexcept;

/// What a correct server does with one datagram. `guard` outcomes come
/// from dns::classify_query + make_guard_response and are compared byte
/// for byte past the id; answered outcomes are compared in rcode and
/// answer RRset (names case-insensitively) against the handler the server
/// wraps: FrozenDnsView::exchange behind the CHAOS introspection plane.
struct Expect {
  bool silent = false;
  bool guard = false;
  std::uint8_t rcode = 0;
  std::uint16_t ancount = 0;
  std::uint64_t digest = 0;
};

struct Item {
  std::uint32_t offset = 0;  ///< into Traffic::blob
  std::uint16_t length = 0;
  std::uint16_t question_end = 0;  ///< 0 when the datagram has no clean question
  std::uint32_t expect = 0;        ///< index into Traffic::expects
  Kind kind = Kind::Ptr;
};

struct Traffic {
  std::vector<std::uint8_t> blob;  ///< datagrams back to back, id bytes zero
  std::vector<Item> items;
  std::vector<Expect> expects;

  [[nodiscard]] std::span<const std::uint8_t> bytes(const Item& item) const {
    return {blob.data() + item.offset, item.length};
  }
};

/// serve_sweep: a canonical lowercase `d.c.b.a.in-addr.arpa` PTR query for
/// every announced address, in scan::ScanPermutation order.
[[nodiscard]] Traffic sweep_traffic(const rdns::sim::World& world, std::uint64_t seed);

/// serve_mix: resolver-style traffic, in blocks of 20 shuffled datagrams
/// holding exactly 14 canonical PTR (70%), 2 three-octet PTR (10%), 2 NS
/// probes of partial arpa names (10%), 1 CHAOS TXT version.bind (5%) and
/// 1 malformed datagram (5%). Qnames are Zipf(1) over the addresses with a
/// live PTR at the freeze instant, in 0x20 mixed case; 80% carry EDNS OPT.
inline constexpr std::size_t kMixBlock = 20;
[[nodiscard]] Traffic mix_traffic(const rdns::sim::World& world, std::uint64_t seed,
                                  std::size_t blocks);

/// Fill Traffic::expects (and each item's `expect`) from the reference
/// handler over `world`, using up to `threads` threads. `distinct` says no
/// two datagrams share a question (serve_sweep asks each address once), so
/// none are merged.
void compute_expectations(Traffic& traffic, const rdns::sim::World& world,
                          rdns::util::SimTime now, unsigned threads, bool distinct);

/// The rcode of the guard's error reply for a rejecting verdict (FORMERR,
/// NOTIMP or REFUSED), as the serve loop sends it.
[[nodiscard]] rdns::dns::Rcode guard_rcode(rdns::dns::WireVerdict verdict) noexcept;

/// Rcode, answer count and an order-sensitive hash of the answer RRset
/// (owner and name-valued RDATA lowercased and decompressed).
struct ReplyDigest {
  bool ok = false;  ///< parsed as a response
  std::uint8_t rcode = 0;
  std::uint16_t ancount = 0;
  std::uint64_t hash = 0;
};
[[nodiscard]] ReplyDigest digest_reply(std::span<const std::uint8_t> reply) noexcept;

/// Hash of a guard response past its two id bytes.
[[nodiscard]] std::uint64_t digest_guard(std::span<const std::uint8_t> reply) noexcept;

/// True when `reply` is a correct outcome for `query` sent with id `id`
/// (whose reference is `e`): id echoed, response bit set, question echoed
/// (case-insensitively) and the expectation met.
[[nodiscard]] bool reply_matches(std::span<const std::uint8_t> query, std::uint16_t question_end,
                                 std::uint16_t id, std::span<const std::uint8_t> reply,
                                 const Expect& e) noexcept;

/// Share of each Kind in items[0, n).
[[nodiscard]] std::vector<double> kind_shares(const Traffic& traffic, std::size_t n);

}  // namespace perfbench
