#include "dns/answer_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <map>
#include <string_view>
#include <utility>

#include "dns/server.hpp"
#include "dns/wire.hpp"
#include "dns/zone.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace rdns::dns {

namespace {

namespace metrics = rdns::util::metrics;

/// The dns.server.* counters a cache hit keeps honest. Same registry cells
/// as server.cpp's ServerMetrics — the registry is keyed by name.
struct HitMetrics {
  metrics::Counter& queries = metrics::counter("dns.server.queries");
  metrics::Counter& qtype_ptr = metrics::counter("dns.server.qtype.ptr");
  metrics::Counter& answered = metrics::counter("dns.server.answered");
  metrics::Counter& nxdomain = metrics::counter("dns.server.nxdomain");
  metrics::Counter& nodata = metrics::counter("dns.server.nodata");
};

HitMetrics& hit_metrics() {
  static HitMetrics m;
  return m;
}

void put_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xFF);
}

std::uint16_t get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

/// Parse a canonical decimal octet label (1..3 digits, no leading zero,
/// value <= 255). Non-canonical spellings miss the cache on purpose: the
/// handler resolves them through the same zone lookup, so behavior is
/// identical, just slower — and real PTR floods use canonical names.
bool parse_octet(std::string_view label, std::uint32_t& out) noexcept {
  if (label.empty() || label.size() > 3) return false;
  std::uint32_t v = 0;
  for (const char c : label) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (label.size() > 1 && label[0] == '0') return false;
  if (v > 255) return false;
  out = v;
  return true;
}

constexpr std::uint32_t kHosts = 0x10000;

/// How one server answers the hosts of one /16. find_zone picks each
/// host's longest-suffix zone, which is the server's best zone for the /16
/// origin unless the server also hosts a zone under it (a /24, say). Only
/// a compact /16 zone with no zone under it is cached, and its NXDOMAIN
/// tail is shared only when the SOA names cannot compress against the
/// qname's first two labels.
struct Answering {
  const AuthoritativeServer* server = nullptr;
  const Zone* zone = nullptr;  ///< the compact /16 zone; null: nothing cached
  bool shared_nxdomain = false;
};

Answering answering(const AuthoritativeServer& server, std::uint32_t base) {
  const DnsName origin =
      DnsName::must_parse(util::format("%u.%u.in-addr.arpa", base & 0xFF, base >> 8));
  const Zone* zone = server.find_zone(origin);
  if (zone == nullptr || !zone->compact()) return {&server};
  for (const Zone* other : server.zones()) {
    if (other->origin().label_count() > 4 && other->origin().ends_with(origin)) return {&server};
  }
  const SoaRdata& soa = zone->soa();
  return {&server, zone,
          !soa.mname.ends_with(zone->origin()) && !soa.rname.ends_with(zone->origin())};
}

/// answer_query's negative reply: the zone's SOA in the authority section.
Message negative_reply(const Zone& zone, const Message& query, Rcode rcode) {
  Message response = make_response(query, rcode);
  response.authority.push_back(make_soa(zone.origin(), zone.soa(), zone.soa().minimum));
  return response;
}

/// answer_query's reply to a PTR query `zone` answers, without the
/// stats/metrics/fault side effects of handle_readonly. The live path's
/// verdict is a pure function of the frozen zone, so the tail is exact.
Message zone_reply(const Zone& zone, const Message& query) {
  const Question& q = query.questions.front();
  auto answers = zone.find(q.qname, RrType::PTR);
  if (answers.empty()) {
    return negative_reply(zone, query, zone.has_name(q.qname) ? Rcode::NoError : Rcode::NxDomain);
  }
  Message response = make_response(query, Rcode::NoError);
  response.answers = std::move(answers);
  return response;
}

/// Append one entry, [rcode][ancount][nscount][tail], for `response` to
/// `query`, and its start to `offsets`.
void append_entry(std::vector<std::uint32_t>& offsets, std::vector<std::uint8_t>& blob,
                  const Message& query, const Message& response) {
  offsets.push_back(static_cast<std::uint32_t>(blob.size()));
  const std::vector<std::uint8_t> wire = encode(response);
  const std::size_t question_end = 12 + query.questions.front().qname.wire_length() + 4;
  blob.push_back(static_cast<std::uint8_t>(response.flags.rcode));
  blob.push_back(static_cast<std::uint8_t>(response.answers.size() >> 8));
  blob.push_back(static_cast<std::uint8_t>(response.answers.size() & 0xFF));
  blob.push_back(static_cast<std::uint8_t>(response.authority.size()));
  blob.insert(blob.end(), wire.begin() + static_cast<std::ptrdiff_t>(question_end), wire.end());
}

/// An address whose first two qname labels have `length_class` + 2 digits
/// between them (class 0: "1.1", ..., class 4: "100.100").
net::Ipv4Addr length_class_host(std::uint32_t base, std::uint32_t length_class) {
  static constexpr std::uint32_t kOfDigits[] = {0, 1, 10, 100};
  const std::uint32_t d_digits = std::min<std::uint32_t>(length_class + 1, 3);
  const std::uint32_t c_digits = length_class + 2 - d_digits;
  return net::Ipv4Addr{(base << 16) | (kOfDigits[c_digits] << 8) | kOfDigits[d_digits]};
}

}  // namespace

const AnswerCache::Shard* AnswerCache::shard_for(std::uint32_t base) const noexcept {
  auto it = std::lower_bound(shards_.begin(), shards_.end(), base,
                             [](const Shard& s, std::uint32_t b) { return s.base < b; });
  if (it == shards_.end() || it->base != base) return nullptr;
  return &*it;
}

std::size_t AnswerCache::bytes() const noexcept {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    total += sizeof(Shard) + s.runs.size() * sizeof(Run) +
             s.offsets.size() * sizeof(std::uint32_t) + s.blob.size();
  }
  return total;
}

std::shared_ptr<const AnswerCache> AnswerCache::build(const std::vector<Source>& sources) {
  // Group the announced ranges by /16; first source listed wins overlaps.
  struct Range {
    std::uint32_t lo, hi;  // host parts, inclusive
    const AuthoritativeServer* server;
  };
  std::map<std::uint32_t, std::vector<Range>> by_base;
  for (const Source& src : sources) {
    if (src.server == nullptr || src.first.value() > src.last.value()) continue;
    for (std::uint32_t base = src.first.value() >> 16; base <= (src.last.value() >> 16);
         ++base) {
      const std::uint32_t lo =
          (base == src.first.value() >> 16) ? (src.first.value() & 0xFFFF) : 0;
      const std::uint32_t hi =
          (base == src.last.value() >> 16) ? (src.last.value() & 0xFFFF) : 0xFFFF;
      by_base[base].push_back(Range{lo, hi, src.server});
    }
  }

  auto cache = std::shared_ptr<AnswerCache>(new AnswerCache());
  std::vector<std::int32_t> answered_by(kHosts);
  for (auto& [base, ranges] : by_base) {
    // answered_by[host]: index into `servers` of the server that answers
    // the host from a compact /16 zone, or -1 (uncovered or not cached).
    // Painting the ranges last to first lets the first listed win.
    std::vector<Answering> servers;
    std::fill(answered_by.begin(), answered_by.end(), -1);
    for (auto r = ranges.rbegin(); r != ranges.rend(); ++r) {
      auto it = std::find_if(servers.begin(), servers.end(),
                             [&](const Answering& a) { return a.server == r->server; });
      if (it == servers.end()) it = servers.insert(servers.end(), answering(*r->server, base));
      const auto index = static_cast<std::int32_t>(it - servers.begin());
      std::fill(&answered_by[r->lo], &answered_by[r->hi] + 1, it->zone != nullptr ? index : -1);
    }

    Shard shard;
    shard.base = base;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (servers[i].zone == nullptr) continue;
      const auto mark = [&](net::Ipv4Addr a) {
        const std::uint32_t host = a.value() & 0xFFFF;
        if (answered_by[host] == static_cast<std::int32_t>(i)) {
          shard.explicit_bits[host >> 6] |= std::uint64_t{1} << (host & 63);
        }
      };
      servers[i].zone->for_each_ptr(
          [&](net::Ipv4Addr a, std::string_view, std::uint32_t) { mark(a); });
      for (const net::Ipv4Addr a : servers[i].zone->map_address_owners()) mark(a);
    }

    std::uint32_t explicit_hosts = 0;
    for (std::size_t w = 0; w < shard.rank.size(); ++w) {
      shard.rank[w] = explicit_hosts;
      explicit_hosts += static_cast<std::uint32_t>(std::popcount(shard.explicit_bits[w]));
    }
    shard.offsets.reserve(explicit_hosts + 5 * servers.size() + 1);
    for (std::uint32_t w = 0; w < shard.explicit_bits.size(); ++w) {
      for (std::uint64_t bits = shard.explicit_bits[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t host = w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        const Message query = make_ptr_query(0, net::Ipv4Addr{(base << 16) | host});
        append_entry(shard.offsets, shard.blob, query,
                     zone_reply(*servers[static_cast<std::size_t>(answered_by[host])].zone, query));
      }
    }
    std::vector<std::uint32_t> nxdomain(servers.size(), kNoEntry);
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (servers[i].zone == nullptr || !servers[i].shared_nxdomain) continue;
      nxdomain[i] = static_cast<std::uint32_t>(shard.offsets.size());
      for (std::uint32_t length_class = 0; length_class < 5; ++length_class) {
        const Message query = make_ptr_query(0, length_class_host(base, length_class));
        append_entry(shard.offsets, shard.blob, query,
                     negative_reply(*servers[i].zone, query, Rcode::NxDomain));
      }
    }
    shard.offsets.push_back(static_cast<std::uint32_t>(shard.blob.size()));

    cache->entries_ += explicit_hosts;
    for (std::uint32_t host = 0; host < kHosts; ++host) {
      const std::int32_t by = answered_by[host];
      const std::uint32_t nx = by < 0 ? kNoEntry : nxdomain[static_cast<std::size_t>(by)];
      if (shard.runs.empty() || shard.runs.back().nxdomain != nx) shard.runs.push_back({host, nx});
      if (nx != kNoEntry && (shard.explicit_bits[host >> 6] >> (host & 63) & 1) == 0) {
        ++cache->entries_;
      }
    }
    shard.blob.shrink_to_fit();
    cache->shards_.push_back(std::move(shard));
  }
  // std::map iteration is ordered, so shards_ is sorted by base already.
  return cache;
}

AnswerCache::Probe AnswerCache::probe(std::span<const std::uint8_t> query) const noexcept {
  return probe(scan_query(query));
}

AnswerCache::Probe AnswerCache::probe(const QueryView& query) const noexcept {
  Probe p;
  // One clean question in a standard query; AA/TC/RD bits are tolerated
  // (the codec clears them).
  if (!query.standard_query() || query.qdcount != 1 ||
      query.question != QueryView::Question::Clean) {
    return p;
  }
  p.question_end = query.question_end;
  p.edns = query.edns;

  // Records past the question other than the one OPT miss, so the
  // handler's full decoder stays authoritative.
  if (!query.bare()) return p;
  if (query.qtype != static_cast<std::uint16_t>(RrType::PTR) ||
      query.qclass != static_cast<std::uint16_t>(RrClass::IN) || query.label_count != 6 ||
      !util::iequals(query.label(4), "in-addr") || !util::iequals(query.label(5), "arpa")) {
    return p;
  }
  std::uint32_t octets[4];
  for (std::size_t i = 0; i < 4; ++i) {
    if (!parse_octet(query.label(i), octets[i])) return p;
  }
  // d.c.b.a.in-addr.arpa <-> a.b.c.d
  const std::uint32_t addr =
      (octets[3] << 24) | (octets[2] << 16) | (octets[1] << 8) | octets[0];
  p.cacheable = true;

  const Shard* shard = shard_for(addr >> 16);
  if (shard == nullptr) return p;
  const std::uint32_t host = addr & 0xFFFF;
  const std::uint64_t word = shard->explicit_bits[host >> 6];
  std::uint32_t entry = 0;
  if ((word >> (host & 63) & 1) != 0) {
    const std::uint64_t below = (std::uint64_t{1} << (host & 63)) - 1;
    entry = shard->rank[host >> 6] + static_cast<std::uint32_t>(std::popcount(word & below));
  } else {
    const auto run = std::prev(std::upper_bound(
        shard->runs.begin(), shard->runs.end(), host,
        [](std::uint32_t h, const Run& r) { return h < r.first; }));
    if (run->nxdomain == kNoEntry) return p;
    // The shared NXDOMAIN tail differs only by where its SOA owner points:
    // at the origin, past the first two labels (1-3 digits each).
    entry = run->nxdomain +
            static_cast<std::uint32_t>(query.label(0).size() + query.label(1).size() - 2);
  }
  const std::uint32_t off = shard->offsets[entry];
  const std::uint32_t end = shard->offsets[entry + 1];

  p.hit = true;
  p.rcode = static_cast<Rcode>(shard->blob[off]);
  p.ancount = get_u16(shard->blob.data() + off + 1);
  p.nscount = shard->blob[off + 3];
  p.tail = std::span<const std::uint8_t>(shard->blob.data() + off + 4, end - off - 4);
  return p;
}

std::size_t AnswerCache::assemble(const Probe& p, std::span<const std::uint8_t> query,
                                  std::uint8_t* out) noexcept {
  // Client header + question verbatim (case echo included), then patch the
  // header to exactly what encode(make_response(...)) emits: QR|AA set, RD
  // echoed, opcode 0, TC/RA/Z cleared, rcode + section counts ours.
  std::memcpy(out, query.data(), p.question_end);
  out[2] = static_cast<std::uint8_t>(0x84 | (query[2] & 0x01));
  out[3] = static_cast<std::uint8_t>(p.rcode);
  put_u16(out + 4, 1);
  put_u16(out + 6, p.ancount);
  put_u16(out + 8, p.nscount);
  put_u16(out + 10, 0);
  std::memcpy(out + p.question_end, p.tail.data(), p.tail.size());

  HitMetrics& m = hit_metrics();
  m.queries.inc();
  m.qtype_ptr.inc();
  if (p.ancount > 0) {
    m.answered.inc();
  } else if (p.rcode == Rcode::NxDomain) {
    m.nxdomain.inc();
  } else {
    m.nodata.inc();
  }
  return p.question_end + p.tail.size();
}

std::size_t AnswerCache::append_opt(std::uint8_t* reply, std::size_t len,
                                    std::uint16_t udp_size) noexcept {
  std::uint8_t* o = reply + len;
  o[0] = 0x00;            // root owner
  put_u16(o + 1, 41);     // TYPE = OPT
  put_u16(o + 3, udp_size);
  o[5] = o[6] = o[7] = o[8] = 0;  // extended RCODE/version/flags
  put_u16(o + 9, 0);      // RDLEN
  put_u16(reply + 10, static_cast<std::uint16_t>(get_u16(reply + 10) + 1));
  return len + 11;
}

std::size_t AnswerCache::truncate_to_tc(std::uint8_t* reply, std::size_t question_end,
                                        std::uint16_t opt_udp_size) noexcept {
  reply[2] |= 0x02;  // TC
  put_u16(reply + 6, 0);
  put_u16(reply + 8, 0);
  put_u16(reply + 10, 0);
  std::size_t len = question_end;
  if (opt_udp_size != 0) len = append_opt(reply, len, opt_udp_size);
  return len;
}

}  // namespace rdns::dns
