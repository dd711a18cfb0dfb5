#include "dns/answer_cache.hpp"

#include <algorithm>
#include <cstring>
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
    total += s.blob.size() + s.offsets.size() * sizeof(std::uint32_t);
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
  for (auto& [base, ranges] : by_base) {
    Shard shard;
    shard.base = base;
    shard.offsets.resize(0x10000 + 1, 0);
    for (std::uint32_t host = 0; host < 0x10000; ++host) {
      shard.offsets[host] = static_cast<std::uint32_t>(shard.blob.size());
      const Range* covering = nullptr;
      for (const Range& r : ranges) {
        if (host >= r.lo && host <= r.hi) {
          covering = &r;
          break;
        }
      }
      if (covering == nullptr) continue;

      // Replicate answer_query through the reference codec, without the
      // stats/metrics/fault side effects of handle_readonly. The live
      // path's verdict for this address is a pure function of the frozen
      // zone, so the pre-encoded tail is exact.
      const net::Ipv4Addr addr{(base << 16) | host};
      const Message query = make_ptr_query(0, addr);
      const Question& q = query.questions.front();
      const Zone* zone = covering->server->find_zone(q.qname);
      if (zone == nullptr) continue;  // handler would refuse; leave uncached

      Message response;
      auto answers = zone->find(q.qname, RrType::PTR);
      if (!answers.empty()) {
        response = make_response(query, Rcode::NoError);
        response.answers = std::move(answers);
      } else {
        const bool exists = zone->has_name(q.qname);
        response = make_response(query, exists ? Rcode::NoError : Rcode::NxDomain);
        response.authority.push_back(
            make_soa(zone->origin(), zone->soa(), zone->soa().minimum));
      }

      const std::vector<std::uint8_t> wire = encode(response);
      const std::size_t question_end = 12 + q.qname.wire_length() + 4;
      shard.blob.push_back(static_cast<std::uint8_t>(response.flags.rcode));
      shard.blob.push_back(static_cast<std::uint8_t>(response.answers.size() >> 8));
      shard.blob.push_back(static_cast<std::uint8_t>(response.answers.size() & 0xFF));
      shard.blob.push_back(static_cast<std::uint8_t>(response.authority.size()));
      shard.blob.insert(shard.blob.end(), wire.begin() + static_cast<std::ptrdiff_t>(question_end),
                        wire.end());
      ++cache->entries_;
    }
    shard.offsets[0x10000] = static_cast<std::uint32_t>(shard.blob.size());
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
  const std::uint32_t off = shard->offsets[host];
  const std::uint32_t end = shard->offsets[host + 1];
  if (off == end) return p;

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
