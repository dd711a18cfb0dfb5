#include "traffic.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "dns/admin.hpp"
#include "net/arpa.hpp"
#include "scan/permutation.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace perfbench {

using namespace rdns;

namespace {

constexpr std::uint16_t kTypeNs = 2;
constexpr std::uint16_t kTypeCname = 5;
constexpr std::uint16_t kTypePtr = 12;
constexpr std::uint16_t kTypeTxt = 16;
constexpr std::uint16_t kClassIn = 1;
constexpr std::uint16_t kClassCh = 3;

[[nodiscard]] std::uint16_t be16(std::span<const std::uint8_t> p, std::size_t at) noexcept {
  return static_cast<std::uint16_t>((p[at] << 8) | p[at + 1]);
}

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

[[nodiscard]] std::uint8_t lower(std::uint8_t c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<std::uint8_t>(c - 'A' + 'a') : c;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv(std::uint64_t h, std::uint8_t b) noexcept {
  return (h ^ b) * 0x100000001b3ULL;
}

/// Read a (possibly compressed) name at `pos`, hashing its lowercased
/// labels; advances `pos` past the name as it sits in the message.
[[nodiscard]] bool hash_name(std::span<const std::uint8_t> msg, std::size_t& pos,
                             std::uint64_t& h) noexcept {
  std::size_t p = pos;
  std::size_t end = 0;
  bool jumped = false;
  for (int hops = 0;;) {
    if (p >= msg.size()) return false;
    const std::uint8_t len = msg[p];
    if ((len & 0xC0) == 0xC0) {
      if (p + 1 >= msg.size() || ++hops > 64) return false;
      if (!jumped) end = p + 2;
      jumped = true;
      p = static_cast<std::size_t>(((len & 0x3F) << 8) | msg[p + 1]);
      continue;
    }
    if ((len & 0xC0) != 0) return false;
    h = fnv(h, len);
    if (len == 0) {
      if (!jumped) end = p + 1;
      break;
    }
    if (p + 1 + len > msg.size()) return false;
    for (std::size_t i = 0; i < len; ++i) h = fnv(h, lower(msg[p + 1 + i]));
    p += 1 + len;
  }
  pos = end;
  return true;
}

/// One DNS query datagram with a zero id: header, question, optional OPT.
std::uint16_t append_query(std::vector<std::uint8_t>& out, const std::string& qname,
                           std::uint16_t qtype, std::uint16_t qclass, std::uint16_t edns_size) {
  const std::size_t start = out.size();
  put16(out, 0);  // id, patched at send time
  put16(out, 0);  // flags: standard query, RD clear (queries go to the authority)
  put16(out, 1);
  put16(out, 0);
  put16(out, 0);
  put16(out, edns_size != 0 ? 1 : 0);
  std::size_t label = 0;
  for (std::size_t i = 0; i <= qname.size(); ++i) {
    if (i == qname.size() || qname[i] == '.') {
      if (i > label) {
        out.push_back(static_cast<std::uint8_t>(i - label));
        out.insert(out.end(), qname.begin() + static_cast<std::ptrdiff_t>(label),
                   qname.begin() + static_cast<std::ptrdiff_t>(i));
      }
      label = i + 1;
    }
  }
  out.push_back(0);
  put16(out, qtype);
  put16(out, qclass);
  const auto question_end = static_cast<std::uint16_t>(out.size() - start);
  if (edns_size != 0) {
    out.push_back(0);  // root owner
    put16(out, 41);    // OPT
    put16(out, edns_size);
    put16(out, 0);  // extended rcode + version
    put16(out, 0);  // flags
    put16(out, 0);  // RDLEN
  }
  return question_end;
}

class Builder {
 public:
  explicit Builder(Traffic& t) : t_(&t) {}
  void add(Kind kind, const std::string& qname, std::uint16_t qtype, std::uint16_t qclass,
           std::uint16_t edns_size) {
    const auto offset = static_cast<std::uint32_t>(t_->blob.size());
    const std::uint16_t qend = append_query(t_->blob, qname, qtype, qclass, edns_size);
    finish(kind, offset, qend);
  }
  void add_raw(Kind kind, const std::vector<std::uint8_t>& bytes, std::uint16_t question_end) {
    const auto offset = static_cast<std::uint32_t>(t_->blob.size());
    t_->blob.insert(t_->blob.end(), bytes.begin(), bytes.end());
    finish(kind, offset, question_end);
  }

 private:
  void finish(Kind kind, std::uint32_t offset, std::uint16_t qend) {
    Item item;
    item.offset = offset;
    item.length = static_cast<std::uint16_t>(t_->blob.size() - offset);
    item.question_end = qend;
    item.kind = kind;
    t_->items.push_back(item);
  }
  Traffic* t_;
};

std::string mixed_case(std::string name, util::Rng& rng) {
  for (char& c : name) {
    if (c >= 'a' && c <= 'z' && (rng.next() & 1) != 0) c = static_cast<char>(c - 'a' + 'A');
  }
  return name;
}

/// The last `keep` labels of `name`.
std::string suffix_labels(const std::string& name, std::size_t keep) {
  std::size_t labels = 1 + static_cast<std::size_t>(std::count(name.begin(), name.end(), '.'));
  std::size_t pos = 0;
  while (labels > keep) {
    pos = name.find('.', pos) + 1;
    --labels;
  }
  return name.substr(pos);
}

}  // namespace

const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::Ptr: return "ptr";
    case Kind::ThreeOctet: return "three_octet";
    case Kind::NsProbe: return "ns_probe";
    case Kind::Chaos: return "chaos";
    case Kind::Malformed: return "malformed";
  }
  return "?";
}

FrozenWorld freeze_world(std::uint64_t seed) {
  FrozenWorld fw;
  core::WorldScale scale;
  scale.population = 0.4;
  const std::int64_t t0 = mono_ns();
  fw.world = core::make_internet_world(seed, 24, scale);
  const std::int64_t t1 = mono_ns();
  const std::int64_t cpu1 = process_cpu_ns();
  const util::CivilDate date{2021, 1, 2};
  fw.world->start(util::add_days(date, -1), util::add_days(date, 1));
  fw.world->run_until(util::to_sim_time(date) + 14 * util::kHour);
  fw.now = fw.world->now();
  fw.build_s = static_cast<double>(t1 - t0) / 1e9;
  fw.run_until_s = static_cast<double>(mono_ns() - t1) / 1e9;
  fw.run_until_cpu_s = static_cast<double>(process_cpu_ns() - cpu1) / 1e9;
  return fw;
}

std::vector<std::uint32_t> announced_addresses(const sim::World& world) {
  std::vector<std::uint32_t> out;
  for (const auto& org : world.orgs()) {
    for (const auto& prefix : org->spec().announced) {
      for (std::uint64_t v = prefix.first().value(); v <= prefix.last().value(); ++v) {
        out.push_back(static_cast<std::uint32_t>(v));
      }
    }
  }
  return out;
}

Traffic sweep_traffic(const sim::World& world, std::uint64_t seed) {
  const std::vector<std::uint32_t> addresses = announced_addresses(world);
  Traffic t;
  t.blob.reserve(addresses.size() * 40);
  t.items.reserve(addresses.size());
  Builder b{t};
  scan::ScanPermutation perm{addresses.size(), seed};
  while (const auto index = perm.next()) {
    b.add(Kind::Ptr, net::to_arpa(net::Ipv4Addr{addresses[*index]}), kTypePtr, kClassIn, 0);
  }
  return t;
}

Traffic mix_traffic(const sim::World& world, std::uint64_t seed, std::size_t blocks) {
  std::vector<std::uint32_t> live;
  world.snapshot_ptrs([&](net::Ipv4Addr a, const dns::DnsName&) { live.push_back(a.value()); });
  if (live.empty()) throw std::runtime_error("mix_traffic: no live PTR at the freeze instant");
  util::Rng rng{util::mix64(seed ^ 0x5E5E5E5EULL)};
  std::shuffle(live.begin(), live.end(), rng);  // Zipf rank order
  std::vector<double> cdf(live.size());
  double total = 0;
  for (std::size_t k = 0; k < live.size(); ++k) cdf[k] = total += 1.0 / static_cast<double>(k + 1);
  auto zipf = [&]() -> std::string {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * total;
    const auto k = static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                            cdf.begin());
    return net::to_arpa(net::Ipv4Addr{live[std::min(k, live.size() - 1)]});
  };
  auto edns = [&]() -> std::uint16_t {
    static constexpr std::uint16_t kSizes[] = {1232, 4096, 1232, 512};
    return rng.next() % 10 < 8 ? kSizes[rng.next() % 4] : 0;
  };

  Traffic t;
  t.blob.reserve(blocks * kMixBlock * 48);
  t.items.reserve(blocks * kMixBlock);
  Builder b{t};
  std::vector<Kind> block;
  for (int i = 0; i < 14; ++i) block.push_back(Kind::Ptr);
  for (int i = 0; i < 2; ++i) block.push_back(Kind::ThreeOctet);
  for (int i = 0; i < 2; ++i) block.push_back(Kind::NsProbe);
  block.push_back(Kind::Chaos);
  block.push_back(Kind::Malformed);
  for (std::size_t n = 0; n < blocks; ++n) {
    std::shuffle(block.begin(), block.end(), rng);
    for (const Kind kind : block) {
      switch (kind) {
        case Kind::Ptr:
          b.add(kind, mixed_case(zipf(), rng), kTypePtr, kClassIn, edns());
          break;
        case Kind::ThreeOctet:
          b.add(kind, mixed_case(suffix_labels(zipf(), 5), rng), kTypePtr, kClassIn, edns());
          break;
        case Kind::NsProbe:
          // A qname-minimising resolver walks down: arpa's children first.
          b.add(kind, mixed_case(suffix_labels(zipf(), 2 + rng.next() % 4), rng), kTypeNs,
                kClassIn, edns());
          break;
        case Kind::Chaos:
          b.add(kind, "version.bind", kTypeTxt, kClassCh, edns());
          break;
        case Kind::Malformed: {
          std::vector<std::uint8_t> q;
          const std::uint16_t qend = append_query(q, zipf(), kTypePtr, kClassIn, edns());
          switch (rng.next() % 6) {
            case 0: q.resize(1 + rng.next() % 11); break;  // shorter than a header
            case 1: q[2] |= 0x80; break;                    // QR set: a response
            case 2: q[5] = 0; break;                        // QDCOUNT 0
            case 3: q[5] = 2; break;                        // QDCOUNT 2
            case 4: q.resize(13 + rng.next() % (qend - 13)); break;  // cut question
            default: q[13 + rng.next() % (q[12])] = ' '; break;      // non-LDH label
          }
          const dns::WireVerdict v = dns::classify_query(q, /*restrict_ptr=*/true).verdict;
          if (v != dns::WireVerdict::SilentDrop && v != dns::WireVerdict::FormErr) {
            throw std::logic_error("mix_traffic: malformed datagram classified as " +
                                   std::string(dns::to_string(v)));
          }
          b.add_raw(kind, q, 0);
          break;
        }
      }
    }
  }
  return t;
}

void compute_expectations(Traffic& traffic, const sim::World& world, util::SimTime now,
                          unsigned threads, bool distinct) {
  // Unless every datagram is `distinct`, datagrams with the same reference
  // outcome share one Expect: answered queries by their case-folded
  // question, guard outcomes by their bytes.
  std::vector<std::uint32_t> representative;
  std::vector<dns::Classified> verdicts(traffic.items.size());
  {
    std::unordered_map<std::string, std::uint32_t> seen;
    for (std::size_t i = 0; i < traffic.items.size(); ++i) {
      Item& item = traffic.items[i];
      const auto bytes = traffic.bytes(item);
      verdicts[i] = dns::classify_query(bytes, /*restrict_ptr=*/true);
      if (distinct) {
        item.expect = static_cast<std::uint32_t>(representative.size());
        representative.push_back(static_cast<std::uint32_t>(i));
        continue;
      }
      std::string key;
      if (verdicts[i].verdict == dns::WireVerdict::Answer) {
        key.push_back('A');
        for (std::size_t k = 12; k < item.question_end; ++k) {
          key.push_back(static_cast<char>(lower(bytes[k])));
        }
      } else {
        key.push_back('G');
        key.append(bytes.begin() + std::min<std::size_t>(2, bytes.size()), bytes.end());
      }
      const auto [it, inserted] =
          seen.emplace(std::move(key), static_cast<std::uint32_t>(representative.size()));
      if (inserted) representative.push_back(static_cast<std::uint32_t>(i));
      item.expect = it->second;
    }
  }

  traffic.expects.assign(representative.size(), Expect{});
  auto work = [&](std::size_t begin, std::size_t end) {
    sim::FrozenDnsView view{world};
    dns::ServeIntrospection introspection{1, dns::ServeAdminConfig{}};
    const auto handler = introspection.wrap_chaos(
        [&view, now](std::span<const std::uint8_t> q) { return view.exchange(q, now); });
    for (std::size_t j = begin; j < end; ++j) {
      const std::size_t i = representative[j];
      const auto bytes = traffic.bytes(traffic.items[i]);
      const dns::Classified& c = verdicts[i];
      Expect& e = traffic.expects[j];
      if (c.verdict == dns::WireVerdict::SilentDrop) {
        e.silent = true;
      } else if (c.verdict != dns::WireVerdict::Answer) {
        const dns::Rcode rcode = guard_rcode(c.verdict);
        e.guard = true;
        e.rcode = static_cast<std::uint8_t>(rcode);
        e.digest = digest_guard(dns::make_guard_response(bytes, c.question_end, rcode, false));
      } else if (const auto reply = handler(bytes)) {
        const ReplyDigest d = digest_reply(*reply);
        e.rcode = d.rcode;
        e.ancount = d.ancount;
        e.digest = d.hash;
      } else {
        e.silent = true;
      }
    }
  };
  const std::size_t n = representative.size();
  threads = std::max(1u, threads);
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(work, n * t / threads, n * (t + 1) / threads);
  }
  work(0, n / threads);
  for (auto& th : pool) th.join();
}

dns::Rcode guard_rcode(dns::WireVerdict verdict) noexcept {
  switch (verdict) {
    case dns::WireVerdict::FormErr: return dns::Rcode::FormErr;
    case dns::WireVerdict::NotImp: return dns::Rcode::NotImp;
    default: return dns::Rcode::Refused;
  }
}

ReplyDigest digest_reply(std::span<const std::uint8_t> reply) noexcept {
  ReplyDigest d;
  if (reply.size() < 12) return d;
  const std::uint16_t flags = be16(reply, 2);
  d.rcode = static_cast<std::uint8_t>(flags & 0xF);
  d.ancount = be16(reply, 6);
  std::size_t pos = 12;
  for (std::uint16_t q = be16(reply, 4); q > 0; --q) {
    std::uint64_t ignored = 0;
    if (!hash_name(reply, pos, ignored) || pos + 4 > reply.size()) return d;
    pos += 4;
  }
  std::uint64_t h = kFnvOffset;
  for (std::uint16_t i = 0; i < d.ancount; ++i) {
    if (!hash_name(reply, pos, h) || pos + 10 > reply.size()) return d;
    const std::uint16_t type = be16(reply, pos);
    for (std::size_t k = 0; k < 8; ++k) h = fnv(h, reply[pos + k]);  // type, class, TTL
    const std::size_t rdlen = be16(reply, pos + 8);
    const std::size_t rdata = pos + 10;
    if (rdata + rdlen > reply.size()) return d;
    if (type == kTypePtr || type == kTypeNs || type == kTypeCname) {
      std::size_t p = rdata;
      if (!hash_name(reply, p, h)) return d;
    } else {
      for (std::size_t k = 0; k < rdlen; ++k) h = fnv(h, reply[rdata + k]);
    }
    pos = rdata + rdlen;
  }
  d.hash = h;
  d.ok = (flags & 0x8000) != 0;
  return d;
}

std::uint64_t digest_guard(std::span<const std::uint8_t> reply) noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 2; i < reply.size(); ++i) h = fnv(h, reply[i]);
  return h;
}

bool reply_matches(std::span<const std::uint8_t> query, std::uint16_t question_end,
                   std::uint16_t id, std::span<const std::uint8_t> reply,
                   const Expect& e) noexcept {
  if (e.silent || reply.size() < 12 || be16(reply, 0) != id) return false;
  if (e.guard) {
    return (reply[3] & 0xF) == e.rcode && (reply[2] & 0x80) != 0 && digest_guard(reply) == e.digest;
  }
  const ReplyDigest d = digest_reply(reply);
  if (!d.ok || d.rcode != e.rcode || d.ancount != e.ancount || d.hash != e.digest) return false;
  if (question_end > 12) {
    if (reply.size() < question_end || be16(reply, 4) != 1) return false;
    for (std::size_t i = 12; i < question_end; ++i) {
      if (i >= query.size() || lower(reply[i]) != lower(query[i])) return false;
    }
  }
  return true;
}

std::vector<double> kind_shares(const Traffic& traffic, std::size_t n) {
  std::vector<double> shares(kKinds, 0.0);
  n = std::min(n, traffic.items.size());
  for (std::size_t i = 0; i < n; ++i) shares[static_cast<int>(traffic.items[i].kind)] += 1.0;
  for (double& s : shares) s = n > 0 ? s / static_cast<double>(n) : 0.0;
  return shares;
}

}  // namespace perfbench
