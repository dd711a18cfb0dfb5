#include "dns/wire.hpp"

#include <cstring>

#include "util/strings.hpp"

namespace rdns::dns {

namespace {

constexpr std::size_t kMaxCompressionOffset = 0x3FFF;
constexpr int kMaxPointerDepth = 32;  // guards against pointer loops

/// Canonical suffix string for compression dictionary keys.
[[nodiscard]] std::string suffix_key(const DnsName& n, std::size_t from_label) {
  std::string key;
  const auto& labels = n.labels();
  for (std::size_t i = from_label; i < labels.size(); ++i) {
    key += util::to_lower(labels[i]);
    key.push_back('.');
  }
  return key;
}

[[nodiscard]] std::uint16_t flags_to_u16(const Flags& f) noexcept {
  std::uint16_t v = 0;
  v |= static_cast<std::uint16_t>(f.qr ? 0x8000 : 0);
  v |= static_cast<std::uint16_t>((static_cast<std::uint16_t>(f.opcode) & 0xF) << 11);
  v |= static_cast<std::uint16_t>(f.aa ? 0x0400 : 0);
  v |= static_cast<std::uint16_t>(f.tc ? 0x0200 : 0);
  v |= static_cast<std::uint16_t>(f.rd ? 0x0100 : 0);
  v |= static_cast<std::uint16_t>(f.ra ? 0x0080 : 0);
  v |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(f.rcode) & 0xF);
  return v;
}

[[nodiscard]] Flags flags_from_u16(std::uint16_t v) noexcept {
  Flags f;
  f.qr = (v & 0x8000) != 0;
  f.opcode = static_cast<Opcode>((v >> 11) & 0xF);
  f.aa = (v & 0x0400) != 0;
  f.tc = (v & 0x0200) != 0;
  f.rd = (v & 0x0100) != 0;
  f.ra = (v & 0x0080) != 0;
  f.rcode = static_cast<Rcode>(v & 0xF);
  return f;
}

}  // namespace

// ---------------------------------------------------------------- writer --

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void WireWriter::name(const DnsName& n) {
  const auto& labels = n.labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    // Longest-suffix match against already-encoded names.
    const std::string key = suffix_key(n, i);
    for (const auto& [target_key, offset] : targets_) {
      if (target_key == key) {
        u16(static_cast<std::uint16_t>(0xC000 | offset));
        return;
      }
    }
    if (buf_.size() <= kMaxCompressionOffset) {
      targets_.emplace_back(key, static_cast<std::uint16_t>(buf_.size()));
    }
    const std::string& label = labels[i];
    u8(static_cast<std::uint8_t>(label.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(label.data()), label.size()});
  }
  u8(0);  // root
}

void WireWriter::name_uncompressed(const DnsName& n) {
  for (const auto& label : n.labels()) {
    u8(static_cast<std::uint8_t>(label.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(label.data()), label.size()});
  }
  u8(0);
}

void WireWriter::question(const Question& q) {
  name(q.qname);
  u16(static_cast<std::uint16_t>(q.qtype));
  u16(static_cast<std::uint16_t>(q.qclass));
}

void WireWriter::rdata(const Rdata& rd) {
  struct Visitor {
    WireWriter& w;
    void operator()(const ARdata& r) { w.u32(r.address.value()); }
    void operator()(const NsRdata& r) { w.name(r.nsdname); }
    void operator()(const CnameRdata& r) { w.name(r.cname); }
    void operator()(const SoaRdata& r) {
      w.name(r.mname);
      w.name(r.rname);
      w.u32(r.serial);
      w.u32(r.refresh);
      w.u32(r.retry);
      w.u32(r.expire);
      w.u32(r.minimum);
    }
    void operator()(const PtrRdata& r) { w.name(r.ptrdname); }
    void operator()(const TxtRdata& r) {
      for (const auto& s : r.strings) {
        w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(s.size(), 255)));
        w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()),
                 std::min<std::size_t>(s.size(), 255)});
      }
    }
    void operator()(const RawRdata& r) { w.bytes(r.data); }
  };
  std::visit(Visitor{*this}, rd);
}

void WireWriter::rr(const ResourceRecord& r) {
  name(r.name);
  u16(static_cast<std::uint16_t>(r.type()));
  u16(static_cast<std::uint16_t>(r.klass));
  u32(r.ttl);
  // Reserve RDLENGTH, encode RDATA, backpatch.
  const std::size_t len_pos = buf_.size();
  u16(0);
  const std::size_t rdata_start = buf_.size();
  rdata(r.rdata);
  const std::size_t rdlen = buf_.size() - rdata_start;
  if (rdlen > 0xFFFF) throw WireError("rr: RDATA exceeds 65535 octets");
  buf_[len_pos] = static_cast<std::uint8_t>(rdlen >> 8);
  buf_[len_pos + 1] = static_cast<std::uint8_t>(rdlen);
}

// ---------------------------------------------------------------- reader --

void WireReader::require(std::size_t n) const {
  if (pos_ + n > wire_.size()) throw WireError("decode: truncated message");
}

std::uint8_t WireReader::u8() {
  require(1);
  return wire_[pos_++];
}

std::uint16_t WireReader::u16() {
  require(2);
  const std::uint16_t v = static_cast<std::uint16_t>((wire_[pos_] << 8) | wire_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  require(4);
  const std::uint32_t v = (static_cast<std::uint32_t>(wire_[pos_]) << 24) |
                          (static_cast<std::uint32_t>(wire_[pos_ + 1]) << 16) |
                          (static_cast<std::uint32_t>(wire_[pos_ + 2]) << 8) |
                          static_cast<std::uint32_t>(wire_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::vector<std::uint8_t> WireReader::bytes(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(wire_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                wire_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

DnsName WireReader::name_at(std::size_t& pos, int depth) const {
  if (depth > kMaxPointerDepth) throw WireError("decode: compression pointer loop");
  std::vector<std::string> labels;
  std::size_t total_octets = 1;  // root label
  while (true) {
    if (pos >= wire_.size()) throw WireError("decode: truncated name");
    const std::uint8_t len = wire_[pos];
    if ((len & 0xC0) == 0xC0) {
      if (pos + 1 >= wire_.size()) throw WireError("decode: truncated compression pointer");
      std::size_t target = static_cast<std::size_t>((len & 0x3F) << 8 | wire_[pos + 1]);
      pos += 2;
      if (target >= wire_.size()) throw WireError("decode: compression pointer out of range");
      const DnsName rest = name_at(target, depth + 1);
      for (const auto& l : rest.labels()) {
        total_octets += l.size() + 1;
        if (total_octets > 255) throw WireError("decode: name exceeds 255 octets");
        labels.push_back(l);
      }
      return DnsName{std::move(labels)};
    }
    if ((len & 0xC0) != 0) throw WireError("decode: reserved label type");
    ++pos;
    if (len == 0) return DnsName{std::move(labels)};
    if (pos + len > wire_.size()) throw WireError("decode: truncated label");
    std::string label{reinterpret_cast<const char*>(wire_.data() + pos), len};
    // DnsName enforces LDH labels and the 255-octet bound; surface wire
    // corruption as WireError rather than letting its ctor throw.
    if (!is_valid_label(label)) throw WireError("decode: invalid label bytes");
    total_octets += label.size() + 1;
    if (total_octets > 255) throw WireError("decode: name exceeds 255 octets");
    labels.push_back(std::move(label));
    pos += len;
  }
}

DnsName WireReader::name() { return name_at(pos_, 0); }

Question WireReader::question() {
  Question q;
  q.qname = name();
  q.qtype = static_cast<RrType>(u16());
  q.qclass = static_cast<RrClass>(u16());
  return q;
}

Rdata WireReader::rdata(RrType type, std::uint16_t rdlength) {
  const std::size_t end = pos_ + rdlength;
  require(rdlength);
  // Empty RDATA is legitimate for RFC 2136 delete-RRset tombstones (class
  // ANY/NONE, TTL 0); decode it as an uninterpreted record of the type.
  if (rdlength == 0) return RawRdata{static_cast<std::uint16_t>(type), {}};
  Rdata out;
  switch (type) {
    case RrType::A: {
      if (rdlength != 4) throw WireError("decode: A RDATA must be 4 octets");
      out = ARdata{net::Ipv4Addr{u32()}};
      break;
    }
    case RrType::NS:
      out = NsRdata{name()};
      break;
    case RrType::CNAME:
      out = CnameRdata{name()};
      break;
    case RrType::SOA: {
      SoaRdata soa;
      soa.mname = name();
      soa.rname = name();
      soa.serial = u32();
      soa.refresh = u32();
      soa.retry = u32();
      soa.expire = u32();
      soa.minimum = u32();
      out = std::move(soa);
      break;
    }
    case RrType::PTR:
      out = PtrRdata{name()};
      break;
    case RrType::TXT: {
      TxtRdata txt;
      while (pos_ < end) {
        const std::uint8_t len = u8();
        const auto data = bytes(len);
        txt.strings.emplace_back(reinterpret_cast<const char*>(data.data()), data.size());
      }
      out = std::move(txt);
      break;
    }
    default:
      out = RawRdata{static_cast<std::uint16_t>(type), bytes(rdlength)};
      break;
  }
  if (pos_ != end) throw WireError("decode: RDATA length mismatch");
  return out;
}

ResourceRecord WireReader::rr() {
  ResourceRecord r;
  r.name = name();
  const auto type = static_cast<RrType>(u16());
  r.klass = static_cast<RrClass>(u16());
  r.ttl = u32();
  const std::uint16_t rdlength = u16();
  r.rdata = rdata(type, rdlength);
  return r;
}

// ------------------------------------------------------------------ scan --

QueryView scan_query(std::span<const std::uint8_t> wire) noexcept {
  QueryView v;
  v.wire = wire;
  if (wire.size() < 12) return v;
  const auto u16_at = [wire](std::size_t at) {
    return static_cast<std::uint16_t>((wire[at] << 8) | wire[at + 1]);
  };
  v.header = true;
  v.id = u16_at(0);
  v.flags = u16_at(2);
  v.qdcount = u16_at(4);
  v.ancount = u16_at(6);
  v.nscount = u16_at(8);
  v.arcount = u16_at(10);
  if (v.qdcount == 0) {
    v.question_end = 12;
    return v;
  }

  // name_at's rules, label by label, without building the name.
  v.question = QueryView::Question::Malformed;
  std::size_t pos = 12;
  std::size_t octets = 1;  // root label
  for (;;) {
    if (pos >= wire.size()) return v;
    const std::uint8_t len = wire[pos];
    if ((len & 0xC0) == 0xC0) {
      v.question = QueryView::Question::Compressed;
      if (pos + 6 <= wire.size()) {
        v.qtype = u16_at(pos + 2);
        v.qclass = u16_at(pos + 4);
      }
      return v;
    }
    if ((len & 0xC0) != 0) return v;  // reserved label type
    if (len == 0) break;
    if (pos + 1 + len > wire.size()) return v;
    if (!is_valid_label({reinterpret_cast<const char*>(wire.data() + pos + 1), len})) return v;
    octets += std::size_t{len} + 1;
    if (octets > 255) return v;
    v.label_at[v.label_count++] = static_cast<std::uint8_t>(pos - 12);
    pos += 1 + std::size_t{len};
  }
  const std::size_t end = pos + 1 + 4;  // root octet, QTYPE, QCLASS
  if (end > wire.size()) return v;
  v.question = QueryView::Question::Clean;
  v.qtype = u16_at(end - 4);
  v.qclass = u16_at(end - 2);
  if (v.qdcount != 1) return v;
  v.question_end = end;
  if (v.ancount == 0 && v.nscount == 0 && v.arcount == 1 && end + 11 <= wire.size() &&
      wire[end] == 0x00 && u16_at(end + 1) == 41 && end + 11 + u16_at(end + 9) == wire.size()) {
    v.edns = true;
    v.edns_udp_size = u16_at(end + 3);
  }
  return v;
}

// --------------------------------------------------------------- message --

std::vector<std::uint8_t> encode(const Message& m) {
  WireWriter w;
  w.u16(m.id);
  w.u16(flags_to_u16(m.flags));
  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(static_cast<std::uint16_t>(m.authority.size()));
  w.u16(static_cast<std::uint16_t>(m.additional.size()));
  for (const auto& q : m.questions) w.question(q);
  for (const auto& r : m.answers) w.rr(r);
  for (const auto& r : m.authority) w.rr(r);
  for (const auto& r : m.additional) w.rr(r);
  return w.take();
}

Message decode(std::span<const std::uint8_t> wire) {
  WireReader r{wire};
  Message m;
  m.id = r.u16();
  m.flags = flags_from_u16(r.u16());
  const std::uint16_t qd = r.u16();
  const std::uint16_t an = r.u16();
  const std::uint16_t ns = r.u16();
  const std::uint16_t ar = r.u16();
  m.questions.reserve(qd);
  for (std::uint16_t i = 0; i < qd; ++i) m.questions.push_back(r.question());
  m.answers.reserve(an);
  for (std::uint16_t i = 0; i < an; ++i) m.answers.push_back(r.rr());
  m.authority.reserve(ns);
  for (std::uint16_t i = 0; i < ns; ++i) m.authority.push_back(r.rr());
  m.additional.reserve(ar);
  for (std::uint16_t i = 0; i < ar; ++i) m.additional.push_back(r.rr());
  return m;
}

}  // namespace rdns::dns
