#include "dns/zone.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "net/arpa.hpp"
#include "util/strings.hpp"

namespace rdns::dns {

namespace {

std::atomic<ZoneStorage> g_default_storage{ZoneStorage::Compact};

/// Parse a decimal octet label (0..255, no leading zeros — "01" is a
/// different DnsName than "1" and must stay in the map).
[[nodiscard]] bool parse_octet(const std::string& label, int* value) noexcept {
  if (label.empty() || label.size() > 3) return false;
  if (label.size() > 1 && label[0] == '0') return false;
  int v = 0;
  for (const char c : label) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  if (v > 255) return false;
  *value = v;
  return true;
}

/// True when `origin` is a /16 reverse zone B.A.in-addr.arpa; sets `base`
/// to the network address A.B.0.0.
[[nodiscard]] bool reverse_slash16_base(const DnsName& origin, std::uint32_t* base) noexcept {
  const auto& labels = origin.labels();
  if (labels.size() != 4) return false;
  if (!util::iequals(labels[2], "in-addr") || !util::iequals(labels[3], "arpa")) return false;
  int b = 0;
  int a = 0;
  if (!parse_octet(labels[0], &b) || !parse_octet(labels[1], &a)) return false;
  *base = (static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16);
  return true;
}

}  // namespace

void Zone::set_default_storage(ZoneStorage mode) noexcept {
  g_default_storage.store(mode, std::memory_order_relaxed);
}

ZoneStorage Zone::default_storage() noexcept {
  return g_default_storage.load(std::memory_order_relaxed);
}

Zone::Zone(DnsName origin, SoaRdata soa, util::NamePool* pool)
    : origin_(std::move(origin)), soa_(std::move(soa)) {
  std::uint32_t base = 0;
  if (default_storage() == ZoneStorage::Compact && reverse_slash16_base(origin_, &base)) {
    if (pool == nullptr) {
      owned_pool_ = std::make_unique<util::NamePool>();
      pool = owned_pool_.get();
    }
    ptrs_ = std::make_unique<CompactPtrStore>(pool, base);
  }
  add(make_ns(origin_, soa_.mname));
}

Zone::~Zone() = default;

bool Zone::contains(const DnsName& name) const noexcept { return name.ends_with(origin_); }

void Zone::bump_serial() noexcept { ++soa_.serial; }

bool Zone::classify(const DnsName& name, std::uint16_t* offset) const noexcept {
  if (ptrs_ == nullptr) return false;
  const auto& labels = name.labels();
  if (labels.size() != 6 || !name.ends_with(origin_)) return false;
  int d = 0;
  int c = 0;
  if (!parse_octet(labels[0], &d) || !parse_octet(labels[1], &c)) return false;
  *offset = static_cast<std::uint16_t>((c << 8) | d);
  return true;
}

DnsName Zone::owner_name(std::uint16_t offset) const {
  return DnsName::must_parse(net::to_arpa(ptrs_->address_of(offset)));
}

void Zone::add(const ResourceRecord& rr) {
  if (!contains(rr.name)) {
    throw std::invalid_argument("Zone::add: owner " + rr.name.to_string() + " outside zone " +
                                origin_.to_string());
  }
  std::uint16_t offset = 0;
  if (rr.type() == RrType::PTR && classify(rr.name, &offset)) {
    const auto& ptr = std::get<PtrRdata>(rr.rdata);
    if (!ptrs_->add(offset, ptr.ptrdname, rr.ttl)) return;  // exact duplicate
    ++record_count_;
    bump_serial();
    return;
  }
  auto& rrs = records_[rr.name];
  if (std::find(rrs.begin(), rrs.end(), rr) != rrs.end()) return;  // exact duplicate
  rrs.push_back(rr);
  ++record_count_;
  bump_serial();
}

std::size_t Zone::remove(const DnsName& name, RrType type) {
  std::uint16_t offset = 0;
  if (type == RrType::PTR && classify(name, &offset)) {
    const std::size_t removed = ptrs_->remove_owner(offset);
    if (removed > 0) {
      record_count_ -= removed;
      bump_serial();
    }
    return removed;
  }
  const auto it = records_.find(name);
  if (it == records_.end()) return 0;
  auto& rrs = it->second;
  const auto new_end = std::remove_if(rrs.begin(), rrs.end(),
                                      [type](const ResourceRecord& r) { return r.type() == type; });
  const auto removed = static_cast<std::size_t>(rrs.end() - new_end);
  rrs.erase(new_end, rrs.end());
  if (rrs.empty()) records_.erase(it);
  if (removed > 0) {
    record_count_ -= removed;
    bump_serial();
  }
  return removed;
}

bool Zone::remove_exact(const ResourceRecord& rr) {
  std::uint16_t offset = 0;
  if (rr.type() == RrType::PTR && classify(rr.name, &offset)) {
    const auto& ptr = std::get<PtrRdata>(rr.rdata);
    if (!ptrs_->remove_exact(offset, ptr.ptrdname, rr.ttl)) return false;
    --record_count_;
    bump_serial();
    return true;
  }
  const auto it = records_.find(rr.name);
  if (it == records_.end()) return false;
  auto& rrs = it->second;
  const auto pos = std::find(rrs.begin(), rrs.end(), rr);
  if (pos == rrs.end()) return false;
  rrs.erase(pos);
  if (rrs.empty()) records_.erase(it);
  --record_count_;
  bump_serial();
  return true;
}

std::size_t Zone::remove_all(const DnsName& name) {
  std::size_t removed = 0;
  std::uint16_t offset = 0;
  if (classify(name, &offset)) removed += ptrs_->remove_owner(offset);
  const auto it = records_.find(name);
  if (it != records_.end()) {
    removed += it->second.size();
    records_.erase(it);
  }
  if (removed > 0) {
    record_count_ -= removed;
    bump_serial();
  }
  return removed;
}

std::vector<ResourceRecord> Zone::find(const DnsName& name, RrType type) const {
  std::vector<ResourceRecord> out;
  if (type == RrType::SOA && name == origin_) {
    out.push_back(make_soa(origin_, soa_));
    return out;
  }
  std::uint16_t offset = 0;
  if ((type == RrType::PTR || type == RrType::ANY) && classify(name, &offset) &&
      ptrs_->has(offset)) {
    std::vector<CompactPtrStore::Found> found;
    ptrs_->find(offset, found);
    const DnsName owner = owner_name(offset);  // stored-case (lowercase) owner, as the map kept
    for (const auto& f : found) {
      out.push_back(make_ptr(owner, DnsName::must_parse(f.target), f.ttl));
    }
  }
  const auto it = records_.find(name);
  if (it == records_.end()) return out;
  for (const auto& rr : it->second) {
    if (type == RrType::ANY || rr.type() == type) out.push_back(rr);
  }
  return out;
}

bool Zone::has_name(const DnsName& name) const noexcept {
  if (name == origin_) return true;  // apex always has the SOA
  std::uint16_t offset = 0;
  if (classify(name, &offset) && ptrs_->has(offset)) return true;
  return records_.find(name) != records_.end();
}

std::size_t Zone::name_count() const noexcept {
  std::size_t n = records_.size();
  if (ptrs_ != nullptr && !ptrs_->empty()) {
    n += ptrs_->owner_count();
    // Owners living in both stores (compact PTR + map TXT, say) count once.
    std::uint16_t offset = 0;
    for (const auto& [name, rrs] : records_) {
      if (classify(name, &offset) && ptrs_->has(offset)) --n;
    }
  }
  return n;
}

std::size_t Zone::ptr_count() const noexcept {
  std::size_t n = ptrs_ != nullptr ? ptrs_->record_count() : 0;
  for (const auto& [name, rrs] : records_) {
    for (const auto& rr : rrs) {
      if (rr.type() == RrType::PTR) ++n;
    }
  }
  return n;
}

std::vector<ResourceRecord> Zone::dump() const {
  std::vector<ResourceRecord> out;
  out.reserve(record_count_ + 1);
  out.push_back(make_soa(origin_, soa_));
  for_each([&out](const ResourceRecord& rr) { out.push_back(rr); });
  return out;
}

void Zone::for_each(const std::function<void(const ResourceRecord&)>& fn) const {
  if (ptrs_ == nullptr || ptrs_->empty()) {
    for (const auto& [name, rrs] : records_) {
      for (const auto& rr : rrs) fn(rr);
    }
    return;
  }
  // Merge the compact cursor (canonical owner order by construction) with
  // the map walk (canonical order by comparator); at an owner present in
  // both, PTRs come first — matching the map's insertion order, where the
  // bridge adds the PTR before any annotation records.
  auto cur = ptrs_->cursor();
  bool cur_valid = cur.next();
  DnsName cur_owner;
  std::uint16_t cur_offset = 0;
  if (cur_valid) {
    cur_offset = cur.offset();
    cur_owner = owner_name(cur_offset);
  }
  auto it = records_.begin();
  while (cur_valid || it != records_.end()) {
    const bool take_compact =
        cur_valid && (it == records_.end() || !(it->first < cur_owner));
    if (take_compact) {
      fn(make_ptr(cur_owner, DnsName::must_parse(std::string{cur.target()}), cur.ttl()));
      cur_valid = cur.next();
      if (cur_valid && cur.offset() != cur_offset) {
        cur_offset = cur.offset();
        cur_owner = owner_name(cur_offset);
      }
    } else {
      for (const auto& rr : it->second) fn(rr);
      ++it;
    }
  }
}

void Zone::for_each_ptr(
    const std::function<void(net::Ipv4Addr, std::string_view, std::uint32_t)>& fn) const {
  if (ptrs_ != nullptr && !ptrs_->empty()) {
    bool map_has_ptr = false;
    for (const auto& [name, rrs] : records_) {
      for (const auto& rr : rrs) {
        if (rr.type() == RrType::PTR) {
          map_has_ptr = true;
          break;
        }
      }
      if (map_has_ptr) break;
    }
    if (!map_has_ptr) {
      // The hot path: no DnsName or ResourceRecord is ever built.
      auto cur = ptrs_->cursor();
      while (cur.next()) fn(ptrs_->address_of(cur.offset()), cur.target(), cur.ttl());
      return;
    }
    // Mixed stores hold PTRs (only possible via hand-built zones): fall
    // back to the merged record walk to keep canonical order.
    std::string scratch;
    for_each([&](const ResourceRecord& rr) {
      if (const auto* ptr = std::get_if<PtrRdata>(&rr.rdata)) {
        if (const auto a = net::from_arpa(rr.name.to_string())) {
          scratch = ptr->ptrdname.to_string();
          fn(*a, scratch, rr.ttl);
        }
      }
    });
    return;
  }
  std::string scratch;
  for (const auto& [name, rrs] : records_) {
    for (const auto& rr : rrs) {
      if (const auto* ptr = std::get_if<PtrRdata>(&rr.rdata)) {
        if (const auto a = net::from_arpa(name.to_string())) {
          scratch = ptr->ptrdname.to_string();
          fn(*a, scratch, rr.ttl);
        }
      }
    }
  }
}

std::vector<net::Ipv4Addr> Zone::map_address_owners() const {
  std::vector<net::Ipv4Addr> out;
  std::uint16_t offset = 0;
  for (const auto& [name, rrs] : records_) {
    if (classify(name, &offset)) out.push_back(ptrs_->address_of(offset));
  }
  return out;
}

std::vector<DnsName> Zone::names_with_type(RrType type) const {
  std::vector<DnsName> out;
  if (type == RrType::PTR && ptrs_ != nullptr && !ptrs_->empty()) {
    // Merge distinct compact owners with map owners holding PTRs; equal
    // owners are emitted once.
    auto cur = ptrs_->cursor();
    bool cur_valid = cur.next();
    DnsName cur_owner;
    std::uint16_t cur_offset = 0;
    if (cur_valid) {
      cur_offset = cur.offset();
      cur_owner = owner_name(cur_offset);
    }
    auto it = records_.begin();
    const auto map_owner_has_ptr = [](const std::vector<ResourceRecord>& rrs) {
      return std::any_of(rrs.begin(), rrs.end(),
                         [](const ResourceRecord& rr) { return rr.type() == RrType::PTR; });
    };
    while (cur_valid || it != records_.end()) {
      while (it != records_.end() && !map_owner_has_ptr(it->second)) ++it;
      const bool take_compact =
          cur_valid && (it == records_.end() || !(it->first < cur_owner));
      if (take_compact) {
        if (it != records_.end() && it->first == cur_owner) ++it;  // dedupe
        out.push_back(cur_owner);
        do {  // skip further records at the same owner
          cur_valid = cur.next();
        } while (cur_valid && cur.offset() == cur_offset);
        if (cur_valid) {
          cur_offset = cur.offset();
          cur_owner = owner_name(cur_offset);
        }
      } else if (it != records_.end()) {
        out.push_back(it->first);
        ++it;
      }
    }
    return out;
  }
  for (const auto& [name, rrs] : records_) {
    for (const auto& rr : rrs) {
      if (rr.type() == type) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

std::size_t Zone::populate_generic(net::Ipv4Addr first, net::Ipv4Addr last, const DnsName& suffix,
                                   std::uint32_t ttl) {
  if (first.value() > last.value()) {
    throw std::invalid_argument("Zone::populate_generic: empty range");
  }
  if (ptrs_ != nullptr) {
    const std::uint32_t base = ptrs_->address_of(0).value();
    if ((first.value() & 0xFFFF0000u) != base || (last.value() & 0xFFFF0000u) != base) {
      throw std::invalid_argument("Zone::populate_generic: range outside zone " +
                                  origin_.to_string());
    }
    const std::string suffix_text = suffix.is_root() ? std::string{} : suffix.to_string();
    const std::size_t inserted =
        ptrs_->add_generic_range(static_cast<std::uint16_t>(first.value() & 0xFFFF),
                                 static_cast<std::uint16_t>(last.value() & 0xFFFF), suffix_text,
                                 ttl);
    record_count_ += inserted;
    // One serial bump per inserted record, exactly as repeated add() would.
    soa_.serial += static_cast<std::uint32_t>(inserted);
    return inserted;
  }
  std::size_t inserted = 0;
  for (net::Ipv4Addr a = first;; ++a) {
    const DnsName owner = DnsName::must_parse(net::to_arpa(a));
    const std::string label =
        util::format("host-%u-%u-%u-%u", a.octet(0), a.octet(1), a.octet(2), a.octet(3));
    const std::size_t before = record_count_;
    add(make_ptr(owner, suffix.prepend(label), ttl));
    if (record_count_ != before) ++inserted;
    if (a == last) break;
  }
  return inserted;
}

}  // namespace rdns::dns
