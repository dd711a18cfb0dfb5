#pragma once
/// \file zone.hpp
/// An authoritative zone: an origin (apex) name, an SOA, and a sorted store
/// of resource records. Reverse zones (x.y.z.in-addr.arpa) are ordinary
/// zones whose owners are arpa names and whose data is mostly PTR records;
/// the DHCP→DNS bridge mutates them through this API.
///
/// Storage is two-tier. Owners that are full 4-octet addresses under a /16
/// in-addr.arpa origin keep their PTR records in a CompactPtrStore (16-bit
/// offsets + interned target ids — see ptr_store.hpp) so internet-scale
/// worlds fit in memory; everything else (apex NS, forward zones, TXT at
/// arpa owners, non-/16 origins) lives in the original std::map of
/// ResourceRecords. The split is invisible at this interface: find/dump/
/// for_each/serial semantics are byte-identical to the pure-map zone, which
/// tests/test_ptr_store.cpp asserts by diffing the two representations.
/// Zone::set_default_storage(ZoneStorage::Legacy) restores the old
/// representation globally (bench A/B switch).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "dns/ptr_store.hpp"
#include "dns/rr.hpp"
#include "net/ipv4.hpp"
#include "util/name_pool.hpp"

namespace rdns::dns {

/// Representation used for PTR records of /16 reverse zones created after
/// the switch. Compact is the default; Legacy keeps every record in the
/// std::map (the pre-interning representation, kept for A/B benchmarks).
enum class ZoneStorage { Compact, Legacy };

class Zone {
 public:
  /// Create a zone with the given apex and SOA. An NS record for
  /// `soa.mname` is added automatically (real zones must have one).
  /// `pool` (optional) is the shared hostname intern pool; when null a
  /// compact-eligible zone owns a private pool.
  explicit Zone(DnsName origin, SoaRdata soa, util::NamePool* pool = nullptr);
  ~Zone();

  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;
  // Movable: the compact store and owned pool sit behind unique_ptrs, so
  // their internal pointers survive the move (zonefile.cpp returns zones
  // by value).
  Zone(Zone&&) = default;
  Zone& operator=(Zone&&) = default;

  /// Process-wide storage mode for zones created from now on (existing
  /// zones keep the representation they were built with).
  static void set_default_storage(ZoneStorage mode) noexcept;
  [[nodiscard]] static ZoneStorage default_storage() noexcept;

  [[nodiscard]] const DnsName& origin() const noexcept { return origin_; }
  [[nodiscard]] const SoaRdata& soa() const noexcept { return soa_; }

  /// True when this zone stores its 4-octet PTR owners compactly.
  [[nodiscard]] bool compact() const noexcept { return ptrs_ != nullptr; }

  /// True if `name` falls inside this zone (is the apex or below it).
  [[nodiscard]] bool contains(const DnsName& name) const noexcept;

  /// Add a record (owner must be in the zone; throws otherwise). Exact
  /// duplicates are ignored. Bumps the SOA serial.
  void add(const ResourceRecord& rr);

  /// Remove all records at `name` with type `type`; returns removed count.
  /// Bumps the serial if anything was removed.
  std::size_t remove(const DnsName& name, RrType type);

  /// Remove one exact record (owner, type, rdata); returns whether removed.
  bool remove_exact(const ResourceRecord& rr);

  /// Remove every record at `name`; returns removed count.
  std::size_t remove_all(const DnsName& name);

  /// Records at `name` with `type` (empty if none). Type ANY returns all.
  [[nodiscard]] std::vector<ResourceRecord> find(const DnsName& name, RrType type) const;

  /// True if any record exists at `name` (drives NXDOMAIN vs NODATA).
  [[nodiscard]] bool has_name(const DnsName& name) const noexcept;

  /// Number of records in the zone (excluding the synthesized SOA).
  [[nodiscard]] std::size_t record_count() const noexcept { return record_count_; }

  /// Number of distinct owner names with data.
  [[nodiscard]] std::size_t name_count() const noexcept;

  /// Number of PTR records (compact + map) without materializing any.
  [[nodiscard]] std::size_t ptr_count() const noexcept;

  [[nodiscard]] std::uint32_t serial() const noexcept { return soa_.serial; }

  /// Set the SOA serial explicitly (zone loads/transfers carry their own).
  void set_serial(std::uint32_t serial) noexcept { soa_.serial = serial; }

  /// All records, in canonical owner order (for dumps and audits).
  [[nodiscard]] std::vector<ResourceRecord> dump() const;

  /// Iterate owner names with at least one record of `type`.
  [[nodiscard]] std::vector<DnsName> names_with_type(RrType type) const;

  /// Apply `fn` to every stored record without copying (bulk snapshots).
  /// Compact PTRs are materialized on the fly in canonical owner order,
  /// interleaved with map records exactly as a pure-map zone would yield
  /// them.
  void for_each(const std::function<void(const ResourceRecord&)>& fn) const;

  /// Streaming PTR walk in canonical owner order with no per-record
  /// DnsName/ResourceRecord materialization: `fn(address, target_text,
  /// ttl)` where target_text is presentation form (case-preserved, no
  /// trailing dot) valid only during the call. Owners that are not arpa
  /// addresses are skipped. This is the sweep hot path at 10M devices.
  void for_each_ptr(
      const std::function<void(net::Ipv4Addr, std::string_view, std::uint32_t)>& fn) const;

  /// Addresses of the 4-octet owners whose records sit in the map rather
  /// than the compact PTR store (TXT or A data at an address owner), in
  /// canonical owner order. Empty unless compact().
  [[nodiscard]] std::vector<net::Ipv4Addr> map_address_owners() const;

  /// Bulk-add generic PTRs host-a-b-c-d.<suffix> for every address in
  /// [first, last] (inclusive), ttl `ttl` — observably identical to
  /// repeated add(make_ptr(...)) (duplicates skipped, serial bumped once
  /// per inserted record) but O(1) memory per record in compact zones.
  /// Returns records inserted.
  std::size_t populate_generic(net::Ipv4Addr first, net::Ipv4Addr last, const DnsName& suffix,
                               std::uint32_t ttl);

 private:
  void bump_serial() noexcept;

  /// True when `name` is a 4-octet owner of this compact zone; sets
  /// `offset` to the low 16 bits of its address.
  [[nodiscard]] bool classify(const DnsName& name, std::uint16_t* offset) const noexcept;

  /// Canonical lowercase owner name for a compact offset.
  [[nodiscard]] DnsName owner_name(std::uint16_t offset) const;

  DnsName origin_;
  SoaRdata soa_;
  std::map<DnsName, std::vector<ResourceRecord>> records_;
  std::size_t record_count_ = 0;
  std::unique_ptr<util::NamePool> owned_pool_;  ///< fallback when no shared pool
  std::unique_ptr<CompactPtrStore> ptrs_;       ///< null for legacy / non-/16 zones
};

}  // namespace rdns::dns
