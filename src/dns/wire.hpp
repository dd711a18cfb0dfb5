#pragma once
/// \file wire.hpp
/// RFC 1035 §4.1 binary wire format: header, questions, resource records,
/// and §4.1.4 name compression. The in-process transport between resolver
/// and authoritative server round-trips every message through this codec so
/// the format is exercised on the main measurement path, not just in tests.

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "dns/message.hpp"

namespace rdns::dns {

/// Raised by the decoder on malformed input (truncation, bad pointers,
/// compression loops, label overruns).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Encode a message; names in all sections are compressed.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& message);

/// Decode a message; throws WireError on malformed input.
[[nodiscard]] Message decode(std::span<const std::uint8_t> wire);

/// Encoder with an explicit compression dictionary; exposed for tests and
/// for incremental encoding.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void bytes(std::span<const std::uint8_t> data);

  /// Write a (possibly compressed) domain name.
  void name(const DnsName& n);
  /// Write a name without using or adding compression targets (RFC 3597
  /// asks this of unknown-type RDATA).
  void name_uncompressed(const DnsName& n);

  void question(const Question& q);
  void rr(const ResourceRecord& r);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  void rdata(const Rdata& rd);

  std::vector<std::uint8_t> buf_;
  // canonical name suffix -> offset of its first encoding
  std::vector<std::pair<std::string, std::uint16_t>> targets_;
};

/// Decoder cursor.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> wire) : wire_(wire) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t n);

  [[nodiscard]] DnsName name();
  [[nodiscard]] Question question();
  [[nodiscard]] ResourceRecord rr();

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == wire_.size(); }

 private:
  void require(std::size_t n) const;
  [[nodiscard]] DnsName name_at(std::size_t& pos, int depth) const;
  [[nodiscard]] Rdata rdata(RrType type, std::uint16_t rdlength);

  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
};

/// What scan_query finds in a message without allocating or decoding: the
/// header, the first question and the one EDNS0 OPT shape. It reports
/// structure only and judges neither QR, opcode nor policy, so a reply
/// scans like a query. `wire` and label() point into the scanned bytes,
/// which must outlive the view.
struct QueryView {
  /// How the first question scanned.
  enum class Question : std::uint8_t {
    None,        ///< no header, or QDCOUNT 0
    Malformed,   ///< cut off, reserved label type, non-LDH byte, or over 255 octets
    Compressed,  ///< the qname ends in a compression pointer, which is not chased
    Clean,       ///< an uncompressed qname that decode() accepts
  };
  /// A name of at most 255 octets holds at most 127 labels.
  static constexpr std::size_t kMaxLabels = 127;

  std::span<const std::uint8_t> wire;
  bool header = false;  ///< at least 12 bytes: the header fields are read
  std::uint16_t id = 0;
  std::uint16_t flags = 0;
  std::uint16_t qdcount = 0;
  std::uint16_t ancount = 0;
  std::uint16_t nscount = 0;
  std::uint16_t arcount = 0;

  Question question = Question::None;
  /// QTYPE/QCLASS of the first question: read when it is Clean, and when
  /// it is Compressed and the bytes after the pointer are present.
  std::uint16_t qtype = 0;
  std::uint16_t qclass = 0;
  /// One past the question section: 12 for QDCOUNT 0, one past QCLASS for
  /// QDCOUNT 1 and a Clean question, 0 otherwise.
  std::size_t question_end = 0;
  /// Labels of the first question up to the root (or the pointer); the
  /// offset of each length octet counts from byte 12.
  std::size_t label_count = 0;
  std::array<std::uint8_t, kMaxLabels> label_at{};

  /// The single OPT shape (RFC 6891): QDCOUNT 1 with a Clean question, no
  /// answer or authority RRs, and one additional RR with the root owner,
  /// type 41 and an RDLEN that ends the message exactly.
  bool edns = false;
  std::uint16_t edns_udp_size = 0;  ///< the OPT's CLASS: the advertised payload size

  [[nodiscard]] std::string_view label(std::size_t i) const noexcept {
    const std::size_t at = 12 + std::size_t{label_at[i]};
    return {reinterpret_cast<const char*>(wire.data() + at + 1), wire[at]};
  }
  /// QR=0 and opcode QUERY.
  [[nodiscard]] bool standard_query() const noexcept { return header && (flags & 0xF800) == 0; }
  /// No record follows the question but the OPT above: the shape whose
  /// decode the scan alone proves.
  [[nodiscard]] bool bare() const noexcept { return (ancount | nscount | arcount) == 0 || edns; }
};

/// Scan a message's header, first question and OPT under the decoder's
/// label rules. Never throws, never allocates.
[[nodiscard]] QueryView scan_query(std::span<const std::uint8_t> wire) noexcept;

}  // namespace rdns::dns
