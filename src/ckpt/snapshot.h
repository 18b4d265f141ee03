// The on-disk snapshot container for checkpoint/restore (src/ckpt).
//
// A snapshot is a flat sequence of named, CRC-guarded binary sections:
//
//   "CCKP"            4-byte magic
//   u32               format version (kSnapshotVersion)
//   u32               section count
//   per section:
//     u32 + bytes     section name
//     u64             payload length
//     u32             CRC-32 of the payload
//     bytes           payload
//
// All integers little-endian (asserted at build time via byte-wise
// encoding, so the file is portable regardless of host endianness).
// Writers always go through save()'s write-to-temp-then-rename so a crash
// mid-write can never leave a torn file under the final name.  Readers
// refuse anything suspect — bad magic, unknown version, truncation, CRC
// mismatch — by throwing SnapshotError before any section is handed out.
//
// Section payloads are produced by StateBuf (a schema-free little-endian
// writer/reader pair).  The contract that matters for restore is not that
// payloads are self-describing, but that the byte string a component emits
// is a pure function of its live state: resume re-executes the run from
// t=0 and byte-compares the re-captured sections against the loaded ones
// (see checkpoint.h), so any drift — RNG, float, ordering — is caught as a
// hard divergence error rather than silently corrupting the continuation.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccml {

inline constexpr char kSnapshotMagic[4] = {'C', 'C', 'K', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Thrown when a snapshot file cannot be trusted: unreadable, bad magic,
/// version from the future, truncated, or a section whose CRC does not
/// match its payload.  The driver maps this to its own exit code so CI can
/// distinguish "refused a corrupt snapshot" from a generic failure.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian binary writer and a matching cursor-based
/// reader.  Used both for section payloads and (via Snapshot) the file
/// itself.  The reader throws SnapshotError on any over-read so malformed
/// payloads cannot walk off the end silently.
class StateBuf {
 public:
  StateBuf() = default;
  explicit StateBuf(std::string bytes) : bytes_(std::move(bytes)) {}

  // -- writing ------------------------------------------------------------
  void put_u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// Bit pattern of the double, so the value round-trips exactly.
  void put_f64(double v);
  void put_bytes(const std::string& s);  ///< u64 length + raw bytes

  // -- reading ------------------------------------------------------------
  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::string get_bytes();
  /// The next `n` raw bytes (no length prefix).
  std::string get_raw(std::uint64_t n);

  bool at_end() const { return cursor_ == bytes_.size(); }
  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  void need(std::uint64_t n) const;

  std::string bytes_;
  std::size_t cursor_ = 0;
};

/// An in-memory snapshot: named sections in insertion order.  save() /
/// load() move it to and from disk in the CCKP format above.
class Snapshot {
 public:
  /// Adds or replaces a section.  Insertion order is preserved on disk so
  /// identical state always serializes to identical files.
  void set(const std::string& name, std::string payload);

  bool has(const std::string& name) const;
  /// Throws SnapshotError when the section is absent.
  const std::string& get(const std::string& name) const;

  /// Names in file order.
  std::vector<std::string> names() const;

  /// Serializes to `path` atomically: writes `path` + ".tmp", fsync-free
  /// rename over the final name.  Throws SnapshotError on I/O failure.
  void save(const std::string& path) const;

  /// Whole-file serialization (what save() writes), exposed for tests and
  /// for byte-comparing a re-captured snapshot against a loaded one.
  std::string serialize() const;

  /// Parses and validates a snapshot file.  Throws SnapshotError with a
  /// specific message on bad magic, unsupported version, truncation, or a
  /// per-section CRC mismatch.
  static Snapshot load(const std::string& path);
  static Snapshot parse(const std::string& bytes);

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::string> sections_;
};

}  // namespace ccml
