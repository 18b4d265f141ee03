#include "ckpt/snapshot.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/crc32.h"

namespace ccml {

// ---------------------------------------------------------------- StateBuf

void StateBuf::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void StateBuf::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void StateBuf::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void StateBuf::put_bytes(const std::string& s) {
  put_u64(s.size());
  bytes_.append(s);
}

void StateBuf::need(std::uint64_t n) const {
  // Compared against what is left, so a length field near 2^64 cannot
  // wrap the sum past the check.
  if (n > bytes_.size() - cursor_) {
    throw SnapshotError("snapshot payload truncated: wanted " +
                        std::to_string(n) + " bytes at offset " +
                        std::to_string(cursor_) + " of " +
                        std::to_string(bytes_.size()));
  }
}

std::uint8_t StateBuf::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[cursor_++]);
}

std::uint32_t StateBuf::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes_[cursor_ + i]))
         << (8 * i);
  }
  cursor_ += 4;
  return v;
}

std::uint64_t StateBuf::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes_[cursor_ + i]))
         << (8 * i);
  }
  cursor_ += 8;
  return v;
}

double StateBuf::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string StateBuf::get_bytes() { return get_raw(get_u64()); }

std::string StateBuf::get_raw(std::uint64_t n) {
  need(n);
  std::string out = bytes_.substr(cursor_, n);
  cursor_ += n;
  return out;
}

// ---------------------------------------------------------------- Snapshot

void Snapshot::set(const std::string& name, std::string payload) {
  if (sections_.find(name) == sections_.end()) order_.push_back(name);
  sections_[name] = std::move(payload);
}

bool Snapshot::has(const std::string& name) const {
  return sections_.find(name) != sections_.end();
}

const std::string& Snapshot::get(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    throw SnapshotError("snapshot has no section '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> Snapshot::names() const { return order_; }

std::string Snapshot::serialize() const {
  StateBuf out;
  out.put_u8(kSnapshotMagic[0]);
  out.put_u8(kSnapshotMagic[1]);
  out.put_u8(kSnapshotMagic[2]);
  out.put_u8(kSnapshotMagic[3]);
  out.put_u32(kSnapshotVersion);
  out.put_u32(static_cast<std::uint32_t>(order_.size()));
  for (const std::string& name : order_) {
    const std::string& payload = sections_.at(name);
    out.put_u32(static_cast<std::uint32_t>(name.size()));
    for (char c : name) out.put_u8(static_cast<std::uint8_t>(c));
    out.put_u64(payload.size());
    out.put_u32(crc32(payload.data(), payload.size()));
    for (char c : payload) out.put_u8(static_cast<std::uint8_t>(c));
  }
  return out.take();
}

Snapshot Snapshot::parse(const std::string& bytes) {
  StateBuf in(bytes);
  char magic[4];
  try {
    for (char& m : magic) m = static_cast<char>(in.get_u8());
  } catch (const SnapshotError&) {
    throw SnapshotError("snapshot too short for magic (" +
                        std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(magic, kSnapshotMagic, 4) != 0) {
    throw SnapshotError("bad snapshot magic: not a CCKP file");
  }
  const std::uint32_t version = in.get_u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint32_t count = in.get_u32();
  Snapshot snap;
  for (std::uint32_t s = 0; s < count; ++s) {
    // Lengths are checked against the bytes left before anything is
    // allocated, so a corrupt length is a SnapshotError, not a bad_alloc.
    const std::string name = in.get_raw(in.get_u32());
    const std::uint64_t payload_len = in.get_u64();
    const std::uint32_t stored_crc = in.get_u32();
    std::string payload = in.get_raw(payload_len);
    const std::uint32_t actual = crc32(payload.data(), payload.size());
    if (actual != stored_crc) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "CRC mismatch in section '%s': stored %08x, computed %08x",
                    name.c_str(), stored_crc, actual);
      throw SnapshotError(buf);
    }
    snap.set(name, std::move(payload));
  }
  if (!in.at_end()) {
    throw SnapshotError("trailing garbage after last snapshot section");
  }
  return snap;
}

Snapshot Snapshot::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw SnapshotError("cannot open snapshot '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  try {
    return parse(bytes);
  } catch (const SnapshotError& e) {
    throw SnapshotError(path + ": " + e.what());
  }
}

void Snapshot::save(const std::string& path) const {
  const std::string bytes = serialize();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw SnapshotError("cannot create snapshot temp '" + tmp + "'");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f) throw SnapshotError("short write to snapshot temp '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw SnapshotError("cannot rename snapshot into place: " + ec.message());
  }
}

}  // namespace ccml
