#include "runtime/profile_db.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <sys/stat.h>
#include <vector>

#include "util/hash.hpp"

namespace ios {

namespace {

constexpr const char* kFormat = "ios-profile-db";
constexpr int kVersion = 1;

// Version 2: records are copied to and from the file as raw bytes, which is
// the documented little-endian layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "profile-db v2 files are little-endian");
constexpr char kMagic[8] = {'I', 'O', 'S', 'P', 'D', 'B', '2', '\n'};
constexpr std::size_t kWord = sizeof(std::uint64_t);

/// One v2 entry, in memory and on disk.
struct Record {
  std::uint64_t key;
  double latency_us;
};
static_assert(sizeof(Record) == 2 * kWord);

/// The bucket's entries in ascending key order.
std::vector<Record> sorted_records(const ProfileDb::Entries& entries) {
  std::vector<Record> records;
  records.reserve(entries.size());
  entries.for_each([&](std::uint64_t key, double latency) {
    records.push_back({key, latency});
  });
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  return records;
}

bool valid_latency(double latency_us) {
  return std::isfinite(latency_us) && latency_us > 0;
}

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), kWord);
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, kWord);
  return v;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex16(const std::string& s) {
  if (s.empty()) throw std::runtime_error("profile-db: empty hex key");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
  if (errno != 0 || end != s.c_str() + s.size()) {
    throw std::runtime_error("profile-db: bad hex key '" + s + "'");
  }
  return v;
}

/// Decodes a v2 file (magic included). Every count is checked against the
/// bytes that remain before anything of that size is allocated: the file
/// is input from outside the program.
ProfileDb decode_v2(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + kWord) {
    throw std::runtime_error("v2 file truncated to " +
                             std::to_string(bytes.size()) + " bytes");
  }
  const std::size_t end = bytes.size() - kWord;  // where the trailer starts
  const std::uint64_t stored = read_u64(bytes.data() + end);
  const std::uint64_t actual = hash_bytes(bytes.substr(0, end));
  if (stored != actual) {
    throw std::runtime_error("v2 checksum mismatch (stored " + hex16(stored) +
                             ", computed " + hex16(actual) +
                             ") — file is corrupt or truncated");
  }
  ProfileDb db;
  std::size_t pos = sizeof(kMagic);
  std::uint64_t prev_ctx = 0;
  for (bool first = true; pos < end; first = false) {
    const std::string at = " at byte " + std::to_string(pos);
    if (end - pos < 2 * kWord) {
      throw std::runtime_error("v2 bytes after the last context" + at);
    }
    const std::uint64_t ctx = read_u64(bytes.data() + pos);
    const std::uint64_t count = read_u64(bytes.data() + pos + kWord);
    pos += 2 * kWord;
    if (!first && ctx <= prev_ctx) {
      throw std::runtime_error("v2 contexts not strictly ascending" + at);
    }
    prev_ctx = ctx;
    if (count > (end - pos) / sizeof(Record)) {
      throw std::runtime_error("v2 context " + hex16(ctx) + " claims " +
                               std::to_string(count) + " entries but " +
                               std::to_string(end - pos) + " bytes remain");
    }
    auto entries = std::make_shared<ProfileDb::Entries>();
    entries->reserve(static_cast<std::size_t>(count));
    std::uint64_t prev_key = 0;
    for (std::uint64_t i = 0; i < count; ++i, pos += sizeof(Record)) {
      const std::uint64_t key = read_u64(bytes.data() + pos);
      const double latency =
          std::bit_cast<double>(read_u64(bytes.data() + pos + kWord));
      if (i > 0 && key <= prev_key) {
        throw std::runtime_error("v2 keys of context " + hex16(ctx) +
                                 " not strictly ascending at byte " +
                                 std::to_string(pos));
      }
      if (!valid_latency(latency)) {
        throw std::runtime_error("v2 latency of stage " + hex16(key) +
                                 " is not finite and positive");
      }
      prev_key = key;
      entries->try_emplace(key, latency);
    }
    db.merge(ctx, std::move(entries));
  }
  return db;
}

}  // namespace

ProfileDb ProfileDb::from_json(const JsonValue& doc) {
  if (!doc.is_object() || !doc.contains("format") ||
      doc.at("format").as_string() != kFormat) {
    throw std::runtime_error("profile-db: not an ios-profile-db document");
  }
  verify_content_checksum(doc, "profile-db");
  if (doc.at("version").as_int() != kVersion) {
    throw std::runtime_error("profile-db: unsupported version " +
                             std::to_string(doc.at("version").as_int()));
  }
  ProfileDb db;
  if (doc.contains("contexts")) {
    for (const auto& [ctx_key, bucket] : doc.at("contexts").as_object()) {
      auto entries = std::make_shared<Entries>();
      for (const auto& [stage_key, latency] : bucket.as_object()) {
        (*entries)[parse_hex16(stage_key)] = latency.as_number();
      }
      db.merge(parse_hex16(ctx_key), std::move(entries));
    }
  }
  return db;
}

ProfileDb ProfileDb::load(const std::string& path) {
  if (!exists(path)) return ProfileDb{};
  try {
    const std::string bytes = read_file(path);
    if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) == 0) {
      return decode_v2(bytes);
    }
    return from_json(JsonValue::parse(bytes));
  } catch (const std::exception& e) {
    // One named error type for every corruption mode (a bad v2 record or
    // checksum, truncated JSON, a wrong format header) so callers can fall
    // back to a cold start without string-matching.
    throw CorruptFileError("profile-db: cannot load '" + path +
                           "': " + e.what());
  }
}

bool ProfileDb::exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

JsonValue ProfileDb::to_json() const {
  JsonValue contexts = JsonValue::object();
  for (const auto& [ctx, slot] : contexts_) {
    // Sort stage keys so the dump is byte-stable run to run.
    JsonValue bucket = JsonValue::object();
    for (const Record& r : sorted_records(*slot.entries)) {
      bucket.set(hex16(r.key), r.latency_us);
    }
    contexts.set(hex16(ctx), std::move(bucket));
  }
  JsonValue doc = JsonValue::object();
  doc.set("format", kFormat);
  doc.set("version", kVersion);
  doc.set("contexts", std::move(contexts));
  return doc;
}

void ProfileDb::save(const std::string& path) const {
  std::string out(kMagic, sizeof(kMagic));
  out.reserve(sizeof(kMagic) + contexts_.size() * 2 * kWord +
              num_entries() * sizeof(Record) + kWord);
  for (const auto& [ctx, slot] : contexts_) {
    const std::vector<Record> records = sorted_records(*slot.entries);
    for (const Record& r : records) {
      if (!valid_latency(r.latency_us)) {
        throw std::invalid_argument("profile-db: latency of stage " +
                                    hex16(r.key) +
                                    " is not finite and positive");
      }
    }
    append_u64(out, ctx);
    append_u64(out, records.size());
    out.append(reinterpret_cast<const char*>(records.data()),
               records.size() * sizeof(Record));
  }
  append_u64(out, hash_bytes(out));
  // fsync + rename + directory fsync: a reader (or a kill -9) mid-save must
  // never observe a truncated file, and the trailer checksum catches any
  // corruption that still decodes — a bad warm-start cache degrades to a
  // cold one instead of failing every later run.
  write_file_atomic(path, out);
}

ProfileDb::ProfileDb(const ProfileDb& other) : contexts_(other.contexts_) {
  // An editable bucket is the other database's alone: copy it.
  for (auto& [ctx, slot] : contexts_) {
    if (slot.editable != nullptr) {
      slot = Slot{std::make_shared<const Entries>(*slot.entries)};
    }
  }
}

ProfileDb& ProfileDb::operator=(const ProfileDb& other) {
  if (this != &other) *this = ProfileDb(other);
  return *this;
}

const ProfileDb::Entries* ProfileDb::context(std::uint64_t ctx) const {
  const auto it = contexts_.find(ctx);
  return it == contexts_.end() ? nullptr : it->second.entries.get();
}

ProfileDb::Bucket ProfileDb::share(std::uint64_t ctx) const {
  const auto it = contexts_.find(ctx);
  if (it == contexts_.end()) return nullptr;
  const Slot& slot = it->second;
  if (slot.editable != nullptr) {
    return std::make_shared<const Entries>(*slot.entries);
  }
  return slot.entries;
}

void ProfileDb::merge(std::uint64_t ctx, Bucket entries, const Entries* base) {
  Slot& slot = contexts_[ctx];
  if (slot.entries != nullptr && slot.entries.get() != base) {
    auto merged = std::make_shared<Entries>(*slot.entries);
    merged->reserve(merged->size() + entries->size());
    entries->for_each([&](std::uint64_t key, double latency) {
      merged->insert_or_assign(key, latency);
    });
    entries = std::move(merged);
  }
  slot = Slot{std::move(entries)};
}

ProfileDb::Entries& ProfileDb::context_for_update(std::uint64_t ctx) {
  Slot& slot = contexts_[ctx];
  if (slot.editable == nullptr) {
    auto own = slot.entries != nullptr
                   ? std::make_shared<Entries>(*slot.entries)
                   : std::make_shared<Entries>();
    slot.editable = own.get();
    slot.entries = std::move(own);
  }
  return *slot.editable;
}

std::size_t ProfileDb::num_entries() const {
  std::size_t n = 0;
  for (const auto& [ctx, slot] : contexts_) n += slot.entries->size();
  return n;
}

}  // namespace ios
