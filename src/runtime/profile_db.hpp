#pragma once
// ProfileDb: the persistable profiling database. IOS's optimization cost is
// dominated by stage-latency profiling; within one process the CostModel's
// cache already deduplicates measurements, but every new Optimizer (a fresh
// CLI invocation, a cold-started server) used to re-profile stages it had
// measured in a previous life. A ProfileDb is the cache's durable form:
// measured stage latencies keyed by the canonical stage fingerprint
// (stage_fingerprint) and grouped by *profile context* — the fingerprint of
// everything a latency depends on besides the stage itself (graph, device
// spec, kernel-model parameters, profiling protocol). A CostModel only
// imports entries of its own context, so one database file can safely
// accumulate profiles for many models and devices.
//
// Buckets are shared and immutable once published. A load, a merge or
// from_json publishes each bucket it builds, and nothing writes it again:
// a merge publishes a new old ∪ new bucket in its place. share() hands a
// CostModel a published bucket in O(1), and that snapshot stays valid and
// unchanged through later merges, a reset of the database and the
// database's own destruction, so any number of searches read one bucket
// without a lock or a copy. Copying a ProfileDb copies pointers.
// context_for_update() is the one in-place writer: it first gives the
// database a private copy of the bucket, which share() and copies never
// hand out.
//
// On-disk format (version 2, what save() writes), little-endian:
//   8-byte magic "IOSPDB2\n"
//   per context, in ascending context order:
//     u64 context, u64 count, count x (u64 stage key, f64 latency_us)
//     with stage keys strictly ascending
//   u64 trailer: hash_bytes of every byte before it
// 16 bytes per entry, so loading is a read, a checksum and one table insert
// per record, with no text parsing. The bytes are a pure function of the
// contents.
//
// Version 1 (JSON, still read; to_json()/from_json() remain for export):
//   { "format": "ios-profile-db", "version": 1,
//     "contexts": { "<ctx hex16>": { "<stage hex16>": latency_us, ... } } }
// Keys are 16-digit hex strings because JSON numbers (doubles) cannot carry
// 64-bit keys exactly; latencies round-trip exactly through the writer's
// %.17g formatting. A v1 file is rewritten as v2 by its next save().

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/flat_map.hpp"
#include "util/json.hpp"

namespace ios {

class ProfileDb {
 public:
  /// Measured latency by canonical stage fingerprint, one bucket per context.
  using Entries = FlatMap64<double>;
  /// A published bucket: shared, and never written again.
  using Bucket = std::shared_ptr<const Entries>;

  ProfileDb() = default;
  ProfileDb(const ProfileDb& other);
  ProfileDb& operator=(const ProfileDb& other);
  ProfileDb(ProfileDb&&) = default;
  ProfileDb& operator=(ProfileDb&&) = default;

  /// Parses a version-1 (JSON) profile-db document (throws
  /// std::runtime_error on an unknown format or version).
  static ProfileDb from_json(const JsonValue& doc);

  /// Loads `path`, returning an empty database if the file does not exist
  /// (the first run of a warm-start loop starts from nothing). A file that
  /// starts with the v2 magic is decoded as v2; any other file is parsed as
  /// v1 JSON. A file that exists but is truncated or corrupt throws
  /// CorruptFileError naming the path. For v2 that is a checksum mismatch,
  /// a count larger than the bytes that remain, unsorted or duplicate
  /// contexts or keys, a non-finite or non-positive latency, or bytes after
  /// the trailer, each found before anything count-sized is allocated. For
  /// v1 it is bad JSON, a wrong format header or a content-checksum
  /// mismatch; v1 files saved before checksums were embedded still load.
  static ProfileDb load(const std::string& path);

  /// True if a file exists at `path` (how callers distinguish "empty
  /// database" from "database was deleted").
  static bool exists(const std::string& path);

  /// The version-1 JSON form (export, and tests of the v1 reader).
  JsonValue to_json() const;

  /// Writes the v2 form to `path` crash-safely (write_file_atomic: temp +
  /// fsync + rename + directory fsync). Deterministic: contexts and entries
  /// are written in ascending key order. Throws std::invalid_argument on a
  /// non-finite or non-positive latency, which load() would reject.
  void save(const std::string& path) const;

  /// The entry bucket of `ctx`, or nullptr if this database has none. Valid
  /// until the next merge() or context_for_update() of `ctx`.
  const Entries* context(std::uint64_t ctx) const;

  /// The published bucket of `ctx`, or nullptr: O(1), unless `ctx` was
  /// last written through context_for_update(), which costs one copy.
  Bucket share(std::uint64_t ctx) const;

  /// Publishes the bucket of `ctx` ∪ `entries` as the new bucket of `ctx`,
  /// `entries` winning on a shared key. `base` names the bucket `entries`
  /// was built on (a share() of it): while that is still the published
  /// bucket, or `ctx` has none, `entries` is published as is, in O(1);
  /// otherwise the current bucket is copied and `entries` added to it.
  void merge(std::uint64_t ctx, Bucket entries, const Entries* base = nullptr);

  /// A mutable bucket of `ctx`, created on demand: the database's private
  /// copy, which no snapshot or copy of this database sees.
  Entries& context_for_update(std::uint64_t ctx);

  std::size_t num_contexts() const { return contexts_.size(); }
  std::size_t num_entries() const;
  bool empty() const { return contexts_.empty(); }

 private:
  struct Slot {
    Bucket entries;
    /// Non-null while context_for_update() may write `entries` in place:
    /// then this database alone holds it, and share() and copies copy it.
    Entries* editable = nullptr;
  };

  /// Ordered by context so save() and to_json() are deterministic.
  std::map<std::uint64_t, Slot> contexts_;
};

}  // namespace ios
