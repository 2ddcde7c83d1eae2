// Crash-safe persistence: ProfileDb and Recipe files are written via
// temp + fsync + atomic rename with an embedded content checksum, so a
// kill -9 mid-save leaves either the old or the new file — never a torn
// one — and any corruption that still parses is rejected on load as a
// named CorruptFileError instead of silently feeding the optimizer bad
// latencies.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "core/scheduler.hpp"
#include "models/models.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/profile_db.hpp"
#include "schedule/serialize.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace ios {
namespace {

// Each test uses its own path: the Optimizer keeps a process-wide registry
// per profile-db path, so reusing one across tests would share state.
std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

ProfileDb sample_db() {
  ProfileDb db;
  ProfileDb::Entries& ctx = db.context_for_update(0xabcdef0123456789ull);
  ctx[1] = 10.5;
  ctx[2] = 20.25;
  db.context_for_update(0x42ull)[7] = 1234.0;
  return db;
}

// A version-1 (JSON) file with an embedded content checksum, as save()
// wrote before version 2.
void write_v1(const ProfileDb& db, const std::string& path) {
  write_file(path, with_content_checksum(db.to_json()).dump());
}

TEST(Persistence, SaveEmbedsAVerifiableChecksumAndRoundTrips) {
  const std::string path = temp_path("persist_roundtrip.json");
  write_v1(sample_db(), path);

  const JsonValue doc = JsonValue::parse(read_file(path));
  ASSERT_TRUE(doc.contains("checksum"));
  EXPECT_NO_THROW(verify_content_checksum(doc, "profile-db"));

  const ProfileDb loaded = ProfileDb::load(path);
  EXPECT_EQ(loaded.num_contexts(), 2u);
  EXPECT_EQ(loaded.num_entries(), 3u);
  const ProfileDb::Entries* ctx = loaded.context(0xabcdef0123456789ull);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->at(1), 10.5);
  EXPECT_EQ(ctx->at(2), 20.25);
}

TEST(Persistence, TruncatedProfileDbIsRejectedByName) {
  const std::string path = temp_path("persist_truncated.json");
  sample_db().save(path);
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() / 2));  // torn mid-document

  try {
    ProfileDb::load(path);
    FAIL() << "truncated file loaded";
  } catch (const CorruptFileError& e) {
    EXPECT_NE(std::string(e.what()).find("profile-db"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(Persistence, FlippedByteFailsTheContentChecksum) {
  const std::string path = temp_path("persist_bitrot.json");
  write_v1(sample_db(), path);
  // Corrupt a latency digit: the document still parses as valid JSON with
  // the right format header, so only the checksum can catch it.
  std::string text = read_file(path);
  const std::size_t pos = text.find("10.5");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '9';
  write_file(path, text);

  try {
    ProfileDb::load(path);
    FAIL() << "bit-rotted file loaded";
  } catch (const CorruptFileError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(Persistence, PreChecksumFilesStillLoad) {
  // Databases saved before checksums were embedded have no "checksum" key;
  // they must keep loading (verify passes on absence).
  const std::string path = temp_path("persist_legacy.json");
  write_file(path, sample_db().to_json().dump());
  const ProfileDb loaded = ProfileDb::load(path);
  EXPECT_EQ(loaded.num_entries(), 3u);
}

TEST(Persistence, StaleTempFileFromACrashedSaveIsHarmless) {
  // A crash between temp-write and rename leaves path.tmp behind; the next
  // save must overwrite it and still land atomically.
  const std::string path = temp_path("persist_stale_tmp.json");
  write_file(path + ".tmp", "garbage from a dead process");
  sample_db().save(path);
  EXPECT_EQ(ProfileDb::load(path).num_entries(), 3u);
}

TEST(Persistence, CorruptRecipeIsRejectedMissingFileIsNot) {
  const std::string path = temp_path("persist_recipe.json");
  // Missing file: a plain runtime_error (caller typo), not corruption.
  try {
    load_recipe(path);
    FAIL() << "missing file loaded";
  } catch (const CorruptFileError&) {
    FAIL() << "missing file misreported as corrupt";
  } catch (const std::runtime_error&) {
  }

  Optimizer opt;
  OptimizationRequest request = OptimizationRequest::for_model("fig3");
  request.baselines.clear();
  const Recipe recipe = opt.optimize(request).recipe;
  save_recipe(recipe, path);
  EXPECT_EQ(load_recipe(path).model, recipe.model);

  std::string text = read_file(path);
  write_file(path, text.substr(0, text.size() - 40));
  try {
    load_recipe(path);
    FAIL() << "corrupt recipe loaded";
  } catch (const CorruptFileError& e) {
    EXPECT_NE(std::string(e.what()).find("recipe"), std::string::npos);
  }
}

// Recipes name ops by id. An id outside the graph must fail evaluation
// with an error naming it, whether it exceeds OpId (rejected while parsing,
// where it used to wrap onto op 0) or only the graph (rejected by
// validate_schedule, where it used to be read out of bounds).
TEST(Persistence, OutOfRangeOpIdsInARecipeAreRejectedByName) {
  Optimizer opt;
  OptimizationRequest request = OptimizationRequest::for_model("squeezenet");
  request.baselines.clear();
  // A legacy recipe without a checksum, so only the id checks can object.
  const std::string text = recipe_to_json(opt.optimize(request).recipe).dump();
  const std::string marker = "\"groups\":[[";
  const std::size_t at = text.find(marker);
  ASSERT_NE(at, std::string::npos);
  const std::size_t begin = at + marker.size();
  const std::size_t end = text.find_first_of(",]", begin);

  const std::string path = temp_path("persist_op_id.json");
  for (const std::string id : {"100000000", "-5", "4294967296"}) {
    SCOPED_TRACE("first op id " + id);
    std::string edited = text;
    edited.replace(begin, end - begin, id);
    write_file(path, edited);
    try {
      opt.evaluate(Optimizer::load(path));
      FAIL() << "a recipe with op id " << id << " evaluated";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("op id out of range: " + id),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Persistence, OptimizerColdStartsOverACorruptProfileDb) {
  const std::string path = temp_path("persist_cold_start.json");
  write_file(path, R"({"format":"ios-profile-db")");  // torn header

  // The corrupt database must not fail the optimization: the registry
  // falls back to a cold profile database (with a stderr note).
  Optimizer opt;
  OptimizationRequest request = OptimizationRequest::for_model("fig3");
  request.baselines.clear();
  request.profile_db = path;
  const OptimizationResult result = opt.optimize(request);
  EXPECT_GT(result.latency_us, 0);
  EXPECT_GT(result.new_measurements, 0);  // cold: nothing was imported

  // The merge-back then replaces the corrupt file with a valid one.
  const ProfileDb healed = ProfileDb::load(path);
  EXPECT_GT(healed.num_entries(), 0u);
}

// ---------------------------------------------------------------------------
// Version 2: sorted binary records with a checksum trailer.

constexpr char kV2Magic[] = "IOSPDB2\n";

bool is_v2(const std::string& bytes) {
  return bytes.compare(0, 8, kV2Magic, 8) == 0;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every entry of `a` is in `b` with the same bit pattern, and vice versa.
void expect_same_entries(const ProfileDb& a, const ProfileDb& b) {
  EXPECT_EQ(a.num_contexts(), b.num_contexts());
  EXPECT_EQ(a.num_entries(), b.num_entries());
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

/// Expects load(path) to throw CorruptFileError naming the database and the
/// path, with `detail` in the message; returns the message.
std::string expect_corrupt(const std::string& path,
                           const std::string& detail = "") {
  try {
    ProfileDb::load(path);
    ADD_FAILURE() << "corrupt file loaded";
    return "";
  } catch (const CorruptFileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("profile-db"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(detail), std::string::npos) << what;
    return what;
  }
}

/// A v2 file from raw words after the magic, with a valid trailer: how the
/// structural checks are reached past the checksum.
std::string craft_v2(const std::vector<std::uint64_t>& words) {
  std::string out(kV2Magic, 8);
  for (const std::uint64_t w : words) {
    out.append(reinterpret_cast<const char*>(&w), sizeof(w));
  }
  const std::uint64_t sum = hash_bytes(out);
  out.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return out;
}

TEST(ProfileDbV2, RoundTripKeepsEveryBitPattern) {
  ProfileDb db;
  ProfileDb::Entries& a = db.context_for_update(0xffffffffffffffffull);
  a[0] = 1.0 / 3.0;  // the zero key lives outside the slot array
  a[0xffffffffffffffffull] = std::numeric_limits<double>::max();
  a[12345] = std::numeric_limits<double>::denorm_min();
  a[77] = 0.1 + 0.2;
  db.context_for_update(0);  // an empty bucket is kept
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    db.context_for_update(0x42)[mix64(k)] = 1.0 + static_cast<double>(k) / 7;
  }
  const std::string path = temp_path("persist_v2_roundtrip.db");
  db.save(path);
  const std::string bytes = read_file(path);
  EXPECT_TRUE(is_v2(bytes));
  EXPECT_EQ(bytes.size(), 8 + 3 * 16 + 1004 * 16 + 8u);

  const ProfileDb loaded = ProfileDb::load(path);
  ASSERT_EQ(loaded.num_contexts(), 3u);
  ASSERT_EQ(loaded.num_entries(), 1004u);
  ASSERT_NE(loaded.context(0), nullptr);
  EXPECT_TRUE(loaded.context(0)->empty());
  for (const std::uint64_t ctx : {0xffffffffffffffffull, 0x42ull}) {
    const ProfileDb::Entries& want = *db.context(ctx);
    const ProfileDb::Entries* got = loaded.context(ctx);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->size(), want.size());
    want.for_each([&](std::uint64_t key, double latency) {
      EXPECT_EQ(bits(got->at(key)), bits(latency)) << key;
    });
  }

  // The bytes depend on the contents only, not on insertion order.
  ProfileDb reversed;
  for (std::uint64_t k = 1000; k >= 1; --k) {
    reversed.context_for_update(0x42)[mix64(k)] =
        1.0 + static_cast<double>(k) / 7;
  }
  reversed.context_for_update(0);
  a.for_each([&](std::uint64_t key, double latency) {
    reversed.context_for_update(0xffffffffffffffffull)[key] = latency;
  });
  const std::string again = temp_path("persist_v2_reversed.db");
  reversed.save(again);
  EXPECT_EQ(read_file(again), bytes);
}

TEST(ProfileDbV2, TruncationAtEveryLengthIsRejectedByName) {
  const std::string path = temp_path("persist_v2_truncated.db");
  sample_db().save(path);
  const std::string full = read_file(path);
  ASSERT_TRUE(is_v2(full));
  for (std::size_t len = 0; len < full.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    write_file(path, full.substr(0, len));
    expect_corrupt(path);
  }
}

TEST(ProfileDbV2, EverySingleBitFlipIsRejectedByName) {
  const std::string path = temp_path("persist_v2_bitflip.db");
  sample_db().save(path);
  const std::string full = read_file(path);
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::string flipped = full;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      write_file(path, flipped);
      expect_corrupt(path);
    }
  }
}

TEST(ProfileDbV2, StructuralDefectsUnderAValidChecksumAreRejected) {
  const std::uint64_t one = bits(1.0);
  const std::string path = temp_path("persist_v2_crafted.db");
  // Sanity: the crafting helper makes loadable files.
  write_file(path, craft_v2({5, 2, 1, one, 2, one}));
  ASSERT_EQ(ProfileDb::load(path).num_entries(), 2u);

  struct Case {
    const char* name;
    std::vector<std::uint64_t> words;
    const char* detail;
  };
  const Case cases[] = {
      // Counts far beyond the file: rejected by the count check, before
      // any table is sized.
      {"huge count", {5, std::uint64_t{1} << 60}, "claims"},
      {"max count", {5, ~std::uint64_t{0}, 1, one}, "claims"},
      {"count one past the records", {5, 3, 1, one, 2, one}, "claims"},
      {"unsorted keys", {5, 2, 2, one, 1, one}, "not strictly ascending"},
      {"duplicate keys", {5, 2, 1, one, 1, one}, "not strictly ascending"},
      {"unsorted contexts", {5, 0, 4, 0}, "contexts not strictly ascending"},
      {"duplicate contexts", {5, 0, 5, 0}, "contexts not strictly ascending"},
      {"NaN latency",
       {5, 1, 1, bits(std::numeric_limits<double>::quiet_NaN())},
       "not finite and positive"},
      {"infinite latency",
       {5, 1, 1, bits(std::numeric_limits<double>::infinity())},
       "not finite and positive"},
      {"zero latency", {5, 1, 1, bits(0.0)}, "not finite and positive"},
      {"negative latency", {5, 1, 1, bits(-2.0)}, "not finite and positive"},
      {"a header cut short", {5, 0, 9}, "bytes after the last context"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    write_file(path, craft_v2(c.words));
    expect_corrupt(path, c.detail);
  }
  // Bytes after the trailer.
  std::string extra = craft_v2({5, 1, 1, one});
  extra += "tail";
  write_file(path, extra);
  expect_corrupt(path);
}

TEST(ProfileDbV2, SaveRejectsLatenciesLoadWouldReject) {
  ProfileDb db = sample_db();
  db.context_for_update(0x42)[8] = std::numeric_limits<double>::quiet_NaN();
  const std::string path = temp_path("persist_v2_bad_latency.db");
  EXPECT_THROW(db.save(path), std::invalid_argument);
  EXPECT_FALSE(ProfileDb::exists(path));
}

TEST(ProfileDbV2, V1FilesStillLoadAndRewriteAsEqualV2) {
  const std::string with_sum = temp_path("persist_v1_sum.json");
  const std::string without_sum = temp_path("persist_v1_plain.json");
  write_v1(sample_db(), with_sum);
  write_file(without_sum, sample_db().to_json().dump());
  const ProfileDb v1 = ProfileDb::load(with_sum);
  expect_same_entries(v1, ProfileDb::load(without_sum));
  expect_same_entries(v1, sample_db());

  const std::string v2_path = temp_path("persist_v1_rewritten.db");
  v1.save(v2_path);
  ASSERT_TRUE(is_v2(read_file(v2_path)));
  const ProfileDb v2 = ProfileDb::load(v2_path);
  expect_same_entries(v1, v2);
  v1.context(0xabcdef0123456789ull)->for_each([&](std::uint64_t k, double v) {
    EXPECT_EQ(bits(v2.context(0xabcdef0123456789ull)->at(k)), bits(v));
  });
}

TEST(ProfileDbV2, AV1FilePlusAMissLeavesAV2FileWithOldAndNewEntries) {
  const std::string path = temp_path("persist_v1_then_miss.json");
  write_v1(sample_db(), path);

  OptimizationRequest request = OptimizationRequest::for_model("fig3");
  request.baselines.clear();
  request.profile_db = path;
  const OptimizationResult result = Optimizer().optimize(request);
  ASSERT_GT(result.new_measurements, 0);

  ASSERT_TRUE(is_v2(read_file(path)));
  const ProfileDb after = ProfileDb::load(path);
  EXPECT_EQ(after.num_contexts(), 3u);
  EXPECT_EQ(after.num_entries(),
            3u + static_cast<std::size_t>(result.new_measurements));
  EXPECT_EQ(bits(after.context(0xabcdef0123456789ull)->at(1)), bits(10.5));
  EXPECT_EQ(bits(after.context(0x42)->at(7)), bits(1234.0));
}

// A warm search reads the same latencies from a v1 file and from its v2
// rewrite, so both reproduce the cold search bit for bit and simulate
// nothing.
TEST(ProfileDbV2, V1AndV2DbsGiveTheColdScheduleWithZeroMeasurements) {
  for (const std::string model : {"squeezenet", "inception_v3", "nasnet"}) {
    SCOPED_TRACE(model);
    OptimizationRequest request =
        OptimizationRequest::for_model(model, "v100", 1);
    request.baselines.clear();
    request.options.num_threads = 4;
    ASSERT_EQ(request.options.prune, PruneMode::kExact);

    const std::string filled = temp_path("persist_warm_" + model + ".db");
    request.profile_db = filled;
    const OptimizationResult cold = Optimizer().optimize(request);
    ASSERT_GT(cold.new_measurements, 0);

    const std::string v1_path = temp_path("persist_warm_" + model + ".json");
    const std::string v2_path = temp_path("persist_warm_" + model + "_v2.db");
    write_v1(ProfileDb::load(filled), v1_path);
    ProfileDb::load(v1_path).save(v2_path);

    for (const std::string& path : {v1_path, v2_path}) {
      SCOPED_TRACE(path);
      request.profile_db = path;
      const OptimizationResult warm = Optimizer().optimize(request);
      EXPECT_EQ(warm.new_measurements, 0);
      EXPECT_EQ(warm.profile_entries_loaded, cold.new_measurements);
      EXPECT_EQ(schedule_to_json(warm.schedule).dump(),
                schedule_to_json(cold.schedule).dump());
      EXPECT_EQ(bits(warm.latency_us), bits(cold.latency_us));
    }
  }
}

// ---------------------------------------------------------------------------
// Shared buckets: what a CostModel loads is a snapshot it reads in place.

/// `cost` answers every stage of `entries` with the stored bits and
/// simulates none of them.
void expect_answered_unsimulated(CostModel& cost,
                                 const ProfileDb::Entries& entries) {
  entries.for_each([&](std::uint64_t key, double latency) {
    const double got = cost.measure_keyed(key, []() -> Stage {
      throw std::logic_error("a loaded stage was simulated");
    });
    EXPECT_EQ(bits(got), bits(latency));
  });
  EXPECT_EQ(cost.num_measurements(), 0);
}

TEST(ProfileDbShared, ALoadedBucketOutlivesMergesResetsAndItsDb) {
  const Graph g = models::squeezenet(1);
  const ExecConfig config{device_by_name("v100"), {}};
  // Squeezenet's scheduled stages, distinct: a first model measures half
  // of them into the database, and the warm model measures the rest.
  std::vector<Stage> stages;
  {
    CostModel cost(g, config);
    FlatSet64 seen;
    for (Stage& stage : IosScheduler(cost, {}).schedule_graph().stages) {
      if (seen.insert(stage_fingerprint(stage))) {
        stages.push_back(std::move(stage));
      }
    }
  }
  ASSERT_GE(stages.size(), 4u);
  const std::size_t half = stages.size() / 2;
  CostModel first(g, config);
  for (std::size_t i = 0; i < half; ++i) first.measure(stages[i]);
  const std::uint64_t ctx = first.profile_context();

  enum class Then { kMergeLarger, kDestroyDb, kResetDb };
  for (const Then then : {Then::kMergeLarger, Then::kDestroyDb,
                          Then::kResetDb}) {
    SCOPED_TRACE(static_cast<int>(then));
    auto db = std::make_unique<ProfileDb>();
    ASSERT_EQ(first.save_profile(*db), static_cast<int>(half));
    const ProfileDb::Entries loaded = *db->context(ctx);

    CostModel warm(g, config);
    ASSERT_EQ(warm.load_profile(*db), static_cast<int>(half));
    switch (then) {
      case Then::kMergeLarger: {
        // Every loaded key at another value, plus one more key.
        auto larger = std::make_shared<ProfileDb::Entries>();
        loaded.for_each([&](std::uint64_t key, double latency) {
          larger->try_emplace(key, 2 * latency);
        });
        larger->try_emplace(0x5eed, 1.0);
        db->merge(ctx, std::move(larger));
        ASSERT_EQ(db->context(ctx)->size(), half + 1);
        break;
      }
      case Then::kDestroyDb:
        db.reset();
        break;
      case Then::kResetDb:
        *db = ProfileDb{};  // how the registry resets a deleted file's path
        break;
    }
    expect_answered_unsimulated(warm, loaded);

    std::vector<double> measured;
    for (std::size_t i = half; i < stages.size(); ++i) {
      measured.push_back(warm.measure(stages[i]));
    }
    EXPECT_EQ(warm.num_measurements(),
              static_cast<std::int64_t>(stages.size() - half));

    // save_profile publishes the snapshot plus what the model measured.
    ProfileDb out;
    EXPECT_EQ(warm.save_profile(out), static_cast<int>(stages.size()));
    const ProfileDb::Entries* saved = out.context(ctx);
    ASSERT_NE(saved, nullptr);
    EXPECT_EQ(saved->size(), stages.size());
    loaded.for_each([&](std::uint64_t key, double latency) {
      EXPECT_EQ(bits(saved->at(key)), bits(latency));
    });
    for (std::size_t i = half; i < stages.size(); ++i) {
      EXPECT_EQ(bits(saved->at(stage_fingerprint(stages[i]))),
                bits(measured[i - half]));
    }
  }
}

TEST(ProfileDbShared, ACopyNeverSeesTheOthersUpdates) {
  ProfileDb a = sample_db();
  ProfileDb b = a;
  a.context_for_update(0x42)[7] = 1.0;
  a.context_for_update(0x42)[8] = 2.0;
  b.context_for_update(0xabcdef0123456789ull)[1] = 3.0;
  EXPECT_EQ(bits(b.context(0x42)->at(7)), bits(1234.0));
  EXPECT_EQ(b.context(0x42)->find(8), nullptr);
  EXPECT_EQ(bits(a.context(0xabcdef0123456789ull)->at(1)), bits(10.5));

  // A loaded database's buckets are published: a copy shares them until
  // it writes, and then writes its own.
  const std::string path = temp_path("persist_shared_copy.db");
  sample_db().save(path);
  const ProfileDb loaded = ProfileDb::load(path);
  ProfileDb copy = loaded;
  EXPECT_EQ(copy.context(0x42), loaded.context(0x42));
  copy.context_for_update(0x42)[7] = 5.0;
  EXPECT_EQ(bits(loaded.context(0x42)->at(7)), bits(1234.0));
  EXPECT_EQ(bits(copy.context(0x42)->at(7)), bits(5.0));

  // A snapshot and an assigned copy are just as deaf to later writes.
  const ProfileDb::Bucket snapshot = copy.share(0x42);
  ProfileDb assigned;
  assigned = copy;
  copy.context_for_update(0x42)[9] = 6.0;
  EXPECT_EQ(snapshot->find(9), nullptr);
  EXPECT_EQ(bits(snapshot->at(7)), bits(5.0));
  EXPECT_EQ(assigned.context(0x42)->find(9), nullptr);
  EXPECT_EQ(bits(assigned.context(0x42)->at(7)), bits(5.0));
}

}  // namespace
}  // namespace ios
