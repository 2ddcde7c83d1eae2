// Crash-safe persistence: ProfileDb and Recipe files are written via
// temp + fsync + atomic rename with an embedded content checksum, so a
// kill -9 mid-save leaves either the old or the new file — never a torn
// one — and any corruption that still parses is rejected on load as a
// named CorruptFileError instead of silently feeding the optimizer bad
// latencies.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "api/optimizer.hpp"
#include "runtime/profile_db.hpp"
#include "schedule/serialize.hpp"
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

TEST(Persistence, SaveEmbedsAVerifiableChecksumAndRoundTrips) {
  const std::string path = temp_path("persist_roundtrip.json");
  sample_db().save(path);

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
  sample_db().save(path);
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

}  // namespace
}  // namespace ios
