// Golden-schedule regression corpus. tests/golden/*.json pin the exact
// schedule, executor latency, and search statistics the optimizer produces
// for a grid of (model, device, batch, variant, pruning) configurations.
// Re-optimizing each configuration must reproduce its golden file *bit for
// bit* — any future change to the search order, the cost model, the
// simulator, or a device spec that silently shifts results fails loudly
// here. Intentional changes regenerate the corpus with one command:
//
//   cd build && IOS_GOLDEN_REGEN=1 ./golden_test
//
// then review the golden-file diff like any other code change. The corpus
// location is baked in at compile time (IOS_GOLDEN_DIR, set by CMake to the
// source tree's tests/golden), so regeneration writes the checked-in files
// directly.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "api/optimizer.hpp"
#include "fleet/sim.hpp"
#include "models/models.hpp"
#include "schedule/serialize.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

#ifndef IOS_GOLDEN_DIR
#error "IOS_GOLDEN_DIR must be defined (see CMakeLists.txt)"
#endif

namespace ios {
namespace {

struct GoldenConfig {
  const char* file;
  const char* model;
  const char* device;
  int batch;
  IosVariant variant;
  int r, s;
  // Pruning knob. Entries predating the knob leave the defaults; their
  // golden files (and the JSON emitted for them) are byte-identical to
  // before the knob existed.
  PruneMode prune = PruneMode::kExact;
  int beam = 8;
};

// The corpus: every zoo-relevant device family, both non-default variants,
// a non-default pruning bound, batch sizes 1/4/8, and the three pruned
// search modes. Keep entries cheap to optimize — the whole suite
// re-searches all of them from scratch.
constexpr GoldenConfig kCorpus[] = {
    {"fig2_v100_b1.json", "fig2", "v100", 1, IosVariant::kBoth, 3, 8},
    {"fig2_k80_b1.json", "fig2", "k80", 1, IosVariant::kBoth, 3, 8},
    {"fig2_1080ti_b8.json", "fig2", "1080ti", 8, IosVariant::kBoth, 3, 8},
    {"squeezenet_v100_b1.json", "squeezenet", "v100", 1, IosVariant::kBoth, 3,
     8},
    {"squeezenet_v100_b1_parallel.json", "squeezenet", "v100", 1,
     IosVariant::kParallel, 3, 8},
    {"squeezenet_v100_b1_merge.json", "squeezenet", "v100", 1,
     IosVariant::kMerge, 3, 8},
    {"squeezenet_2080ti_b4.json", "squeezenet", "2080ti", 4, IosVariant::kBoth,
     3, 8},
    {"squeezenet_p100_b1_r2s4.json", "squeezenet", "p100", 1, IosVariant::kBoth,
     2, 4},
    {"inception_v3_v100_b1.json", "inception_v3", "v100", 1, IosVariant::kBoth,
     3, 8},
    // Pruned modes: dominance must match squeezenet_v100_b1.json's schedule
    // and latency exactly (only the search-shape counters differ); the beam
    // entries pin the lossy frontier at two widths.
    {"squeezenet_v100_b1_dominance.json", "squeezenet", "v100", 1,
     IosVariant::kBoth, 3, 8, PruneMode::kDominance},
    {"squeezenet_v100_b1_beam2.json", "squeezenet", "v100", 1,
     IosVariant::kBoth, 3, 8, PruneMode::kBeam, 2},
    {"inception_v3_v100_b1_beam4.json", "inception_v3", "v100", 1,
     IosVariant::kBoth, 3, 8, PruneMode::kBeam, 4},
};

OptimizationRequest request_for(const GoldenConfig& config) {
  OptimizationRequest request =
      OptimizationRequest::for_model(config.model, config.device,
                                     config.batch);
  request.options.variant = config.variant;
  request.options.pruning = PruningStrategy{config.r, config.s};
  request.options.prune = config.prune;
  request.options.beam_width = config.beam;
  request.baselines.clear();
  return request;
}

JsonValue golden_json(const GoldenConfig& config,
                      const OptimizationResult& result) {
  JsonValue cfg = JsonValue::object();
  cfg.set("model", config.model);
  cfg.set("device", config.device);
  cfg.set("batch", config.batch);
  cfg.set("variant", ios_variant_name(config.variant));
  cfg.set("r", config.r);
  cfg.set("s", config.s);
  // Pruning keys only when active, so pre-knob files stay byte-identical.
  if (config.prune != PruneMode::kExact) {
    cfg.set("prune", prune_mode_name(config.prune));
    if (config.prune == PruneMode::kBeam) cfg.set("beam_width", config.beam);
  }

  JsonValue stats = JsonValue::object();
  stats.set("states", result.stats.states);
  stats.set("transitions", result.stats.transitions);
  stats.set("measurements", result.stats.measurements);
  stats.set("cache_hits", result.stats.cache_hits);
  stats.set("pruned_endings", result.stats.pruned_endings);
  if (config.prune != PruneMode::kExact) {
    stats.set("pruned_states", result.stats.pruned_states);
    stats.set("beam_trimmed", result.stats.beam_trimmed);
    stats.set("latency_gap_bound_us", result.stats.latency_gap_bound_us);
  }

  JsonValue root = JsonValue::object();
  root.set("format", "ios-golden-schedule");
  root.set("version", 1);
  root.set("config", std::move(cfg));
  root.set("schedule", schedule_to_json(result.schedule));
  root.set("latency_us", result.latency_us);
  root.set("stats", std::move(stats));
  return root;
}

std::string golden_path(const GoldenConfig& config) {
  return std::string(IOS_GOLDEN_DIR) + "/" + config.file;
}

bool regen_requested() {
  const char* env = std::getenv("IOS_GOLDEN_REGEN");
  return env != nullptr && std::string(env) == "1";
}

class GoldenScheduleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenScheduleTest, ReoptimizationIsBitIdentical) {
  const GoldenConfig& config = kCorpus[GetParam()];
  Optimizer optimizer;
  const OptimizationResult result = optimizer.optimize(request_for(config));
  ASSERT_FALSE(result.cache_hit);

  if (regen_requested()) {
    write_file(golden_path(config), golden_json(config, result).dump());
    SUCCEED() << "regenerated " << config.file;
    return;
  }

  const JsonValue golden = JsonValue::parse(read_file(golden_path(config)));
  ASSERT_EQ(golden.at("format").as_string(), "ios-golden-schedule");
  ASSERT_EQ(golden.at("version").as_int(), 1);

  // Bit-identical schedule: compare canonical JSON dumps (keys sorted, so
  // the dump is a deterministic function of the structure).
  EXPECT_EQ(schedule_to_json(result.schedule).dump(),
            golden.at("schedule").dump())
      << config.file << ": the chosen schedule changed";

  // Bit-identical latency: the %.17g writer round-trips doubles exactly, so
  // value equality here is bit equality.
  EXPECT_EQ(result.latency_us, golden.at("latency_us").as_number())
      << config.file << ": the executor latency changed";

  const JsonValue& stats = golden.at("stats");
  EXPECT_EQ(result.stats.states, stats.at("states").as_int()) << config.file;
  EXPECT_EQ(result.stats.transitions, stats.at("transitions").as_int())
      << config.file;
  EXPECT_EQ(result.stats.measurements, stats.at("measurements").as_int())
      << config.file;
  EXPECT_EQ(result.stats.cache_hits, stats.at("cache_hits").as_int())
      << config.file;
  EXPECT_EQ(result.stats.pruned_endings, stats.at("pruned_endings").as_int())
      << config.file;
  if (config.prune != PruneMode::kExact) {
    EXPECT_EQ(result.stats.pruned_states, stats.at("pruned_states").as_int())
        << config.file;
    EXPECT_EQ(result.stats.beam_trimmed, stats.at("beam_trimmed").as_int())
        << config.file;
    EXPECT_EQ(result.stats.latency_gap_bound_us,
              stats.at("latency_gap_bound_us").as_number())
        << config.file;
  }
}

std::string corpus_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string name = kCorpus[info.param].file;
  return name.substr(0, name.size() - 5);  // drop ".json"
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenScheduleTest,
                         ::testing::Range<std::size_t>(0, std::size(kCorpus)),
                         corpus_name);

// ---------------------------------------------------------------------------
// Adaptive-serving golden corpus: tests/golden/serve_adaptive_*.json pin the
// complete ServingResult (every record, batch, and stat, doubles at full
// precision) of an SLO-aware adaptive serve run on a seeded phased trace.
// Any change to deadline flushing, priority dequeue, degrade, shed, or the
// controller's re-plan cadence fails loudly here; intentional changes
// regenerate with the same IOS_GOLDEN_REGEN=1 command as the schedules.

struct ServeGoldenConfig {
  const char* file;
  serve::ServerOptions options;
  serve::TraceSpec trace;
};

std::vector<ServeGoldenConfig> serve_corpus() {
  std::vector<ServeGoldenConfig> corpus;
  {  // quiet -> burst -> quiet with shed + priorities, controller on
    ServeGoldenConfig c;
    c.file = "serve_adaptive_shift.json";
    c.options.device = "v100";
    c.options.num_workers = 2;
    c.options.batching.max_queue_delay_us = 600;
    c.options.slo.models["fig2"] = {1200, 2};
    c.options.slo.models["fig5"] = {400, 1};
    c.options.slo.shed = true;
    c.options.adaptive.enabled = true;
    c.options.adaptive.warmup_arrivals = 8;
    c.options.adaptive.min_replan_gap_us = 1000;
    c.trace.models = {"fig2", "fig5"};
    c.trace.phases = {{40, 700}, {90, 70}, {30, 700}};
    c.trace.seed = 101;
    corpus.push_back(std::move(c));
  }
  {  // tight SLO on one worker: degrade engages, nothing sheds
    ServeGoldenConfig c;
    c.file = "serve_adaptive_degrade.json";
    c.options.device = "v100";
    c.options.num_workers = 1;
    c.options.batching.max_queue_delay_us = 1000;
    c.options.slo.models["fig2"] = {1500, 0};
    c.options.slo.models["fig5"] = {800, 0};
    c.options.adaptive.enabled = true;
    c.options.adaptive.warmup_arrivals = 8;
    c.options.adaptive.min_replan_gap_us = 2000;
    c.trace.models = {"fig2", "fig5"};
    c.trace.phases = {{50, 900}, {70, 150}};
    c.trace.seed = 55;
    corpus.push_back(std::move(c));
  }
  {  // starvation bound + shed slack across three priority classes
    ServeGoldenConfig c;
    c.file = "serve_adaptive_starvation.json";
    c.options.device = "v100";
    c.options.num_workers = 2;
    c.options.batching.max_queue_delay_us = 500;
    c.options.slo.models["fig2"] = {1000, 3};
    c.options.slo.models["fig5"] = {350, 1};
    c.options.slo.shed = true;
    c.options.slo.shed_slack_factor = 1.3;
    c.options.slo.starvation_limit_us = 4000;
    c.options.adaptive.enabled = true;
    c.options.adaptive.warmup_arrivals = 8;
    c.options.adaptive.min_replan_gap_us = 1500;
    c.trace.models = {"fig2", "fig5"};
    c.trace.phases = {{30, 600}, {100, 60}, {30, 600}};
    c.trace.seed = 202;
    corpus.push_back(std::move(c));
  }
  return corpus;
}

JsonValue serving_json(const serve::ServingResult& result) {
  JsonValue records = JsonValue::array();
  for (const serve::RequestRecord& r : result.records) {
    JsonValue v = JsonValue::object();
    v.set("model", r.model);
    v.set("arrival_us", r.arrival_us);
    v.set("dispatch_us", r.dispatch_us);
    v.set("completion_us", r.completion_us);
    v.set("batch_id", r.batch_id);
    v.set("worker", r.worker);
    v.set("priority", r.priority);
    v.set("slo_us", r.slo_us);
    v.set("slo_met", r.slo_met);
    v.set("shed", r.shed);
    v.set("shed_us", r.shed_us);
    records.push_back(std::move(v));
  }
  JsonValue batches = JsonValue::array();
  for (const serve::BatchRecord& b : result.batches) {
    JsonValue v = JsonValue::object();
    v.set("model", b.model);
    v.set("size", b.size);
    v.set("formed_us", b.formed_us);
    v.set("start_us", b.start_us);
    v.set("completion_us", b.completion_us);
    v.set("worker", b.worker);
    v.set("device", b.device);
    v.set("priority", b.priority);
    v.set("degraded", b.degraded);
    batches.push_back(std::move(v));
  }
  JsonValue stats = JsonValue::object();
  stats.set("requests", result.stats.requests);
  stats.set("batches", result.stats.batches);
  stats.set("completed", result.stats.completed);
  stats.set("shed", result.stats.shed);
  stats.set("slo_met", result.stats.slo_met);
  stats.set("slo_attainment", result.stats.slo_attainment);
  stats.set("degraded_batches", result.stats.degraded_batches);
  stats.set("replans", result.stats.replans);
  stats.set("makespan_us", result.stats.makespan_us);
  stats.set("mean_latency_us", result.stats.mean_latency_us);
  stats.set("p99_latency_us", result.stats.p99_latency_us);

  JsonValue root = JsonValue::object();
  root.set("format", "ios-golden-serving");
  root.set("version", 1);
  root.set("records", std::move(records));
  root.set("batches", std::move(batches));
  root.set("stats", std::move(stats));
  return root;
}

class GoldenServingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenServingTest, AdaptiveServeIsBitIdentical) {
  const ServeGoldenConfig config = serve_corpus()[GetParam()];
  serve::Server server(config.options);
  const serve::ServingResult result =
      server.run(serve::generate_trace(config.trace));
  const std::string path = std::string(IOS_GOLDEN_DIR) + "/" + config.file;
  const std::string dump = serving_json(result).dump();

  if (regen_requested()) {
    write_file(path, dump);
    SUCCEED() << "regenerated " << config.file;
    return;
  }

  const JsonValue golden = JsonValue::parse(read_file(path));
  ASSERT_EQ(golden.at("format").as_string(), "ios-golden-serving");
  ASSERT_EQ(golden.at("version").as_int(), 1);
  // Canonical dumps (sorted keys, %.17g doubles) make string equality bit
  // equality on every field at once.
  EXPECT_EQ(dump, golden.dump())
      << config.file << ": the serving schedule changed";
}

std::string serve_corpus_name(const ::testing::TestParamInfo<std::size_t>& i) {
  std::string name = serve_corpus()[i.param].file;
  return name.substr(0, name.size() - 5);  // drop ".json"
}

INSTANTIATE_TEST_SUITE_P(ServeCorpus, GoldenServingTest,
                         ::testing::Range<std::size_t>(0, 3),
                         serve_corpus_name);

// ---------------------------------------------------------------------------
// Fleet golden corpus: tests/golden/fleet_*.json pin the FleetStats and every
// per-request latency (doubles at full precision) of failure-injected fleet
// replays. The fleet tests only check run-vs-run determinism; these files
// catch a change to kill ordering, batch stealing, or requeueing that moves
// the outcome deterministically. Regenerate with IOS_GOLDEN_REGEN=1.

struct FleetGoldenConfig {
  const char* file;
  fleet::FleetSimOptions options;
  serve::TraceSpec trace;
  bool plan = false;  ///< warm the planner first (re-plans then hit cache)
};

std::vector<FleetGoldenConfig> fleet_corpus() {
  std::vector<FleetGoldenConfig> corpus;
  {  // seeded kills on a saturated two-class, two-rack fleet
    FleetGoldenConfig c;
    c.file = "fleet_seeded_kills.json";
    c.options.topology =
        fleet::fleet_from_spec("rack:2{node:2{p100x2,1080tix2}}");
    c.options.batching.batch_sizes = {1, 2, 4, 8};
    c.options.batching.max_queue_delay_us = 3000;
    c.options.workload = {WorkloadItem{"squeezenet", 8, 3.0},
                          WorkloadItem{"mobilenet_v2", 8, 2.0}};
    c.options.failures.seed = 11;
    c.options.failures.max_kills = 4;
    c.options.failures.first_kill_at_us = 500;
    c.options.failures.mean_time_between_kills_us = 1200;
    c.trace.models = {"squeezenet", "squeezenet", "mobilenet_v2"};
    c.trace.num_requests = 400;
    c.trace.mean_interarrival_us = 15;
    c.trace.seed = 7;
    corpus.push_back(std::move(c));
  }
  {  // scripted wipe-out of the only P100 mid-trace: one warm re-plan
    FleetGoldenConfig c;
    c.file = "fleet_class_wipeout.json";
    c.options.topology = fleet::fleet_from_spec("node:1{p100,1080ti}");
    c.options.batching.batch_sizes = {1};
    c.options.workload = {WorkloadItem{"squeezenet", 1, 1.0}};
    c.options.failures.schedule = {fleet::KillEvent{900, 0}};
    c.trace.models = {"squeezenet"};
    c.trace.num_requests = 60;
    c.trace.mean_interarrival_us = 50;
    c.trace.seed = 3;
    c.plan = true;
    corpus.push_back(std::move(c));
  }
  {  // one worker: every kill is suppressed
    FleetGoldenConfig c;
    c.file = "fleet_one_worker.json";
    c.options.topology = fleet::fleet_from_spec("v100");
    c.options.batching.batch_sizes = {1};
    c.options.failures.seed = 1;
    c.options.failures.max_kills = 5;
    c.options.failures.first_kill_at_us = 0;
    c.options.failures.mean_time_between_kills_us = 100;
    c.trace.models = {"squeezenet"};
    c.trace.num_requests = 20;
    c.trace.mean_interarrival_us = 100;
    c.trace.seed = 2;
    corpus.push_back(std::move(c));
  }
  return corpus;
}

class GoldenFleetTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenFleetTest, FleetReplayIsBitIdentical) {
  const FleetGoldenConfig config = fleet_corpus()[GetParam()];
  fleet::FleetSimulator sim(config.options);
  if (config.plan) sim.plan();
  const fleet::FleetSimResult result =
      sim.run(serve::generate_trace(config.trace));

  JsonValue latencies = JsonValue::array();
  for (const double latency : result.latencies) latencies.push_back(latency);
  JsonValue root = JsonValue::object();
  root.set("format", "ios-golden-fleet");
  root.set("version", 1);
  root.set("stats", fleet::fleet_stats_to_json(result.stats));
  root.set("latencies", std::move(latencies));
  const std::string dump = root.dump();
  const std::string path = std::string(IOS_GOLDEN_DIR) + "/" + config.file;

  if (regen_requested()) {
    write_file(path, dump);
    SUCCEED() << "regenerated " << config.file;
    return;
  }

  const JsonValue golden = JsonValue::parse(read_file(path));
  ASSERT_EQ(golden.at("format").as_string(), "ios-golden-fleet");
  ASSERT_EQ(golden.at("version").as_int(), 1);
  EXPECT_EQ(fleet::fleet_stats_to_json(result.stats).dump(),
            golden.at("stats").dump())
      << config.file << ": the fleet stats changed";
  EXPECT_EQ(dump, golden.dump())
      << config.file << ": a per-request latency changed";
}

std::string fleet_corpus_name(const ::testing::TestParamInfo<std::size_t>& i) {
  std::string name = fleet_corpus()[i.param].file;
  return name.substr(0, name.size() - 5);  // drop ".json"
}

INSTANTIATE_TEST_SUITE_P(FleetCorpus, GoldenFleetTest,
                         ::testing::Range<std::size_t>(0, 3),
                         fleet_corpus_name);

// The golden files double as recipe documents: the schedule embedded in
// each must be a valid schedule of its configuration's graph (guards
// against a stale corpus after model-zoo changes).
TEST(GoldenCorpus, FilesAreValidSchedules) {
  if (regen_requested()) GTEST_SKIP() << "regenerating";
  for (const GoldenConfig& config : kCorpus) {
    const JsonValue golden = JsonValue::parse(read_file(golden_path(config)));
    const Graph g = models::build_model(config.model, config.batch);
    validate_schedule(g, schedule_from_json(golden.at("schedule")));
  }
}

}  // namespace
}  // namespace ios
