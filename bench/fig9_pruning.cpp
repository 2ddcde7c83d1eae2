// Figure 9: trade-off between optimized latency and optimization cost under
// the schedule pruning strategy P(r, s), for Inception V3 and NasNet with
// r in {1,2,3} and s in {3,8}. Smaller r/s cut the search cost at the price
// of a (slightly) worse schedule.

#include <cstdio>

#include "bench/common.hpp"
#include "runtime/canonical_cache.hpp"

int main() {
  using namespace ios;
  const DeviceSpec dev = tesla_v100();

  std::printf("Figure 9: pruning trade-off (latency vs optimization cost), "
              "Tesla V100, batch size 1\n");
  std::printf("(paper shape: smaller r and s -> lower optimization cost, "
              "higher latency)\n\n");

  const bench::NamedModel models_under_test[] = {
      {"Inception V3", [](int b) { return models::inception_v3(b); }},
      {"NasNet", [](int b) { return models::nasnet_a(b); }},
  };

  for (const auto& m : models_under_test) {
    const Graph g = m.build(1);
    TablePrinter t({"pruning", "latency (ms)", "opt cost (sim s)",
                    "#measurements", "DP transitions", "wall (ms)"});
    for (int s : {8, 3}) {
      for (int r : {3, 2, 1}) {
        SchedulerStats stats;
        const Schedule q = bench::ios_schedule(
            g, dev, IosVariant::kBoth, PruningStrategy{r, s}, &stats);
        const double lat = bench::latency_us(g, dev, q);
        t.add_row({"r=" + std::to_string(r) + " s=" + std::to_string(s),
                   TablePrinter::fmt(lat / 1000.0, 3),
                   TablePrinter::fmt(stats.profiling_cost_us / 1e6, 2),
                   std::to_string(stats.measurements),
                   std::to_string(stats.transitions),
                   TablePrinter::fmt(stats.search_wall_ms, 0)});
      }
    }
    std::printf("%s\n", m.name.c_str());
    t.print();

    // The paper also reports that even r=1, s=8 keeps a large speedup over
    // the sequential schedule (1.59x Inception, 1.37x NasNet).
    Executor ex(g, bench::config_for(dev));
    const double seq = ex.schedule_latency_us(sequential_schedule(g));
    const double pruned = bench::latency_us(
        g, dev, bench::ios_schedule(g, dev, IosVariant::kBoth,
                                    PruningStrategy{1, 8}));
    std::printf("speedup of r=1,s=8 over sequential: %.2fx\n\n", seq / pruned);
  }

  // Beyond P(r, s): the optimization cost of a *fleet* of models also drops
  // when requests share a canonical stage cache — stages whose expanded
  // kernel streams coincide are simulated once per cache, not once per
  // model. ResNet-50 after ResNet-34 answers part of its profiling from the
  // earlier model's measurements (cross-model hits), on top of the
  // within-model canonical collapses.
  std::printf("cross-request reuse (shared canonical stage cache, "
              "ResNet-34 then ResNet-50)\n");
  CanonicalStageCache cache;
  BlockTemplateCache templates;
  TablePrinter reuse({"model", "#measurements", "canonical hits",
                      "cross-model hits", "block-schedule hits"});
  const bench::NamedModel fleet[] = {
      {"ResNet-34", [](int b) { return models::resnet34(b); }},
      {"ResNet-50", [](int b) { return models::resnet50(b); }},
  };
  for (const auto& m : fleet) {
    const Graph g = m.build(1);
    CostModel cost(g, bench::config_for(dev));
    cost.enable_canonical_reuse(&cache);
    SchedulerStats stats;
    IosScheduler(cost, SchedulerOptions{}, &templates).schedule_graph(&stats);
    reuse.add_row({m.name, std::to_string(stats.measurements),
                   std::to_string(stats.canonical_hits),
                   std::to_string(stats.cross_model_hits),
                   std::to_string(stats.block_cache_hits)});
  }
  reuse.print();
  return 0;
}
