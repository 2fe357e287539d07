#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "approx/config_lp.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "gen/config_scenarios.hpp"
#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "util/prng.hpp"

namespace dsp::approx {
namespace {

using Scenario = gen::ConfigLpScenario;

/// Random vertical items over a few height classes plus a box set able to
/// hold them (the same generator the E11 bench sweeps — see
/// gen/config_scenarios.hpp).
Scenario random_scenario(Rng& rng, int max_classes = 5) {
  gen::ConfigLpScenarioParams params;
  params.classes = static_cast<int>(rng.uniform(2, max_classes));
  return gen::config_lp_scenario(params, rng);
}

VerticalFillResult run_engine(const Scenario& scenario, ConfigLpEngine engine,
                              std::size_t max_configs = 4096,
                              std::size_t max_rounds = 64,
                              VerticalFillScratch* scratch = nullptr) {
  VerticalFillParams params;
  params.engine = engine;
  params.max_configs = max_configs;
  params.max_pricing_rounds = max_rounds;
  params.scratch = scratch;
  return fill_vertical_items(scenario.instance, scenario.indices,
                             scenario.rounding, scenario.boxes, params);
}

/// Placed/overflow must partition the items, with placed starts in-strip.
void check_partition(const Scenario& scenario, const VerticalFillResult& fill) {
  std::vector<bool> overflowed(scenario.indices.size(), false);
  for (const std::size_t k : fill.overflow) {
    ASSERT_LT(k, scenario.indices.size());
    EXPECT_FALSE(overflowed[k]) << "item " << k << " overflowed twice";
    overflowed[k] = true;
  }
  for (std::size_t k = 0; k < scenario.indices.size(); ++k) {
    if (overflowed[k]) {
      EXPECT_EQ(fill.start[k], -1);
      continue;
    }
    ASSERT_GE(fill.start[k], 0) << "item " << k << " neither placed nor "
                                << "overflowed";
    const Length w = scenario.instance.item(scenario.indices[k]).width;
    EXPECT_LE(fill.start[k] + w, scenario.instance.strip_width());
  }
}

TEST(ConfigLpEngines, ColumnGenerationMatchesDenseOnRandomScenarios) {
  Rng rng(101);
  for (int round = 0; round < 30; ++round) {
    const Scenario scenario = random_scenario(rng);
    const VerticalFillResult dense =
        run_engine(scenario, ConfigLpEngine::kDenseEnumeration);
    const VerticalFillResult cg =
        run_engine(scenario, ConfigLpEngine::kColumnGeneration);
    EXPECT_EQ(dense.engine, ConfigLpEngine::kDenseEnumeration);
    EXPECT_EQ(cg.engine, ConfigLpEngine::kColumnGeneration);
    // The acceptance contract: column generation never falls back where the
    // dense oracle succeeded, and reaches an objective no worse.
    if (dense.lp_solved) {
      ASSERT_TRUE(cg.lp_solved) << "round " << round;
      EXPECT_LE(cg.lp_objective,
                dense.lp_objective + 1e-6 * (1.0 + std::abs(dense.lp_objective)))
          << "round " << round;
      // The objective is in fact constant over the feasible region (see
      // DESIGN.md), so the optima agree exactly up to roundoff.
      EXPECT_NEAR(cg.lp_objective, dense.lp_objective,
                  1e-6 * (1.0 + std::abs(dense.lp_objective)))
          << "round " << round;
    }
    if (cg.lp_solved) {
      EXPECT_GE(cg.pricing_rounds, 1u);
      // Basic solution: support bounded by the number of LP rows
      // (|B| boxes + |H| *distinct* height classes).
      std::vector<Height> heights = scenario.rounding.rounded;
      std::sort(heights.begin(), heights.end());
      const auto distinct = static_cast<std::size_t>(
          std::unique(heights.begin(), heights.end()) - heights.begin());
      EXPECT_LE(cg.nonzero_configs, scenario.boxes.size() + distinct);
      check_partition(scenario, cg);
    }
    if (dense.lp_solved) check_partition(scenario, dense);
  }
}

TEST(ConfigLpEngines, SharedScratchIsBitIdenticalToCallLocal) {
  // One scratch carried across scenarios of different class counts (as a
  // solve54 bisection carries one across its attempts) must give exactly
  // the call-local result: every call re-derives the scratch contents.
  Rng rng(202);
  for (const ConfigLpEngine engine : {ConfigLpEngine::kDenseEnumeration,
                                      ConfigLpEngine::kColumnGeneration}) {
    VerticalFillScratch scratch;
    for (int round = 0; round < 12; ++round) {
      const Scenario scenario = random_scenario(rng);
      const VerticalFillResult local = run_engine(scenario, engine);
      const VerticalFillResult shared =
          run_engine(scenario, engine, 4096, 64, &scratch);
      EXPECT_EQ(shared.start, local.start) << "round " << round;
      EXPECT_EQ(shared.overflow, local.overflow) << "round " << round;
      EXPECT_EQ(shared.configurations, local.configurations);
      EXPECT_EQ(shared.nonzero_configs, local.nonzero_configs);
      EXPECT_EQ(shared.pricing_rounds, local.pricing_rounds);
      EXPECT_EQ(shared.lp_solved, local.lp_solved);
      EXPECT_EQ(shared.capped, local.capped);
      EXPECT_EQ(shared.lp_objective, local.lp_objective);
    }
  }
}

TEST(ConfigLpEngines, ColumnGenerationSurvivesTheDenseCapCliff) {
  // Eight height classes, one unit-width item each, one box: the only
  // useful configurations are sparse mixes, but dense enumeration explores
  // densest stacks first, so a 16-column cap trims away the needed columns
  // and the LP goes spuriously infeasible.  Column generation prices
  // exactly the columns it needs under the *same* cap.
  const std::vector<Height> heights = {3, 5, 7, 11, 13, 17, 19, 23};
  std::vector<Item> items;
  for (const Height h : heights) items.push_back(Item{1, h});
  Scenario scenario{Instance(8, items), {}, {}, {GapBox{0, 8, 100}}};
  scenario.indices.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) scenario.indices[i] = i;
  for (const Item& it : items) scenario.rounding.rounded.push_back(it.height);
  scenario.rounding.grid.assign(items.size(), 1);

  const VerticalFillResult dense =
      run_engine(scenario, ConfigLpEngine::kDenseEnumeration, 16);
  EXPECT_TRUE(dense.capped);
  EXPECT_FALSE(dense.lp_solved) << "the cap cliff this test relies on is "
                                   "gone; pick a harder scenario";
  const VerticalFillResult cg =
      run_engine(scenario, ConfigLpEngine::kColumnGeneration, 16);
  EXPECT_TRUE(cg.lp_solved);
  EXPECT_FALSE(cg.capped);
  // The basic solution may be fractional (overflow items are fine — Lemma
  // 10 allows up to 7(|H|+|B|) of them); what matters is that the LP is
  // solved rather than spuriously infeasible.
  EXPECT_LE(cg.overflow.size(), 7 * (scenario.rounding.rounded.size() +
                                     scenario.boxes.size()));
  check_partition(scenario, cg);
}

TEST(ConfigLpEngines, EmptyItemsAndEmptyBoxes) {
  Rng rng(303);
  const Scenario base = random_scenario(rng);
  for (const ConfigLpEngine engine : {ConfigLpEngine::kDenseEnumeration,
                                      ConfigLpEngine::kColumnGeneration}) {
    VerticalFillParams params;
    params.engine = engine;
    const VerticalFillResult no_items = fill_vertical_items(
        base.instance, {}, base.rounding, base.boxes, params);
    EXPECT_TRUE(no_items.lp_solved);
    EXPECT_TRUE(no_items.overflow.empty());
    EXPECT_EQ(no_items.configurations, 0u);

    const VerticalFillResult no_boxes = fill_vertical_items(
        base.instance, base.indices, base.rounding, {}, params);
    EXPECT_FALSE(no_boxes.lp_solved);
    EXPECT_EQ(no_boxes.overflow.size(), base.indices.size());
  }
}

TEST(ConfigLpEngines, ZeroWidthBoxesAreHarmless) {
  // Ten 1x4 items; a zero-width box cannot host anything but must not break
  // either engine (its width-0 row is satisfied by the empty configuration).
  std::vector<Item> items(10, Item{1, 4});
  Scenario scenario{Instance(5, items),
                    {},
                    {},
                    {GapBox{0, 0, 9}, GapBox{0, 5, 8}}};
  scenario.indices.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) scenario.indices[i] = i;
  scenario.rounding.rounded.assign(10, 4);
  scenario.rounding.grid.assign(10, 1);
  for (const ConfigLpEngine engine : {ConfigLpEngine::kDenseEnumeration,
                                      ConfigLpEngine::kColumnGeneration}) {
    const VerticalFillResult fill = run_engine(scenario, engine);
    EXPECT_TRUE(fill.lp_solved);
    EXPECT_TRUE(fill.overflow.empty());
    check_partition(scenario, fill);
  }
}

TEST(ConfigLpEngines, SafetyValveSetsCappedInsteadOfLooping) {
  Rng rng(404);
  const Scenario scenario = random_scenario(rng);
  const VerticalFillResult one_round = run_engine(
      scenario, ConfigLpEngine::kColumnGeneration, 4096, 1);
  // One pricing round cannot reach convergence on a non-trivial scenario:
  // the valve must report it rather than silently continuing.
  EXPECT_TRUE(one_round.capped);
  EXPECT_EQ(one_round.pricing_rounds, 1u);
}

TEST(Solve54Engines, BothEnginesProduceFeasiblePackings) {
  Rng rng(505);
  // Narrow items on a wide strip: the regime where the V category (and
  // hence the Lemma-10 LP) is actually populated.
  bool any_lp_used = false;
  for (int round = 0; round < 4; ++round) {
    const Instance inst = gen::random_uniform(50, 240, 4, 24, rng);
    for (const ConfigLpEngine engine : {ConfigLpEngine::kDenseEnumeration,
                                        ConfigLpEngine::kColumnGeneration}) {
      Approx54Params params;
      params.lp_engine = engine;
      const Approx54Result result = solve54(inst, params);
      ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
      EXPECT_EQ(result.report.lp_engine, engine);
      EXPECT_LE(result.peak, result.report.upper_bound);
      if (engine == ConfigLpEngine::kColumnGeneration &&
          result.report.lp_used) {
        any_lp_used = true;
        // The new diagnostics must actually be plumbed through the report.
        EXPECT_GE(result.report.lp_pricing_rounds, 1u);
        EXPECT_GE(result.report.lp_configurations, 1u);
      }
    }
  }
  EXPECT_TRUE(any_lp_used) << "no round exercised the configuration LP; "
                              "the generator no longer produces V items";
}

TEST(Solve54Engines, BitIdenticalAcrossBackends) {
  Rng rng(606);
  const std::vector<Instance> instances = {
      gen::random_uniform(50, 160, 6, 24, rng),
      gen::smart_grid(40, 96, rng),
  };
  for (const Instance& inst : instances) {
    Approx54Params baseline_params;
    baseline_params.lp_engine = ConfigLpEngine::kColumnGeneration;
    const Approx54Result baseline = solve54(inst, baseline_params);
    for (const ProfileBackendKind backend :
         {ProfileBackendKind::kDense, ProfileBackendKind::kSparse}) {
      Approx54Params params = baseline_params;
      params.backend = backend;
      const Approx54Result result = solve54(inst, params);
      EXPECT_EQ(result.packing.start, baseline.packing.start)
          << "backend " << static_cast<int>(backend);
      EXPECT_EQ(result.peak, baseline.peak);
      EXPECT_EQ(result.report.best_guess, baseline.report.best_guess);
      EXPECT_EQ(result.report.lp_configurations,
                baseline.report.lp_configurations);
      EXPECT_EQ(result.report.lp_pricing_rounds,
                baseline.report.lp_pricing_rounds);
    }
  }
}

TEST(Solve54Engines, ConcurrentCallersAreBitIdentical) {
  // solve54 keeps all its state on the caller's stack, so independent
  // calls from several threads at once (the daemon solves each request on
  // its connection's thread) must each return the sequential answer.
  Rng rng(808);
  const std::vector<Instance> instances = {
      gen::random_uniform(50, 240, 4, 24, rng),
      gen::random_uniform(40, 160, 6, 24, rng),
      gen::smart_grid(40, 96, rng),
  };
  std::vector<Approx54Result> reference;
  for (const Instance& inst : instances) reference.push_back(solve54(inst));
  constexpr std::size_t kCallers = 4;
  std::vector<std::vector<Approx54Result>> results(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&instances, &results, c]() {
      // Each caller walks the instances from a different offset so the
      // threads are solving different instances at the same time.
      for (std::size_t k = 0; k < instances.size(); ++k) {
        const std::size_t i = (c + k) % instances.size();
        results[c].push_back(solve54(instances[i]));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(results[c].size(), instances.size());
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const std::size_t i = (c + k) % instances.size();
      const Approx54Result& result = results[c][k];
      EXPECT_EQ(result.packing.start, reference[i].packing.start)
          << "caller " << c << " instance " << i;
      EXPECT_EQ(result.peak, reference[i].peak);
      EXPECT_EQ(result.report.best_guess, reference[i].report.best_guess);
      EXPECT_EQ(result.report.attempts, reference[i].report.attempts);
      EXPECT_EQ(result.report.lp_configurations,
                reference[i].report.lp_configurations);
    }
  }
}

}  // namespace
}  // namespace dsp::approx
