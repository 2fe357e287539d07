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
                              std::size_t max_rounds = 64) {
  VerticalFillParams params;
  params.engine = engine;
  params.max_configs = max_configs;
  params.max_pricing_rounds = max_rounds;
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

// ---------------------------------------------------------------------------
// The pricing oracle on its own.
// ---------------------------------------------------------------------------

/// Total height and value of a configuration.
std::pair<Height, double> config_load(const std::vector<Height>& heights,
                                      const std::vector<double>& values,
                                      const Config& config) {
  Height used = 0;
  double value = 0.0;
  for (std::size_t c = 0; c < heights.size(); ++c) {
    used += static_cast<Height>(config[c]) * heights[c];
    value += config[c] * values[c];
  }
  return {used, value};
}

/// Every configuration with total height <= capacity, by enumeration.
std::vector<Config> all_configs(const std::vector<Height>& heights,
                                Height capacity) {
  std::vector<Config> out;
  Config current(heights.size(), 0);
  auto dfs = [&](auto&& self, std::size_t c, Height remaining) -> void {
    if (c == heights.size()) {
      out.push_back(current);
      return;
    }
    for (int k = 0; static_cast<Height>(k) * heights[c] <= remaining; ++k) {
      current[c] = k;
      self(self, c + 1, remaining - static_cast<Height>(k) * heights[c]);
    }
    current[c] = 0;
  };
  dfs(dfs, 0, capacity);
  return out;
}

TEST(Pricing, MatchesBruteForceKnapsack) {
  Rng rng(20260810);
  std::size_t unique_optima = 0;
  std::size_t duplicated = 0;
  for (int round = 0; round < 300; ++round) {
    const auto classes = static_cast<std::size_t>(rng.uniform(1, 4));
    std::vector<Height> heights;
    std::vector<double> values;
    for (std::size_t c = 0; c < classes; ++c) {
      heights.push_back(static_cast<Height>(rng.uniform(1, 12)));
      // Some classes are worthless (never priced in), most are not.
      values.push_back(rng.uniform(0, 4) == 0
                           ? 0.0
                           : static_cast<double>(rng.uniform(1, 500)) / 100.0);
    }
    // Every other round repeats an earlier class verbatim after it: the
    // tie-break must then give the repeat nothing.
    std::size_t repeat_of = classes;
    if (round % 2 == 0) {
      repeat_of = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(classes) - 1));
      heights.push_back(heights[repeat_of]);
      values.push_back(values[repeat_of]);
    }
    const auto capacity = static_cast<Height>(rng.uniform(1, 40));

    const PricedConfig priced = price_knapsack(heights, values, capacity);
    ASSERT_TRUE(priced.exact);
    ASSERT_EQ(priced.config.size(), heights.size());
    const auto [used, value] = config_load(heights, values, priced.config);
    EXPECT_LE(used, capacity) << "round " << round;
    EXPECT_NEAR(value, priced.value, 1e-9) << "round " << round;

    double best = 0.0;
    std::vector<Config> optima;
    for (const Config& config : all_configs(heights, capacity)) {
      const double v = config_load(heights, values, config).second;
      if (v > best + 1e-9) {
        best = v;
        optima.clear();
      }
      if (v > best - 1e-9) optima.push_back(config);
    }
    EXPECT_NEAR(priced.value, best, 1e-9) << "round " << round;
    if (optima.size() == 1) {
      ++unique_optima;
      EXPECT_EQ(priced.config, optima.front()) << "round " << round;
    }
    if (repeat_of < classes) {
      ++duplicated;
      EXPECT_EQ(priced.config.back(), 0)
          << "round " << round << ": the repeat of class " << repeat_of
          << " was chosen over the original";
    }
  }
  // Both branches above actually ran.
  EXPECT_GT(unique_optima, 50u);
  EXPECT_EQ(duplicated, 150u);
}

TEST(Pricing, ClampedCapacityIsFlaggedAndFeasible) {
  const std::vector<Height> heights = {7, 3, 5};
  const std::vector<double> values = {7.5, 3.0, 5.25};
  // capacity / gcd is far above the DP's cell limit.
  const auto capacity = static_cast<Height>(kPricingDpCellLimit) * 4;
  const PricedConfig priced = price_knapsack(heights, values, capacity);
  EXPECT_FALSE(priced.exact);
  const auto [used, value] = config_load(heights, values, priced.config);
  EXPECT_LE(used, capacity);
  EXPECT_GT(used, 0);
  EXPECT_NEAR(value, priced.value, 1e-6 * priced.value);

  // Exactly at the limit after the gcd normalization: not clamped.
  const std::vector<Height> even = {4, 2};
  const std::vector<double> even_values = {4.5, 2.0};
  const PricedConfig at_limit = price_knapsack(
      even, even_values, static_cast<Height>(kPricingDpCellLimit) * 2);
  EXPECT_TRUE(at_limit.exact);
  EXPECT_EQ(at_limit.config,
            (Config{static_cast<int>(kPricingDpCellLimit / 2), 0}));
}

TEST(Solve54Engines, ColumnGenerationProducesFeasiblePackings) {
  Rng rng(505);
  // Narrow items on a wide strip: the regime where the V category (and
  // hence the Lemma-10 LP) is actually populated.
  bool any_lp_used = false;
  for (int round = 0; round < 4; ++round) {
    const Instance inst = gen::random_uniform(50, 240, 4, 24, rng);
    const Approx54Result result = solve54(inst);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    EXPECT_LE(result.peak, result.report.upper_bound);
    if (result.report.lp_used) {
      any_lp_used = true;
      // The CG diagnostics must actually be plumbed through the report.
      EXPECT_GE(result.report.lp_pricing_rounds, 1u);
      EXPECT_GE(result.report.lp_configurations, 1u);
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
    const Approx54Params baseline_params;
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
