#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "approx/config_lp.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "exact/dsp_exact.hpp"
#include "gen/families.hpp"
#include "gen/gap.hpp"
#include "gen/smart_grid.hpp"
#include "runtime/autotune.hpp"
#include "util/prng.hpp"

namespace dsp::approx {
namespace {

TEST(ConfigLp, PlacesUniformVerticalsExactly) {
  // Ten 1x4 items into one gap box of capacity 8 and width 5: two lanes of
  // five items each — no overflow.
  std::vector<Item> items(10, Item{1, 4});
  const Instance inst(5, items);
  std::vector<std::size_t> indices(10);
  for (std::size_t i = 0; i < 10; ++i) indices[i] = i;
  Classification cls =
      classify(inst, 8, Fraction(1, 4), Fraction(1, 8), Fraction(1, 32));
  RoundedHeights rounding;
  rounding.rounded.assign(10, 4);
  rounding.grid.assign(10, 1);
  const std::vector<GapBox> boxes = {{0, 5, 8}};
  const VerticalFillResult fill =
      fill_vertical_items(inst, indices, rounding, boxes);
  EXPECT_TRUE(fill.lp_solved);
  EXPECT_TRUE(fill.overflow.empty());
  // All placed within [0, 5).
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_GE(fill.start[k], 0);
    EXPECT_LE(fill.start[k], 4);
  }
}

TEST(ConfigLp, OverflowsWhenBoxesTooSmall) {
  std::vector<Item> items(4, Item{3, 4});
  const Instance inst(6, items);
  std::vector<std::size_t> indices = {0, 1, 2, 3};
  RoundedHeights rounding;
  rounding.rounded.assign(4, 4);
  rounding.grid.assign(4, 1);
  // One box of width 3, capacity 4: one item fits, three overflow (the LP
  // itself is infeasible — total width 12 != 3).
  const std::vector<GapBox> boxes = {{0, 3, 4}};
  const VerticalFillResult fill =
      fill_vertical_items(inst, indices, rounding, boxes);
  EXPECT_FALSE(fill.overflow.empty());
}

TEST(ConfigLp, MixedHeightsShareABox) {
  // Heights 3 and 2 with capacity 5: config {1x3 + 1x2} is the tight one.
  std::vector<Item> items = {{2, 3}, {2, 3}, {2, 2}, {2, 2}};
  const Instance inst(4, items);
  std::vector<std::size_t> indices = {0, 1, 2, 3};
  RoundedHeights rounding;
  rounding.rounded = {3, 3, 2, 2};
  rounding.grid.assign(4, 1);
  const std::vector<GapBox> boxes = {{0, 4, 5}};
  const VerticalFillResult fill =
      fill_vertical_items(inst, indices, rounding, boxes);
  EXPECT_TRUE(fill.lp_solved);
  EXPECT_TRUE(fill.overflow.empty());
}

TEST(Solve54, FeasibleOnGapInstanceAtOptimal) {
  const Instance inst = gen::gap_instance();
  const Approx54Result result = solve54(inst);
  ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
  EXPECT_EQ(peak_height(inst, result.packing), result.peak);
  // 5/4-regime: OPT = 4 here, so the result must be at most 5.
  EXPECT_LE(result.peak, 5);
}

TEST(Solve54, WithinBoundOnSmallExactInstances) {
  Rng rng(21);
  for (int round = 0; round < 12; ++round) {
    const Length w = rng.uniform(4, 9);
    const Instance inst = gen::random_uniform(
        static_cast<std::size_t>(rng.uniform(3, 6)), w, std::min<Length>(6, w),
        5, rng);
    const auto opt = exact::min_peak(inst);
    ASSERT_TRUE(opt.proven_optimal);
    const Approx54Result result = solve54(inst);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    // (5/4 + eps) * OPT with eps = 1/4, plus integer rounding slack.
    const Height bound = ceil_mul(opt.peak, Fraction(3, 2)) + 1;
    EXPECT_LE(result.peak, bound) << inst.summary();
    EXPECT_GE(result.peak, opt.peak);
  }
}

TEST(Solve54, NearOptimalOnPerfectPackingFamily) {
  Rng rng(22);
  for (int round = 0; round < 5; ++round) {
    const Instance inst = gen::perfect_packing(40, 64, 32, rng);
    const Approx54Result result = solve54(inst);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    // OPT = 32 exactly (tiling); (5/4+eps) regime check.
    EXPECT_LE(result.peak, ceil_mul(32, Fraction(3, 2))) << inst.summary();
  }
}

TEST(Solve54, ReportIsConsistent) {
  Rng rng(23);
  const Instance inst = gen::random_uniform(60, 128, 64, 24, rng);
  const Approx54Result result = solve54(inst);
  const Approx54Report& report = result.report;
  EXPECT_GE(report.final_peak, report.lower_bound);
  EXPECT_LE(report.final_peak, report.upper_bound);
  EXPECT_EQ(report.final_peak, result.peak);
  EXPECT_GE(report.pipeline_peak, report.lower_bound);
  EXPECT_GE(report.attempts, 1u);
  if (report.best_guess > 0) {
    std::size_t total = 0;
    for (const std::size_t c : report.count_per_category) total += c;
    EXPECT_EQ(total, inst.size());
  }
}

TEST(Solve54, NeverWorseThanWitness) {
  Rng rng(24);
  for (int round = 0; round < 8; ++round) {
    const Instance inst = gen::smart_grid(40, 96, rng);
    const Approx54Result result = solve54(inst);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    EXPECT_LE(result.peak, result.report.upper_bound);
  }
}

class Solve54Families : public ::testing::TestWithParam<int> {};

TEST_P(Solve54Families, FeasibleAndWithinRatioOfLowerBound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  Instance inst = [&] {
    switch (GetParam() % 4) {
      case 0:
        return gen::random_uniform(50, 100, 50, 20, rng);
      case 1:
        return gen::tall_items(40, 100, 40, rng);
      case 2:
        return gen::wide_items(30, 100, 10, rng);
      default:
        return gen::perfect_packing(50, 100, 30, rng);
    }
  }();
  const Approx54Result result = solve54(inst);
  ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
  // Empirical guarantee vs the lower bound: 5/4 + eps + rounding slack.
  // (The witness portfolio alone already guarantees a small constant; the
  // pipeline must not regress beyond the documented bound.)
  const Height lb = combined_lower_bound(inst);
  EXPECT_LE(result.peak, 2 * lb + inst.max_height()) << inst.summary();
}

INSTANTIATE_TEST_SUITE_P(Families, Solve54Families, ::testing::Range(0, 16));

TEST(Solve54, EpsilonSweepIsMonotoneInBudgetNotWorseThanWitness) {
  Rng rng(25);
  const Instance inst = gen::random_uniform(60, 120, 60, 30, rng);
  for (const Fraction eps : {Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)}) {
    Approx54Params params;
    params.epsilon = eps;
    const Approx54Result result = solve54(inst, params);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    EXPECT_LE(result.peak, result.report.upper_bound);
  }
}

// Pins solve54's answers on a seeded set shaped like the serving
// benchmark's cold-solve54 workload: the three families it draws from
// (sparse narrow items, uniform, tall), n 24-100 and W 256/1024, once at the
// default epsilon and once at epsilon = 1/64 (which makes the bisection
// take several rounds).  Every packing, peak, best guess and attempt count
// is folded into one FNV-1a hash and compared with a recorded constant; any
// change to the probe grid, the attempt pipeline or the returned packing
// moves it.
TEST(Solve54, PinnedAnswersOnServingFamilies) {
  const char* const families[] = {"sparse", "sparse", "sparse", "uniform",
                                  "tall"};
  const std::size_t sizes[] = {24, 32, 40, 48, 64, 80, 100};
  const Length widths[] = {256, 1024};
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto absorb = [&hash](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  std::size_t lp_used = 0;
  std::size_t multi_attempt = 0;
  for (const Fraction eps : {Approx54Params{}.epsilon, Fraction(1, 64)}) {
    for (std::size_t i = 0; i < 70; ++i) {
      Rng rng(1000 + i);
      const std::string family = families[i % 5];
      const std::size_t n = sizes[i % 7];
      const Length w = widths[i % 2];
      const Instance inst =
          family == "uniform" ? gen::random_uniform(n, w, w / 2, 100, rng)
          : family == "tall"  ? gen::tall_items(n, w, 64, rng)
                              : gen::random_uniform(n, w, 4, 24, rng);
      Approx54Params params;
      params.epsilon = eps;
      const Approx54Result result = solve54(inst, params);
      ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
      for (const Length x : result.packing.start) absorb(x);
      absorb(result.peak);
      absorb(result.report.best_guess);
      absorb(static_cast<std::int64_t>(result.report.attempts));
      if (result.report.lp_used) ++lp_used;
      if (result.report.attempts > 1) ++multi_attempt;
    }
  }
  EXPECT_GE(lp_used, 1u);
  EXPECT_GE(multi_attempt, 1u);
  EXPECT_EQ(hash, 0x398eceec44dd8afaull) << std::hex << hash;
}

// ---------------------------------------------------------------------------
// The pipeline on its own.  solve54 returns the better of the pipeline and
// the portfolio witness, so the pins above mostly see the witness; these
// pin what the pipeline itself achieved (pipeline_peak and the LP report)
// against a certified optimum.  The counts of runs above (5/4 + eps) * OPT
// are recorded observations of this constructive realization, not the
// theorem's guarantee; any change to the attempt pipeline or to the
// configuration LP moves a hash or a count.
// ---------------------------------------------------------------------------

/// FNV-1a over the pipeline's own diagnostics, plus a count of runs whose
/// pipeline peak exceeds (5/4 + eps) * OPT.
struct PipelinePin {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::size_t above_bound = 0;
  double worst_ratio = 0.0;

  void absorb(std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }

  void record(const Approx54Report& report, Height opt, Fraction eps) {
    EXPECT_GE(report.pipeline_peak, opt);
    absorb(report.pipeline_peak);
    absorb(static_cast<std::int64_t>(report.lp_configurations));
    absorb(static_cast<std::int64_t>(report.lp_pricing_rounds));
    absorb(static_cast<std::int64_t>(report.lp_overflow));
    if (Fraction(report.pipeline_peak) > (Fraction(5, 4) + eps) * opt) {
      ++above_bound;
    }
    worst_ratio = std::max(worst_ratio,
                           static_cast<double>(report.pipeline_peak) /
                               static_cast<double>(opt));
  }
};

TEST(Solve54Pipeline, RatioAgainstExactOptimum) {
  // Small instances of the serving families, each solved exactly once and
  // then by the pipeline at two accuracies.
  const char* const families[] = {"sparse", "uniform", "tall"};
  const Length widths[] = {16, 32};
  const Fraction epsilons[] = {Fraction(1, 4), Fraction(1, 16)};
  PipelinePin pins[2];
  std::size_t unproven = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    Rng rng(2000 + i);
    const std::string family = families[i % 3];
    const std::size_t n = 5 + i % 4;
    const Length w = widths[(i / 3) % 2];
    const Instance inst =
        family == "uniform" ? gen::random_uniform(n, w, w / 2, 100, rng)
        : family == "tall"  ? gen::tall_items(n, w, 64, rng)
                            : gen::random_uniform(n, w, 4, 24, rng);
    exact::Limits limits;
    limits.max_nodes = 200'000;
    const exact::OptResult opt = exact::min_peak(inst, limits);
    if (!opt.proven_optimal) {
      ++unproven;  // the budget ran out: no certified optimum to compare
      continue;
    }
    for (std::size_t e = 0; e < 2; ++e) {
      Approx54Params params;
      params.epsilon = epsilons[e];
      pins[e].record(solve54(inst, params).report, opt.peak, epsilons[e]);
    }
  }
  EXPECT_EQ(unproven, 1u);
  EXPECT_EQ(pins[0].above_bound, 8u) << "worst " << pins[0].worst_ratio;
  EXPECT_EQ(pins[1].above_bound, 17u) << "worst " << pins[1].worst_ratio;
  EXPECT_EQ(pins[0].hash, 0xd35832be73f407e0ull) << std::hex << pins[0].hash;
  EXPECT_EQ(pins[1].hash, 0x420d452602f09799ull) << std::hex << pins[1].hash;
}

TEST(Solve54Pipeline, RatioOnPerfectPackings) {
  // Guillotine tilings of W x H: OPT = H exactly, at sizes no exact search
  // reaches.
  constexpr Height kHeight = 100;
  const std::size_t sizes[] = {50, 100, 150, 200};
  const Length widths[] = {256, 512, 1024};
  PipelinePin pin;
  for (std::size_t i = 0; i < 20; ++i) {
    Rng rng(3000 + i);
    const Instance inst =
        gen::perfect_packing(sizes[i % 4], widths[i % 3], kHeight, rng);
    pin.record(solve54(inst).report, kHeight, Approx54Params{}.epsilon);
  }
  EXPECT_EQ(pin.above_bound, 16u) << "worst " << pin.worst_ratio;
  EXPECT_EQ(pin.hash, 0xe732a3b507763b15ull) << std::hex << pin.hash;
}

// ---------------------------------------------------------------------------
// Bisection shape.
// ---------------------------------------------------------------------------

TEST(Solve54Bisection, RoundOneIsTheFloorProbe) {
  Rng rng(405);
  const Instance instance = gen::random_uniform(30, 48, 20, 10, rng);
  const Approx54Result result = solve54(instance);
  // If the optimistic floor probe succeeds, the search ends in one round
  // with best_guess == lower_bound; otherwise the bisection continues and
  // best_guess (if any) lies strictly above the floor.
  if (result.report.rounds == 1) {
    EXPECT_EQ(result.report.best_guess, result.report.lower_bound);
  } else if (result.report.best_guess > 0) {
    EXPECT_GT(result.report.best_guess, result.report.lower_bound);
  }
  EXPECT_GE(result.report.attempts, 1u);
  // One guess per round.
  EXPECT_EQ(result.report.rounds, result.report.attempts);
}

TEST(Solve54Bisection, AttemptsAreLogarithmicInTheSearchRange) {
  // The floor probe, then a plain bisection over [lower + 1, upper]: an
  // interval of n guesses takes at most bit_width(n) midpoint probes.
  Rng rng(407);
  std::size_t multi_round = 0;
  for (int round = 0; round < 24; ++round) {
    const Instance instance =
        round % 3 == 0   ? gen::random_uniform(40, 256, 4, 24, rng)
        : round % 3 == 1 ? gen::random_uniform(48, 1024, 512, 100, rng)
                         : gen::tall_items(40, 256, 64, rng);
    for (const Fraction eps : {Fraction(1, 4), Fraction(1, 64)}) {
      Approx54Params params;
      params.epsilon = eps;
      const Approx54Report report = solve54(instance, params).report;
      ASSERT_LE(report.lower_bound, report.upper_bound);
      const auto range =
          static_cast<std::uint64_t>(report.upper_bound - report.lower_bound);
      EXPECT_LE(report.attempts, 1u + std::bit_width(range))
          << instance.summary() << " lower " << report.lower_bound
          << " upper " << report.upper_bound;
      EXPECT_EQ(report.rounds, report.attempts);
      if (report.attempts > 1) ++multi_round;
    }
  }
  EXPECT_GE(multi_round, 1u) << "no instance got past the floor probe; the "
                                "bound above is untested";
}

/// Solves `inst` with `base` and with `changed`, and expects the same
/// packing and the same report fields an answer is made of.
void expect_same_answer(const Instance& inst, const Approx54Params& base,
                        const Approx54Params& changed) {
  const Approx54Result a = solve54(inst, base);
  const Approx54Result b = solve54(inst, changed);
  EXPECT_EQ(b.packing.start, a.packing.start) << inst.summary();
  EXPECT_EQ(b.peak, a.peak);
  EXPECT_EQ(b.report.best_guess, a.report.best_guess);
  EXPECT_EQ(b.report.attempts, a.report.attempts);
  EXPECT_EQ(b.report.lp_used, a.report.lp_used);
  EXPECT_EQ(b.report.lp_configurations, a.report.lp_configurations);
}

/// A small set that runs the Lemma-10 LP and, at epsilon 1/64, more than
/// one bisection round.
std::vector<Instance> stub_field_instances() {
  Rng rng(41);
  return {gen::random_uniform(48, 256, 4, 24, rng),
          gen::random_uniform(40, 1024, 512, 100, rng),
          gen::tall_items(32, 256, 64, rng)};
}

TEST(Solve54, StealingFieldIsIgnored) {
  for (const Instance& inst : stub_field_instances()) {
    for (const Fraction eps : {Approx54Params{}.epsilon, Fraction(1, 64)}) {
      Approx54Params on;
      on.epsilon = eps;
      on.stealing = true;
      Approx54Params off = on;
      off.stealing = false;
      expect_same_answer(inst, on, off);
    }
  }
}

TEST(Solve54, TunerFieldIsIgnored) {
  runtime::AutoTuner tuner;
  for (const Instance& inst : stub_field_instances()) {
    for (const Fraction eps : {Approx54Params{}.epsilon, Fraction(1, 64)}) {
      Approx54Params without;
      without.epsilon = eps;
      Approx54Params with = without;
      with.tuner = &tuner;
      expect_same_answer(inst, without, with);
    }
  }
}

}  // namespace
}  // namespace dsp::approx
