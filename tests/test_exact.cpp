#include <gtest/gtest.h>

#include "algo/portfolio.hpp"
#include "core/bounds.hpp"
#include "exact/dsp_exact.hpp"
#include "exact/pts_exact.hpp"
#include "exact/sp_exact.hpp"
#include "exact/three_partition.hpp"
#include "gen/families.hpp"
#include "gen/gap.hpp"
#include "gen/hardness.hpp"
#include "transform/transform.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

using exact::SearchStatus;

TEST(DecidePeak, TrivialCases) {
  const Instance inst(4, {{2, 2}, {2, 2}});
  EXPECT_EQ(exact::decide_peak(inst, 2).status, SearchStatus::kProvedFeasible);
  EXPECT_EQ(exact::decide_peak(inst, 1).status, SearchStatus::kProvedInfeasible);
}

TEST(DecidePeak, WitnessIsFeasibleAndWithinBudget) {
  const Instance inst(6, {{3, 2}, {2, 3}, {4, 1}, {1, 4}});
  const auto result = exact::decide_peak(inst, 4);
  ASSERT_EQ(result.status, SearchStatus::kProvedFeasible);
  ASSERT_TRUE(result.packing.has_value());
  EXPECT_LE(peak_height(inst, *result.packing), 4);
}

TEST(MinPeak, MatchesHandComputedOptimum) {
  // Three 2x2 blocks on W=4: two side by side + one on top -> peak 4.
  const Instance inst(4, {{2, 2}, {2, 2}, {2, 2}});
  const auto result = exact::min_peak(inst);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.peak, 4);
  EXPECT_LE(peak_height(inst, result.packing), 4);
}

TEST(MinPeak, TightOnPerfectPackingFamily) {
  Rng rng(3);
  for (int round = 0; round < 5; ++round) {
    const Instance inst = gen::perfect_packing(6, 8, 6, rng);
    const auto result = exact::min_peak(inst);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_EQ(result.peak, 6) << inst.summary();
  }
}

// Property: exact optimum lies between the combined lower bound and every
// baseline's peak.
class ExactSandwich : public ::testing::TestWithParam<int> {};

TEST_P(ExactSandwich, LowerBoundLeOptLeHeuristics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const Length w = rng.uniform(4, 9);
  const Instance inst = gen::random_uniform(
      static_cast<std::size_t>(rng.uniform(2, 6)), w, std::min<Length>(6, w),
      5, rng);
  const auto result = exact::min_peak(inst);
  ASSERT_TRUE(result.proven_optimal) << inst.summary();
  EXPECT_GE(result.peak, combined_lower_bound(inst));
  EXPECT_LE(result.peak,
            peak_height(inst, algo::best_of_portfolio(inst)));
  EXPECT_EQ(peak_height(inst, result.packing), result.peak);
}

INSTANTIATE_TEST_SUITE_P(RandomSmall, ExactSandwich, ::testing::Range(0, 25));

TEST(SpExact, SimpleDecisions) {
  const Instance inst(4, {{2, 2}, {2, 2}, {2, 2}});
  EXPECT_EQ(exact::sp_decide_height(inst, 4).status,
            SearchStatus::kProvedFeasible);
  EXPECT_EQ(exact::sp_decide_height(inst, 3).status,
            SearchStatus::kProvedInfeasible);
}

TEST(SpExact, MinHeightProducesValidWitness) {
  const Instance inst(5, {{3, 2}, {2, 3}, {4, 1}, {1, 2}});
  const auto result = exact::sp_min_height(inst);
  ASSERT_TRUE(result.proven_optimal);
  EXPECT_EQ(sp::validate(inst, result.packing), std::nullopt);
  EXPECT_EQ(sp::packing_height(inst, result.packing), result.height);
}

// SP optimum is always >= DSP optimum (slicing only helps), and at most a
// constant multiple (Steinberg's bound gives 2; we check the raw order).
class SpVsDsp : public ::testing::TestWithParam<int> {};

TEST_P(SpVsDsp, SlicingNeverHurts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 5);
  const Length w = rng.uniform(3, 7);
  const Instance inst = gen::random_uniform(
      static_cast<std::size_t>(rng.uniform(2, 5)), w, std::min<Length>(5, w),
      4, rng);
  const auto dsp_opt = exact::min_peak(inst);
  const auto sp_opt = exact::sp_min_height(inst);
  ASSERT_TRUE(dsp_opt.proven_optimal && sp_opt.proven_optimal)
      << inst.summary();
  EXPECT_LE(dsp_opt.peak, sp_opt.height) << inst.summary();
  EXPECT_LE(sp_opt.height, 2 * dsp_opt.peak + inst.max_height())
      << inst.summary();
}

INSTANTIATE_TEST_SUITE_P(RandomSmall, SpVsDsp, ::testing::Range(0, 20));

TEST(PtsExact, MakespanViaDuality) {
  // Two 2-machine jobs of length 3 and two 1-machine jobs of length 2 on
  // m=3: optimum is 6 work/3 = ... check exact value by enumeration: work =
  // 2*3*2 + 1*2*2 = 16 -> lb ceil(16/3) = 6; a makespan-6 schedule exists.
  const pts::PtsInstance inst(3, {{3, 2}, {3, 2}, {2, 1}, {2, 1}});
  const auto result = exact::pts_min_makespan(inst);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.makespan, 6);
  EXPECT_EQ(pts::validate(inst, result.schedule), std::nullopt);
  EXPECT_LE(pts::makespan(inst, result.schedule), 6);
}

TEST(PtsExact, SingleMachineSumsTimes) {
  const pts::PtsInstance inst(1, {{2, 1}, {3, 1}, {1, 1}});
  const auto result = exact::pts_min_makespan(inst);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.makespan, 6);
}

TEST(ThreePartition, AcceptsPlantedInstance) {
  const std::vector<std::int64_t> values{7, 7, 6, 9, 6, 5, 8, 5, 7};
  // groups: 7+7+6, 9+6+5, 8+5+7 -> target 20.
  const auto assignment = exact::three_partition(values, 20);
  ASSERT_TRUE(assignment.has_value());
  std::vector<std::int64_t> sums(3, 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_GE((*assignment)[i], 0);
    ASSERT_LT((*assignment)[i], 3);
    sums[static_cast<std::size_t>((*assignment)[i])] += values[i];
  }
  EXPECT_EQ(sums, (std::vector<std::int64_t>{20, 20, 20}));
}

TEST(ThreePartition, RejectsImpossibleInstance) {
  // {6,6,6,6,7,9}: no triple sums to 20.
  EXPECT_FALSE(
      exact::three_partition({6, 6, 6, 6, 7, 9}, 20).has_value());
}

TEST(ThreePartition, Preconditions) {
  EXPECT_TRUE(exact::three_partition_preconditions({6, 7, 7, 6, 7, 7}, 20));
  EXPECT_FALSE(exact::three_partition_preconditions({5, 7, 8, 6, 7, 7}, 20));
  EXPECT_FALSE(exact::three_partition_preconditions({6, 7, 7, 6, 7}, 20));
  EXPECT_FALSE(exact::three_partition_preconditions({6, 7, 8, 6, 7, 7}, 20));
}

TEST(Limits, NodeLimitReportsInconclusive) {
  Rng rng(11);
  const Instance inst = gen::random_uniform(12, 24, 12, 8, rng);
  exact::Limits limits;
  limits.max_nodes = 10;
  const auto result =
      exact::decide_peak(inst, combined_lower_bound(inst), limits);
  // With 10 nodes the search cannot finish a 12-item tree (it may still
  // prove infeasibility through the lower bound, which is also acceptable).
  EXPECT_NE(result.status, SearchStatus::kProvedFeasible);
}

TEST(Limits, NodeBudgetStopsAtExactlyMaxNodesEveryRun) {
  // The budget counts search nodes, never seconds: an inconclusive search
  // stops at exactly max_nodes, and a rerun reproduces it on any host.
  // Contiguous packing of three gap copies at height 4 stays open far
  // beyond this budget.
  const Instance inst = gen::gap_instance_replicated(3);
  exact::Limits limits;
  limits.max_nodes = 100'000;
  const auto first = exact::sp_decide_height(inst, 4, limits);
  EXPECT_EQ(first.status, SearchStatus::kLimitReached);
  EXPECT_EQ(first.nodes, limits.max_nodes);
  const auto again = exact::sp_decide_height(inst, 4, limits);
  EXPECT_EQ(again.status, first.status);
  EXPECT_EQ(again.nodes, first.nodes);
}

TEST(Limits, DspNodeBudgetStopsAtExactlyMaxNodesEveryRun) {
  // The peak search obeys the same node-only budget as the SP search.
  // Twelve 7s, a 9 and an 11 (sum 104) have no half of sum 52, so peak 2
  // is infeasible although the area bound allows it; the search stays open
  // far beyond this budget.
  std::vector<std::int64_t> values(12, 7);
  values.push_back(9);
  values.push_back(11);
  const Instance inst = gen::partition_to_dsp(values, 52);
  ASSERT_EQ(combined_lower_bound(inst), 2);
  exact::Limits limits;
  limits.max_nodes = 20'000;
  const auto first = exact::decide_peak(inst, 2, limits);
  EXPECT_EQ(first.status, SearchStatus::kLimitReached);
  EXPECT_EQ(first.nodes, limits.max_nodes);
  const auto again = exact::decide_peak(inst, 2, limits);
  EXPECT_EQ(again.status, first.status);
  EXPECT_EQ(again.nodes, first.nodes);
}

}  // namespace
}  // namespace dsp
