#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "approx/pricing.hpp"
#include "approx/rounding.hpp"

namespace dsp::approx {

/// A gap box available to vertical items: the free space above the already
/// placed skeleton over the x-range [x, x+width), with `capacity` height
/// available in every column (the B_P boxes of Lemma 10).
struct GapBox {
  Length x = 0;
  Length width = 0;
  Height capacity = 0;
};

/// Engine behind the Lemma-10 configuration LP.
enum class ConfigLpEngine {
  /// Enumerate every configuration up front and hand the dense tableau to
  /// the simplex.  The reference oracle: exact whenever the enumeration cap
  /// is not hit, but silently incomplete (`capped`) beyond it.
  kDenseEnumeration,
  /// Column generation (Gilmore–Gomory): start from the empty
  /// configurations, then iterate re-solve -> price until no improving
  /// column exists.  The pricing problem per box capacity is a bounded
  /// knapsack over the rounded height classes; there is no enumeration
  /// cliff, so the LP optimum is exact whenever the safety valves
  /// (`max_configs` columns / `max_pricing_rounds` rounds) stay untouched.
  kColumnGeneration,
};

/// Reusable buffers of fill_vertical_items: the flat configuration store,
/// its dedup index, the per-capacity pricing scratches and the hoisted
/// per-round vectors.  A solve54 bisection passes one scratch to all its
/// attempts so repeated attempts stop re-allocating; every call fully
/// re-derives the contents, so reuse never changes a result (tested).
struct VerticalFillScratch {
  /// Flat SoA configuration store: one row of `classes` ints per
  /// configuration, all rows in one contiguous buffer.
  std::vector<int> config_storage;
  /// Content hash -> candidate (box, config id) pairs, verified exactly.
  // det-lint: allow(unordered-container): probed by key only (dedup[h] in
  // intern_config); never iterated, so its order cannot reach a result.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::size_t, std::size_t>>>
      dedup;
  std::vector<PricingScratch> pricing;  ///< one per distinct box capacity
  std::vector<double> values;           ///< per-class pricing values
  std::vector<double> entries;          ///< master-column build buffer
};

/// Parameters of fill_vertical_items.
struct VerticalFillParams {
  ConfigLpEngine engine = ConfigLpEngine::kColumnGeneration;
  /// Dense: enumeration cap (shared across boxes; DESIGN.md: the paper's
  /// constant is astronomically large).  Column generation: safety valve on
  /// the number of master columns — hitting it sets `capped` instead of
  /// silently dropping configurations.
  std::size_t max_configs = 4096;
  /// Column generation: safety valve on generate -> re-solve rounds.
  std::size_t max_pricing_rounds = 64;
  /// Optional reusable buffers (see VerticalFillScratch).  nullptr uses a
  /// call-local scratch — same results, more allocator traffic.
  VerticalFillScratch* scratch = nullptr;
};

/// Result of the Lemma-10 configuration-LP placement of vertical items.
struct VerticalFillResult {
  bool lp_solved = false;           ///< the configuration LP had a solution
  ConfigLpEngine engine = ConfigLpEngine::kColumnGeneration;  ///< engine run
  std::size_t configurations = 0;   ///< columns in the final LP
  std::size_t nonzero_configs = 0;  ///< support of the basic solution
  std::size_t pricing_rounds = 0;   ///< CG re-solve rounds (0 for dense)
  std::size_t lp_pivots = 0;        ///< simplex pivots across all (re)solves
  /// Dense: the enumeration cap trimmed the column set (the LP may then be
  /// spuriously infeasible).  Column generation: a safety valve stopped the
  /// loop before convergence, or a pricing knapsack had to be clamped.
  bool capped = false;
  double lp_objective = 0.0;        ///< LP optimum (wasted capacity) if solved
  /// Phase-latency breakdown (obs scoped spans): wall nanos spent in CG
  /// pricing rounds and in LP (re)solves.  Observed, never branched on;
  /// zero when the obs metrics switch is off.
  std::uint64_t pricing_nanos = 0;
  std::uint64_t lp_resolve_nanos = 0;
  /// Start positions for placed items, parallel to the `items` argument
  /// (-1 when the item overflowed its configuration).
  std::vector<Length> start;
  /// Indices (into the `items` argument) of overflow items — the contents of
  /// the lemma's 7(|H_V| + |B_P|) extra boxes; the caller re-places them.
  std::vector<std::size_t> overflow;
};

/// Lemma 10, executable form.  Configurations are multisets of rounded
/// vertical heights stacking within a box's capacity; the LP
///
///    sum_C x_{C,B}           = width(B)        for every box B
///    sum_{C,B} x_{C,B} a_hC  = total width(h)  for every rounded height h
///    x >= 0
///
/// is solved by the selected engine (column generation by default; dense
/// enumeration as the reference oracle) and the basic solution is filled
/// greedily, letting the last item of each configuration lane overflow
/// (those items land in `overflow`, mirroring the lemma's extra boxes).
///
/// `items` lists the vertical item indices of the instance.
[[nodiscard]] VerticalFillResult fill_vertical_items(
    const Instance& instance, const std::vector<std::size_t>& items,
    const RoundedHeights& rounding, const std::vector<GapBox>& boxes,
    const VerticalFillParams& params = {});

}  // namespace dsp::approx
