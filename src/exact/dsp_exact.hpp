#pragma once

#include <cstdint>
#include <optional>

#include "core/packing.hpp"

namespace dsp::exact {

/// Search limits shared by the exact solvers.  Exact DSP/SP are strongly
/// NP-hard (the very subject of the paper), so every solver reports whether
/// it finished or hit a limit.  The budget counts search nodes, never
/// seconds, so an inconclusive answer is a function of the input alone.
struct Limits {
  std::uint64_t max_nodes = 50'000'000;
};

enum class SearchStatus {
  kProvedFeasible,    ///< a packing within the budget was found
  kProvedInfeasible,  ///< the whole tree was exhausted
  kLimitReached,      ///< inconclusive: node limit hit
};

struct DecisionResult {
  SearchStatus status = SearchStatus::kLimitReached;
  std::optional<Packing> packing;  ///< witness when kProvedFeasible
  std::uint64_t nodes = 0;
};

struct OptResult {
  Height peak = 0;             ///< best peak found
  bool proven_optimal = false; ///< true if the value below peak was refuted
  Packing packing;
  std::uint64_t nodes = 0;
};

/// Exact decision: is there a packing with peak <= budget?  Branch-and-bound
/// over start positions (items by decreasing height/area; mirror-symmetry
/// break on the first item; monotone starts among identical items).
[[nodiscard]] DecisionResult decide_peak(const Instance& instance, Height budget,
                                         const Limits& limits = {});

/// Exact optimum by binary search on decide_peak between the combined lower
/// bound and a greedy upper bound.  `proven_optimal` is false if any decision
/// call was inconclusive.
[[nodiscard]] OptResult min_peak(const Instance& instance, const Limits& limits = {});

}  // namespace dsp::exact
