#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/packing.hpp"
#include "core/profile.hpp"

namespace dsp::algo {

/// A named DSP algorithm, for the ratio experiments (E12) and for witness
/// generation inside the (5/4+eps) pipeline (DESIGN.md substitution 4).
struct NamedAlgorithm {
  std::string name;
  std::function<Packing(const Instance&)> run;
};

/// All general-purpose baselines (the equal-width folding is excluded: it
/// only accepts uniform widths and is benchmarked separately), running on
/// the dense profile backend.
[[nodiscard]] const std::vector<NamedAlgorithm>& baseline_portfolio();

/// The same portfolio with the profile-driven members bound to the given
/// backend (nfdh/ffdh/sleator keep their shelf bookkeeping; greedy,
/// first-fit and bottom-left switch their placement profile).
[[nodiscard]] std::vector<NamedAlgorithm> baseline_portfolio(
    ProfileBackendKind backend);

/// Runs the whole portfolio and returns the packing with the lowest peak.
/// If `winner` is non-null it receives the winning algorithm's name.
/// The default kAuto backend resolves per instance, so large-W instances
/// pick the sparse profile without caller opt-in; dense and sparse produce
/// identical packings (the equivalence suite), only the cost differs.
[[nodiscard]] Packing best_of_portfolio(
    const Instance& instance, std::string* winner = nullptr,
    ProfileBackendKind backend = ProfileBackendKind::kAuto);

}  // namespace dsp::algo
