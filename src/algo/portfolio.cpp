#include "algo/portfolio.hpp"

#include "algo/baselines.hpp"
#include "util/check.hpp"

namespace dsp::algo {

std::vector<NamedAlgorithm> baseline_portfolio(ProfileBackendKind backend) {
  return {
      {"greedy-h",
       [backend](const Instance& in) {
         return greedy_lowest_peak(in, ItemOrder::kDecreasingHeight, backend);
       }},
      {"greedy-area",
       [backend](const Instance& in) {
         return greedy_lowest_peak(in, ItemOrder::kDecreasingArea, backend);
       }},
      {"greedy-w",
       [backend](const Instance& in) {
         return greedy_lowest_peak(in, ItemOrder::kDecreasingWidth, backend);
       }},
      {"first-fit",
       [backend](const Instance& in) { return first_fit_search(in, backend); }},
      {"nfdh", [](const Instance& in) { return nfdh_dsp(in); }},
      {"ffdh", [](const Instance& in) { return ffdh_dsp(in); }},
      {"sleator", [](const Instance& in) { return sleator_dsp(in); }},
      {"bottom-left",
       [backend](const Instance& in) { return bottom_left_dsp(in, backend); }},
  };
}

const std::vector<NamedAlgorithm>& baseline_portfolio() {
  static const std::vector<NamedAlgorithm> portfolio =
      baseline_portfolio(ProfileBackendKind::kDense);
  return portfolio;
}

Packing best_of_portfolio(const Instance& instance, std::string* winner,
                          ProfileBackendKind backend) {
  DSP_REQUIRE(instance.size() > 0, "best_of_portfolio on empty instance");
  Packing best;
  Height best_peak = 0;
  bool first = true;
  for (const NamedAlgorithm& algorithm : baseline_portfolio(backend)) {
    Packing candidate = algorithm.run(instance);
    const Height peak = peak_height(instance, candidate);
    if (first || peak < best_peak) {
      best = std::move(candidate);
      best_peak = peak;
      if (winner) *winner = algorithm.name;
      first = false;
    }
  }
  return best;
}

}  // namespace dsp::algo
