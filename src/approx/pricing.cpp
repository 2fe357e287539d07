#include "approx/pricing.hpp"

#include <numeric>
#include <vector>

namespace dsp::approx {

PricedConfig price_knapsack(std::span<const Height> heights,
                            std::span<const double> values, Height capacity) {
  PricedConfig best;
  best.config.assign(heights.size(), 0);

  // Batch the contributing classes into flat SoA arrays: weight (height /
  // gcd), value and class index, in ascending class order (the
  // determinism-bearing scan order of the DP below).
  const std::size_t nh = heights.size();
  std::vector<std::size_t> entry_class(nh);
  std::vector<std::size_t> entry_weight(nh);
  std::vector<double> entry_value(nh);
  std::size_t entries = 0;
  Height g = 0;
  for (std::size_t c = 0; c < nh; ++c) {
    if (values[c] > 1e-9 && heights[c] > 0 && heights[c] <= capacity) {
      g = std::gcd(g, heights[c]);
      entry_class[entries] = c;
      entry_value[entries] = values[c];
      ++entries;
    }
  }
  if (entries == 0) return best;  // only the empty configuration
  for (std::size_t e = 0; e < entries; ++e) {
    entry_weight[e] = static_cast<std::size_t>(heights[entry_class[e]] / g);
  }
  auto cells = static_cast<std::size_t>(capacity / g);
  if (cells > kPricingDpCellLimit) {
    cells = kPricingDpCellLimit;
    best.exact = false;
  }

  // dp[0] = 0 is read as the empty configuration's value; choice -1 means
  // "inherit w - 1".
  std::vector<double> dp(cells + 1, 0.0);
  std::vector<int> choice(cells + 1, -1);
  for (std::size_t w = 1; w <= cells; ++w) {
    double best_w = dp[w - 1];
    int best_choice = -1;
    for (std::size_t e = 0; e < entries; ++e) {
      const std::size_t weight = entry_weight[e];
      if (weight > w) continue;
      const double candidate = dp[w - weight] + entry_value[e];
      if (candidate > best_w + 1e-12) {
        best_w = candidate;
        best_choice = static_cast<int>(e);
      }
    }
    dp[w] = best_w;
    choice[w] = best_choice;
  }
  best.value = dp[cells];
  for (std::size_t w = cells; w > 0;) {
    if (choice[w] < 0) {
      --w;
      continue;
    }
    const auto e = static_cast<std::size_t>(choice[w]);
    ++best.config[entry_class[e]];
    w -= entry_weight[e];
  }
  return best;
}

}  // namespace dsp::approx
