// E4 — Theorem 1's hardness story: 3-Partition data embeds into DSP
// instances that are optimal at peak 4; an algorithm with ratio < 5/4 would
// have to find the hidden partition.  Also reports the documented converse
// caveat (merged windows on no-instances; gen/hardness.hpp).

#include "bench_common.hpp"
#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "exact/dsp_exact.hpp"
#include "exact/three_partition.hpp"
#include "gen/hardness.hpp"

int main() {
  using namespace dsp;
  std::cout << "E4: 3-Partition hardness family (Thm. 1 via [12])\n\n";
  Rng rng(4);

  Table table({"kind", "k", "B", "n", "exact peak", "portfolio", "(5/4+eps)",
               "paid >= 5/4"});
  int paid = 0, total = 0;
  for (int round = 0; round < 10; ++round) {
    const bool planted = round % 2 == 0;
    const std::size_t k = 2 + static_cast<std::size_t>(round / 4);
    const std::int64_t target = 16 + 4 * (round % 3);
    const gen::HardnessInstance h = planted ? gen::planted_yes(k, target, rng)
                                            : gen::sampled_no(k, target, rng);
    // A node budget, not seconds, so the table does not depend on the host.
    exact::Limits limits;
    limits.max_nodes = 50'000'000;
    const auto opt = exact::min_peak(h.instance, limits);
    const Height portfolio_peak =
        peak_height(h.instance, algo::best_of_portfolio(h.instance));
    const approx::Approx54Result tuned = approx::solve54(h.instance);
    const bool pays = opt.peak == 4 && tuned.peak >= 5;
    ++total;
    if (pays) ++paid;
    table.begin_row()
        .cell(planted ? "yes (planted)" : "no (sampled)")
        .cell(k)
        .cell(target)
        .cell(h.instance.size())
        .cell(opt.proven_optimal ? std::to_string(opt.peak) : ">=4")
        .cell(portfolio_peak)
        .cell(tuned.peak)
        .cell(pays ? "yes" : "no");
  }
  table.print(std::cout);
  std::cout << "\npaper: approximating below 5/4 decides 3-Partition "
               "(strongly NP-hard); measured: " << paid << "/" << total
            << " runs pay the factor (peak 5 vs optimal 4).\n"
            << "no-instances still pack at 4 via merged windows — the "
               "pinning gadget of [12] is cited, not constructed, by the "
               "paper (DESIGN.md).\n";
  return 0;
}
