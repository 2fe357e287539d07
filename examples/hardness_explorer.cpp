// The hardness story of Theorem 1, executable: 3-Partition data embeds into
// DSP instances where the optimum sits at peak 4 and any algorithm with
// ratio below 5/4 would have to recover the hidden partition.
//
// Also demonstrates the documented converse caveat: without the full
// window-pinning gadget of [12], separators may bunch and no-instances still
// pack at peak 4 (see gen/hardness.hpp).

#include <iostream>

#include "algo/portfolio.hpp"
#include "core/bounds.hpp"
#include "exact/dsp_exact.hpp"
#include "exact/three_partition.hpp"
#include "gen/hardness.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

int main() {
  using namespace dsp;
  Rng rng(99);

  std::cout << "3-Partition -> DSP reduction (separators + fillers + value "
               "items, area-tight at peak 4)\n\n";

  Table table({"k", "B", "3-partition", "witness peak", "exact peak",
               "portfolio peak", "paid 5/4 gap"});
  for (int round = 0; round < 4; ++round) {
    const std::size_t k = 2 + static_cast<std::size_t>(round % 2);
    const std::int64_t target = 16 + 4 * round;
    const gen::HardnessInstance h = (round % 2 == 0)
                                        ? gen::planted_yes(k, target, rng)
                                        : gen::sampled_no(k, target, rng);
    Height witness_peak = 0;
    if (h.is_yes) {
      const auto groups = exact::three_partition(h.values, h.target);
      const Packing witness = gen::yes_witness_packing(h, *groups);
      witness_peak = peak_height(h.instance, witness);
    }
    // A node budget, not seconds, so the table does not depend on the host.
    exact::Limits limits;
    limits.max_nodes = 50'000'000;
    const auto opt = exact::min_peak(h.instance, limits);
    const Packing heuristic = algo::best_of_portfolio(h.instance);
    const Height heuristic_peak = peak_height(h.instance, heuristic);
    table.begin_row()
        .cell(k)
        .cell(target)
        .cell(h.is_yes ? "yes" : "no")
        .cell(h.is_yes ? std::to_string(witness_peak) : std::string("-"))
        .cell(opt.proven_optimal ? std::to_string(opt.peak)
                                 : std::string(">=4?"))
        .cell(heuristic_peak)
        .cell(heuristic_peak >= 5 && opt.peak == 4 ? "yes" : "no");
  }
  table.print(std::cout);
  std::cout
      << "\nyes-rows: the planted partition certifies peak 4; heuristics that"
         "\nreport 5 pay exactly the 5/4 factor the paper proves unavoidable"
         "\nfor sub-5/4 approximations (unless P = NP).\n"
         "no-rows: the values admit no 3-partition, yet peak 4 remains"
         "\nachievable through merged windows — the reason [12] needs its"
         "\nwindow-pinning gadget (see DESIGN.md).\n";
  return 0;
}
