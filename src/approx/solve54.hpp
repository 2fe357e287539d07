#pragma once

#include <string>

#include "approx/classify.hpp"
#include "approx/config_lp.hpp"
#include "core/packing.hpp"
#include "core/profile.hpp"

namespace dsp::runtime {
class AutoTuner;
}

namespace dsp::approx {

/// Parameters of the (5/4+eps) algorithm (Theorem 5).
struct Approx54Params {
  /// The accuracy parameter; budget per guess is (5/4 + eps) * H'.
  Fraction epsilon = Fraction(1, 4);
  /// Lemma-2 ladder length (see classify.hpp).
  int ladder_length = 6;
  /// Engine behind the Lemma-10 configuration LP.  Column generation is
  /// exact (no enumeration cliff) and is the default; dense enumeration is
  /// the reference oracle.
  ConfigLpEngine lp_engine = ConfigLpEngine::kColumnGeneration;
  /// Dense: enumeration cap.  Column generation: master-column safety valve
  /// (hitting it sets the `lp_capped` diagnostic instead of silently
  /// dropping configurations).
  std::size_t max_configs = 4096;
  /// Column generation: safety valve on generate -> re-solve rounds (the
  /// paired valve to max_configs; also sets `lp_capped` when hit).
  std::size_t max_pricing_rounds = 64;
  /// Cap on the number of gap boxes handed to the LP (rows stay small).
  std::size_t max_gap_boxes = 48;
  /// Demand-profile implementation every placement step (and the witness
  /// portfolio) runs on; kAuto picks sparse on wide, lightly covered strips.
  ProfileBackendKind backend = ProfileBackendKind::kAuto;
  /// Ignored.  solve54 runs on the calling thread, spawns no pool and
  /// tunes nothing; these two fields stay only because the serving
  /// benchmark (perfbench/) still sets them, and go with the next change
  /// to that benchmark.
  bool stealing = true;
  runtime::AutoTuner* tuner = nullptr;
};

/// Diagnostics of one run — the quantities experiments E7/E9/E11 report.
struct Approx54Report {
  Height lower_bound = 0;       ///< combined lower bound (binary-search floor)
  Height upper_bound = 0;       ///< witness peak (binary-search ceiling)
  Height best_guess = 0;        ///< smallest H' whose attempt succeeded
  Height pipeline_peak = 0;     ///< best peak achieved by the pipeline itself
  Height final_peak = 0;        ///< returned packing's peak (incl. witness)
  Fraction delta;               ///< Lemma-2 choice at the best guess
  Fraction mu;
  std::size_t count_per_category[7] = {0, 0, 0, 0, 0, 0, 0};
  std::int64_t medium_area = 0;  ///< area of M u Mv at the best guess
  bool lp_used = false;          ///< Lemma-10 LP solved at the best guess
  /// Engine the Lemma-10 stage ran with (echoes Approx54Params::lp_engine).
  ConfigLpEngine lp_engine = ConfigLpEngine::kColumnGeneration;
  std::size_t lp_configurations = 0;  ///< columns generated at the best guess
  std::size_t lp_pricing_rounds = 0;  ///< CG re-solve rounds (0 for dense)
  bool lp_capped = false;        ///< enumeration cap / safety valve was hit
  std::size_t lp_overflow = 0;   ///< items through the extra-box path
  std::size_t attempts = 0;      ///< binary-search probes (all rounds)
  std::size_t rounds = 0;        ///< binary-search rounds (== attempts)
  /// Phase-level latency breakdown (obs/trace.hpp scoped spans), summed
  /// over every attempt of the bisection: total attempt wall nanos, the
  /// slice spent in CG pricing rounds, and the slice inside LP (re)solves.
  /// Observed, never branched on; all zero when the obs metrics switch is
  /// off.
  std::uint64_t attempt_nanos = 0;
  std::uint64_t pricing_nanos = 0;
  std::uint64_t lp_resolve_nanos = 0;
};

struct Approx54Result {
  Packing packing;
  Height peak = 0;
  Approx54Report report;
};

/// The (5/4+eps)-approximation for DSP (Theorem 5), in the constructive
/// realization documented in DESIGN.md (substitution 4):
///
///   step 1  lower/upper bounds (combined LB; baseline-portfolio witness)
///   step 2  binary search over the height guess H', one guess per round,
///           starting with the optimistic floor H' = lower bound
///   step 3  Lemma-2 parameter selection + Fig.-5 classification +
///           Lemma-3 height rounding
///   step 4  skeleton: large and tall items, tallest first, first-fit under
///           the budget (5/4+eps) H'
///   step 5  vertical items through the Lemma-10 configuration LP over the
///           gap boxes of the skeleton profile; horizontal items by
///           decreasing width first-fit (Lemma-11's rounding order); small
///           items first-fit into the remaining gaps (Lemma 13)
///   step 6  discarded medium items on top (Lemma 14, NFDH order)
///   step 7  the best packing over all guesses (never worse than the
///           witness) is returned
///
/// Every step runs in order on the calling thread.  The returned packing is
/// always feasible; peak quality is certified per run against the lower
/// bound (experiment E7 measures the ratio).
[[nodiscard]] Approx54Result solve54(const Instance& instance,
                                     const Approx54Params& params = {});

}  // namespace dsp::approx
