// Hot-path kernel trajectory (experiment E15): times the rebuilt dense
// scans — SIMD occupancy kernels, sliding-window maxima, segment-tree
// descent, knapsack-pricing DP — on pinned-seed inputs, once per compiled
// backend (scalar pinned / AVX2 when available), and emits one JSON row per
// (kernel, W, backend) with an iteration-independent checksum of the kernel
// outputs.
//
// The checksum is a pure function of the pinned inputs, so it is identical
// across machines, build types, repeat counts and backends — any scalar/SIMD
// divergence or cross-PR behaviour change shows up as a checksum mismatch,
// which this binary turns into a non-zero exit:
//
//   bench_hot_paths [--smoke] [--out FILE] [--check BENCH_PR6.json]
//
//   --smoke   one timing repeat (CI-friendly); checksums are unaffected,
//             and --check skips the timing comparison (one repeat is too
//             noisy to hold against the recorded 21-repeat medians)
//   --out     also write the rows to FILE (stdout always gets them)
//   --check   compare checksums against a checked-in trajectory; outside
//             --smoke, timing ratios are compared too, but only warn on
//             stderr (machines differ) — checksum differences fail hard
//
// The scalar/SIMD checksum cross-check runs unconditionally; the checked-in
// trajectory lives at BENCH_PR6.json (see DESIGN.md "Hot-path layout and
// SIMD").

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "approx/pricing.hpp"
#include "bench_common.hpp"
#include "core/segment_tree.hpp"
#include "core/simd.hpp"
#include "core/window_maxima.hpp"

namespace dsp::bench {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

struct Row {
  std::string kernel;
  Length w = 0;
  std::size_t n = 0;       ///< operations per repeat (queries, cells, ...)
  std::string simd;        ///< backend the row ran on
  double nanos_per_op = 0.0;
  std::uint64_t checksum = 0;
};

/// Pinned-seed load profile: deterministic, spiky enough that searches do
/// real work (plateaus, one global max, varied run lengths).
std::vector<Height> make_load(Length w, std::uint64_t seed) {
  std::vector<Height> load(static_cast<std::size_t>(w));
  Rng rng(seed);
  Height level = 100;
  for (std::size_t x = 0; x < load.size();) {
    const auto run = static_cast<std::size_t>(rng.uniform(1, 12));
    level = std::max<Height>(0, level + rng.uniform(-40, 40));
    for (std::size_t k = 0; k < run && x < load.size(); ++k, ++x) {
      load[x] = level;
    }
  }
  return load;
}

/// One timed kernel: `op(checksum_accumulator)` runs the workload once and
/// folds its outputs into the checksum.  The checksum is taken from the
/// first repeat only (repeats are identical), so it never depends on the
/// repeat count.
template <typename Op>
Row time_kernel(const std::string& kernel, Length w, std::size_t ops,
                int repeats, Op&& op) {
  Row row;
  row.kernel = kernel;
  row.w = w;
  row.n = ops;
  row.simd = std::string(simd::active_name());
  std::uint64_t checksum = 0;
  Stopwatch timer;
  for (int r = 0; r < repeats; ++r) {
    std::uint64_t fold = 0;
    op(fold);
    if (r == 0) checksum = fold;
  }
  row.nanos_per_op =
      timer.seconds() * 1e9 / (static_cast<double>(repeats) *
                               static_cast<double>(ops == 0 ? 1 : ops));
  row.checksum = checksum;
  return row;
}

/// The suite, run on whichever backend is currently active.
std::vector<Row> run_suite(bool smoke) {
  std::vector<Row> rows;
  const int repeats = smoke ? 1 : 21;
  const std::vector<Length> widths = {1024, 8192, 65536};

  for (const Length w : widths) {
    const std::vector<Height> load =
        make_load(w, 0xD5Aull + static_cast<std::uint64_t>(w));
    const auto n = load.size();

    // Dense occupancy reduction scan: the peak() / window_max() kernel.
    rows.push_back(time_kernel("occupancy_reduce", w, 64, repeats,
                               [&](std::uint64_t& fold) {
      for (std::size_t q = 0; q < 64; ++q) {
        const std::size_t off = (q * 37) % (n / 2);
        const std::size_t len = n - 2 * off;
        fold = mix(fold, static_cast<std::uint64_t>(
                             simd::reduce_max(load.data() + off, len)));
        fold = mix(fold, static_cast<std::uint64_t>(
                             simd::reduce_min(load.data() + off, len)));
      }
    }));

    // Mutating scans: add() and raise_to() over the whole strip.
    rows.push_back(time_kernel("occupancy_raise", w, 64, repeats,
                               [&](std::uint64_t& fold) {
      std::vector<Height> buf = load;
      for (std::size_t q = 0; q < 32; ++q) {
        simd::add_delta(buf.data(), n, static_cast<Height>(q % 5) - 2);
        simd::raise_floor(buf.data(), n, static_cast<Height>(60 + q));
      }
      for (std::size_t x = 0; x < n; x += 97) {
        fold = mix(fold, static_cast<std::uint64_t>(buf[x]));
      }
      fold = mix(fold, static_cast<std::uint64_t>(simd::reduce_max(buf.data(), n)));
    }));

    // Sliding-window maxima + the first-fit threshold search over it.
    rows.push_back(time_kernel("window_maxima_first_fit", w, 16, repeats,
                               [&](std::uint64_t& fold) {
      WindowMaximaScratch scratch;
      for (const Length width : {w / 64, w / 16, w / 4}) {
        const std::span<const Height> maxima =
            sliding_window_maxima(load, std::max<Length>(1, width), scratch);
        fold = mix(fold, static_cast<std::uint64_t>(
                             simd::reduce_min(maxima.data(), maxima.size())));
        for (const Height budget : {90, 110, 130}) {
          fold = mix(fold, simd::first_leq(maxima.data(), maxima.size(),
                                           budget));
        }
      }
    }));

    // Segment-tree placement descent (the sparse backend's hot path).
    rows.push_back(time_kernel("segment_tree_descent", w, 64, repeats,
                               [&](std::uint64_t& fold) {
      SegmentTree tree(w);
      for (std::size_t q = 0; q < 64; ++q) {
        const auto at = static_cast<Length>((q * 131) % (w / 2));
        tree.range_add(at, at + w / 8, static_cast<Height>(1 + q % 7));
        const auto fit = tree.first_fit(w / 16, 5, 200 + static_cast<Height>(q));
        fold = mix(fold, fit ? static_cast<std::uint64_t>(*fit) + 1 : 0);
        const BestPosition best = tree.min_peak_position(w / 16);
        fold = mix(fold, static_cast<std::uint64_t>(best.start));
        fold = mix(fold, static_cast<std::uint64_t>(best.window_max));
      }
    }));
  }

  // Knapsack-pricing DP: contiguous SoA inner loops, capacity-heavy.
  {
    const std::vector<Height> heights = {97, 89, 71, 53, 31, 17, 7, 3};
    std::vector<double> values;
    Rng rng(0xC0FFEE);
    for (std::size_t i = 0; i < heights.size(); ++i) {
      values.push_back(static_cast<double>(rng.uniform(1, 999)) / 10.0);
    }
    rows.push_back(time_kernel("pricing_dp", 0, 32, smoke ? 1 : 21,
                               [&](std::uint64_t& fold) {
      for (std::size_t q = 0; q < 32; ++q) {
        const auto capacity = static_cast<Height>(500 + 250 * q);
        const approx::PricedConfig priced =
            approx::price_knapsack(heights, values, capacity);
        for (const int c : priced.config) {
          fold = mix(fold, static_cast<std::uint64_t>(c));
        }
        fold = mix(fold, static_cast<std::uint64_t>(priced.value * 1000.0));
      }
    }));
  }
  return rows;
}

std::string row_json(const Row& row) {
  std::ostringstream oss;
  machine_fields(JsonRow()
                     .field("bench", "hot_paths")
                     .field("kernel", row.kernel)
                     .field("w", static_cast<std::int64_t>(row.w))
                     .field("n", row.n)
                     .field("simd", row.simd)
                     .field("nanos_per_op", row.nanos_per_op)
                     .field("checksum", row.checksum))
      .print(oss);
  return oss.str();
}

/// Minimal field scraper for our own single-line rows (no JSON dependency;
/// the format is fully under this repo's control).
std::string scrape(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  auto begin = at + needle.size();
  auto end = begin;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  return line.substr(begin, end - begin);
}

struct CheckOutcome {
  int mismatches = 0;
  int compared = 0;
};

/// Compares checksums (hard) and, when `compare_timing`, timing ratios
/// (warn-only) against a checked-in trajectory file.
CheckOutcome check_against(const std::string& path,
                           const std::vector<Row>& rows, bool compare_timing) {
  CheckOutcome outcome;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_hot_paths: cannot open " << path << "\n";
    outcome.mismatches = 1;
    return outcome;
  }
  std::map<std::string, std::pair<std::uint64_t, double>> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"kernel\"") == std::string::npos) continue;
    const std::string key = scrape(line, "kernel") + "/w" + scrape(line, "w") +
                            "/" + scrape(line, "simd");
    expected[key] = {std::stoull(scrape(line, "checksum")),
                     std::stod(scrape(line, "nanos_per_op"))};
  }
  for (const Row& row : rows) {
    const std::string key =
        row.kernel + "/w" + std::to_string(row.w) + "/" + row.simd;
    const auto it = expected.find(key);
    if (it == expected.end()) continue;  // new kernel/backend: not a failure
    ++outcome.compared;
    if (it->second.first != row.checksum) {
      std::cerr << "bench_hot_paths: CHECKSUM MISMATCH " << key << ": expected "
                << it->second.first << ", got " << row.checksum << "\n";
      ++outcome.mismatches;
    }
    // Timing drift: warn when this run is notably slower than the recorded
    // trajectory.  Machines differ, so this never fails the run.
    if (compare_timing && it->second.second > 0 &&
        row.nanos_per_op > 3.0 * it->second.second) {
      std::cerr << "bench_hot_paths: warning: " << key << " at "
                << row.nanos_per_op << " ns/op vs recorded "
                << it->second.second << " (3x regression threshold)\n";
    }
  }
  return outcome;
}

int main_impl(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::cerr << "usage: bench_hot_paths [--smoke] [--out FILE] "
                   "[--check FILE]\n";
      return 2;
    }
  }

  // Scalar backend always runs; the AVX2 backend runs when compiled in and
  // supported by this CPU.  Scalar first, so the cross-check below reads
  // naturally in the emitted order.
  std::vector<Row> rows;
  simd::force_scalar(true);
  const std::vector<Row> scalar_rows = run_suite(smoke);
  simd::force_scalar(false);
  rows.insert(rows.end(), scalar_rows.begin(), scalar_rows.end());
  const bool dual = simd::avx2_active();
  if (dual) {
    const std::vector<Row> avx2_rows = run_suite(smoke);
    rows.insert(rows.end(), avx2_rows.begin(), avx2_rows.end());
  }

  std::ostringstream body;
  for (const Row& row : rows) body << row_json(row);
  std::cout << body.str();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << body.str();
  }

  int failures = 0;
  // Hard gate 1: the scalar and AVX2 backends must be bit-identical.
  if (dual) {
    for (std::size_t i = 0; i < scalar_rows.size(); ++i) {
      const Row& s = scalar_rows[i];
      const Row& v = rows[scalar_rows.size() + i];
      if (s.checksum != v.checksum) {
        std::cerr << "bench_hot_paths: scalar/avx2 DIVERGENCE on " << s.kernel
                  << " w=" << s.w << ": " << s.checksum << " vs " << v.checksum
                  << "\n";
        ++failures;
      } else if (!smoke && v.nanos_per_op > 0) {
        std::cerr << "bench_hot_paths: " << s.kernel << " w=" << s.w
                  << " speedup " << s.nanos_per_op / v.nanos_per_op << "x\n";
      }
    }
  } else {
    std::cerr << "bench_hot_paths: AVX2 backend inactive ("
              << (simd::avx2_compiled() ? "CPU unsupported" : "not compiled")
              << "); scalar-only run\n";
  }
  // Hard gate 2: checksums must match the checked-in trajectory.
  if (!check_path.empty()) {
    const CheckOutcome outcome = check_against(check_path, rows, !smoke);
    if (smoke) {
      std::cerr << "bench_hot_paths: --smoke times one repeat; timing was not "
                   "compared against "
                << check_path << "\n";
    }
    std::cerr << "bench_hot_paths: checked " << outcome.compared
              << " rows against " << check_path << ", " << outcome.mismatches
              << " mismatches\n";
    failures += outcome.mismatches;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsp::bench

int main(int argc, char** argv) { return dsp::bench::main_impl(argc, argv); }
