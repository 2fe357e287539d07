#pragma once

// Helpers shared by the serving executables (dsp_solve, dsp_served): strict
// flag-value parsing, instance-path expansion with load-time diagnostics,
// the --metrics-out / --trace-out file writer, and the JSON-lines row
// format both front doors print — dsp_served's client mode must stay
// byte-identical to dsp_solve so the golden corpus
// (examples/dsp_solve_expected.jsonl) guards both.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "service/cache.hpp"

namespace dsp::service {

/// Strict full-string signed-integer parse: the entire text must be one
/// base-10 integer (optional leading '-'), or nullopt.  Unlike std::stoll,
/// trailing garbage is a parse failure — "--threads 4x" must be rejected,
/// not silently served as 4.
[[nodiscard]] std::optional<long long> parse_integer(std::string_view text);

/// The --engine value ("portfolio" / "solve54"), or nullopt when the text
/// names no engine.
[[nodiscard]] std::optional<ServeEngine> parse_engine(std::string_view text);

/// The --backend value ("auto" / "dense" / "sparse"), or nullopt when the
/// text names no backend.
[[nodiscard]] std::optional<ProfileBackendKind> parse_backend(
    std::string_view text);

/// Expands files and directories into the served file list.  Directories
/// contribute their *.json / *.dspi entries in sorted order, so runs are
/// reproducible regardless of readdir order.  Throws InvalidInput naming
/// the offending path when a path does not exist or a directory
/// contributes no matching files — a mistyped path is a usage error at
/// expansion time, not a load failure halfway through serving.
[[nodiscard]] std::vector<std::string> expand_instance_paths(
    const std::vector<std::string>& paths);

/// Writes `body(os)` to `path` (truncating), and on an I/O error prints
/// "<program>: warning: cannot write <what> to <path>" to stderr instead of
/// failing: a full disk must not turn a clean run into a nonzero exit.
void write_observability_file(std::string_view program,
                              const std::string& path, std::string_view what,
                              const std::function<void(std::ostream&)>& body);

/// The flag-value spelling of a cache outcome ("miss" / "hit" / "join").
[[nodiscard]] std::string_view outcome_name(CacheOutcome outcome);

/// One served answer as a JSON-lines row.  Field order is fixed; both
/// front doors print through this so their outputs diff clean.
struct AnswerRow {
  std::string file;
  std::string name;
  std::size_t items = 0;
  Length strip_width = 0;
  std::string engine;
  Height lower_bound = 0;
  Height peak = 0;
  std::string winner;
  CacheOutcome outcome = CacheOutcome::kMiss;
};

void print_answer_row(std::ostream& os, const AnswerRow& row);

/// The trailing counters summary.  The label stays "dsp_solve" for every
/// front door: it names the row format, and the golden diff depends on it.
struct SummaryRow {
  std::size_t requests = 0;
  std::size_t files = 0;
  std::size_t repeat = 1;
  CacheStats stats;
  std::size_t cache_mb = 0;
};

void print_summary_row(std::ostream& os, const SummaryRow& row);

/// What dsp_served's client mode reports on the daemon's behalf, read from
/// the daemon's metrics exposition (the one stats surface): the engine its
/// answer rows name and its summary row's cache counters and budget.
struct ServedView {
  std::string engine;  ///< the `serve_engine_*` gauge that reads 1
  CacheStats stats;
  std::size_t cache_mb = 0;
};

/// Parses a metrics_ok exposition (obs::parse_exposition) into a
/// ServedView.  Throws InvalidInput when a sample it needs is missing.
[[nodiscard]] ServedView read_served_view(std::string_view exposition);

}  // namespace dsp::service
