#include "service/cli.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/json_row.hpp"

namespace dsp::service {

std::optional<long long> parse_integer(std::string_view text) {
  if (text.empty()) return std::nullopt;
  long long value = 0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  const std::from_chars_result result = std::from_chars(first, last, value);
  // Full-string or nothing: from_chars stopping early means trailing
  // garbage ("4x"), a lone '-', or an out-of-range magnitude.
  if (result.ec != std::errc() || result.ptr != last) return std::nullopt;
  return value;
}

std::optional<ServeEngine> parse_engine(std::string_view text) {
  for (const ServeEngine engine :
       {ServeEngine::kPortfolio, ServeEngine::kSolve54}) {
    if (text == to_string(engine)) return engine;
  }
  return std::nullopt;
}

std::optional<ProfileBackendKind> parse_backend(std::string_view text) {
  for (const ProfileBackendKind kind :
       {ProfileBackendKind::kAuto, ProfileBackendKind::kDense,
        ProfileBackendKind::kSparse}) {
    if (text == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::vector<std::string> expand_instance_paths(
    const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    DSP_REQUIRE(std::filesystem::exists(path),
                path << ": no such file or directory");
    if (std::filesystem::is_directory(path)) {
      std::vector<std::string> entries;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (!entry.is_regular_file()) continue;
        const std::string extension = entry.path().extension().string();
        if (extension == ".json" || extension == ".dspi") {
          entries.push_back(entry.path().string());
        }
      }
      DSP_REQUIRE(!entries.empty(),
                  path << ": directory contains no *.json / *.dspi instance "
                          "files");
      std::sort(entries.begin(), entries.end());
      files.insert(files.end(), entries.begin(), entries.end());
    } else {
      files.push_back(path);
    }
  }
  return files;
}

void write_observability_file(std::string_view program,
                              const std::string& path, std::string_view what,
                              const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (os) body(os);
  os.flush();
  if (!os) {
    std::cerr << program << ": warning: cannot write " << what << " to "
              << path << "\n";
  }
}

std::string_view outcome_name(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kJoined: return "join";
    case CacheOutcome::kMiss: break;
  }
  return "miss";
}

void print_answer_row(std::ostream& os, const AnswerRow& row) {
  JsonRow()
      .field("file", row.file)
      .field("name", row.name)
      .field("n", row.items)
      .field("W", row.strip_width)
      .field("engine", row.engine)
      .field("lb", row.lower_bound)
      .field("peak", row.peak)
      .field("winner", row.winner)
      .field("cache", std::string(outcome_name(row.outcome)))
      .print(os);
}

void print_summary_row(std::ostream& os, const SummaryRow& row) {
  JsonRow()
      .field("summary", "dsp_solve")
      .field("requests", row.requests)
      .field("files", row.files)
      .field("repeat", row.repeat)
      .field("hits", row.stats.hits)
      .field("misses", row.stats.misses)
      .field("inflight_joins", row.stats.inflight_joins)
      .field("evictions", row.stats.evictions)
      .field("entries", row.stats.entries)
      .field("cache_mb", row.cache_mb)
      .print(os);
}

ServedView read_served_view(std::string_view exposition) {
  const std::map<std::string, std::uint64_t> samples =
      obs::parse_exposition(exposition);
  const auto sample = [&](const std::string& name) {
    const auto it = samples.find("dsp_" + name);
    DSP_REQUIRE(it != samples.end(),
                "daemon metrics exposition has no dsp_" << name << " sample");
    return it->second;
  };
  ServedView view;
  constexpr std::string_view kEnginePrefix = "dsp_serve_engine_";
  for (const auto& [name, value] : samples) {
    if (value == 1 && name.starts_with(kEnginePrefix)) {
      view.engine = name.substr(kEnginePrefix.size());
    }
  }
  DSP_REQUIRE(!view.engine.empty(),
              "daemon metrics exposition names no serving engine");
  view.stats.hits = sample("cache_hits");
  view.stats.misses = sample("cache_misses");
  view.stats.inflight_joins = sample("cache_inflight_joins");
  view.stats.evictions = sample("cache_evictions");
  view.stats.oversized = sample("cache_oversized");
  view.stats.entries = sample("cache_entries");
  view.stats.bytes = sample("cache_bytes");
  view.cache_mb =
      static_cast<std::size_t>(sample("cache_capacity_bytes") >> 20);
  return view;
}

}  // namespace dsp::service
