#pragma once

// Shared helpers of the serving benchmark: flag parsing, the monotonic
// clock, exact order statistics over raw samples, and the one row schema
// every measurement is printed in:
//
//   {"bench", "workload", "layer", "metric", "value", "unit", "spread",
//    "checksum", "machine"}
//
// `spread` is the within-run relative interquartile range of the samples a
// value was taken from (0 for counts); `checksum` fingerprints every answer
// the run served, so two rows with the same checksum measured the same work.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `--key value` pairs; every flag takes exactly one value.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --flag value, got " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key) const {
    return std::stod(str(key));
  }
  [[nodiscard]] std::vector<double> nums(const std::string& key) const {
    std::vector<double> out;
    std::stringstream ss(str(key));
    for (std::string part; std::getline(ss, part, ',');) {
      out.push_back(std::stod(part));
    }
    return out;
  }
  [[nodiscard]] std::vector<std::string> words(const std::string& key,
                                               char sep = ',') const {
    std::vector<std::string> out;
    std::stringstream ss(str(key, ""));
    for (std::string part; std::getline(ss, part, sep);) {
      if (!part.empty()) out.push_back(part);
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Exact order statistic: the smallest sample with at least p of the
/// samples at or below it (nearest rank).  0 on an empty sample set.
[[nodiscard]] inline double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// (p75 - p25) / p50 of the samples; 0 when the median is 0.
[[nodiscard]] inline double relative_iqr(const std::vector<double>& values) {
  const double mid = median(values);
  if (mid == 0.0) return 0.0;
  return (quantile(values, 0.75) - quantile(values, 0.25)) / mid;
}

/// The highest percentile (of 50, 90, 99, 99.9) that still has at least
/// ten samples beyond it — the tail a sample count can actually resolve.
[[nodiscard]] inline double resolvable_percentile(std::size_t samples) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

/// FNV-1a over bytes, chained through `seed`.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes,
                                         std::uint64_t seed =
                                             0xcbf29ce484222325ull) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

[[nodiscard]] inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// Shortest text that reads back as the same double ("null" for NaN/inf,
/// which JSON cannot carry).
[[nodiscard]] inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

/// Machine metadata stamped on every row: hardware threads, the cpu ISA
/// flags the kernels dispatch on, compiler and build type.
[[nodiscard]] inline std::string machine_json() {
  std::string cpu;
#if defined(__GNUC__) && defined(__x86_64__)
  __builtin_cpu_init();
  const auto append = [&cpu](bool supported, const char* flag) {
    if (!supported) return;
    if (!cpu.empty()) cpu += ' ';
    cpu += flag;
  };
  append(__builtin_cpu_supports("sse4.2"), "sse4.2");
  append(__builtin_cpu_supports("avx"), "avx");
  append(__builtin_cpu_supports("avx2"), "avx2");
  append(__builtin_cpu_supports("avx512f"), "avx512f");
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(NDEBUG)
  const std::string build = "release";
#else
  const std::string build = "debug";
#endif
  return "{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu_flags\":" + json_string(cpu) +
         ",\"compiler\":" + json_string(compiler) +
         ",\"build\":" + json_string(build) + "}";
}

/// One measured value in the shared row schema.
struct Row {
  std::string layer;
  std::string metric;
  double value = 0.0;
  std::string unit;
  double spread = 0.0;
};

class RowSink {
 public:
  RowSink(std::string workload, std::ostream& os)
      : workload_(std::move(workload)), machine_(machine_json()), os_(os) {}

  void set_checksum(std::uint64_t checksum) { checksum_ = checksum; }

  void add(const std::string& layer, const std::string& metric, double value,
           const std::string& unit, double spread = 0.0) {
    rows_.push_back(Row{layer, metric, value, unit, spread});
  }

  void print() const {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(checksum_));
    for (const Row& row : rows_) {
      os_ << "{\"bench\":\"dsp_served\",\"workload\":" << json_string(workload_)
          << ",\"layer\":" << json_string(row.layer)
          << ",\"metric\":" << json_string(row.metric)
          << ",\"value\":" << json_number(row.value)
          << ",\"unit\":" << json_string(row.unit)
          << ",\"spread\":" << json_number(row.spread)
          << ",\"checksum\":\"" << hex << "\",\"machine\":" << machine_
          << "}\n";
    }
  }

 private:
  std::string workload_;
  std::string machine_;
  std::ostream& os_;
  std::uint64_t checksum_ = 0;
  std::vector<Row> rows_;
};

}  // namespace perfbench
