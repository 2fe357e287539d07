#pragma once

// Seeded request generation.  A workload is a pure function from
// (seed, request index) to one wire request, so the load generator, the
// answer checker and the traced replay all rebuild the same bytes without
// keeping them in memory.
//
// The family / size / width of instance `id` follow fixed cycles, not a
// random draw: id % |families|, id % |sizes|, id % |widths|, with pairwise
// coprime cycle lengths, so every combination recurs once per product of
// the lengths and any run of requests that long sees the whole mix.  The
// seed varies the instances' contents while every seed sees the same mix,
// which keeps the latency distribution (and so the run-to-run spread)
// steady across seeds.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/instance.hpp"
#include "service/wire.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Family of instance id i: family_cycle[i % size], so a family listed
  /// k times has weight k; likewise sizes and widths.
  std::vector<std::string> family_cycle;
  std::vector<std::int64_t> sizes;   ///< n cycle
  std::vector<std::int64_t> widths;  ///< W cycle
  /// 0: every request is a distinct instance.  Otherwise requests draw
  /// Zipf(1.1) ranks over this many instances.
  std::size_t working_set = 0;
  /// Every json_every-th request travels as JSON (0 = all binary).
  std::size_t json_every = 0;
  std::uint64_t seed = 1;

  [[nodiscard]] static WorkloadSpec from_args(const Args& args);
};

struct Request {
  dsp::service::WireInstance wire;
  dsp::service::WireFormat format = dsp::service::WireFormat::kBinary;
  std::size_t instance_id = 0;  ///< distinct instance this request carries
};

class RequestSource {
 public:
  explicit RequestSource(WorkloadSpec spec);

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

  /// Distinct instance `id`, items in generation order.
  [[nodiscard]] dsp::Instance instance(std::size_t id) const;

  /// Request number `index`: its instance, a fresh item permutation and
  /// fresh ids (working-set workloads), and its encoding.
  [[nodiscard]] Request request(std::size_t index) const;

  /// Instance `id` as a plain binary request (the warm-up that fills a
  /// working-set workload's store).
  [[nodiscard]] Request fill_request(std::size_t id) const;

  /// The request as one solve frame (header + DSPW payload).
  [[nodiscard]] static std::string frame(const Request& request);
  /// The DSPW payload alone.
  [[nodiscard]] static std::string payload(const Request& request);

 private:
  [[nodiscard]] dsp::Instance generate(std::size_t id) const;

  WorkloadSpec spec_;
  std::vector<double> zipf_cumulative_;
  /// The working set, generated once (requests only permute it).
  std::vector<dsp::Instance> working_set_;
};

}  // namespace perfbench
