#include "requests.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "service/frame_codec.hpp"
#include "util/prng.hpp"

namespace perfbench {

using dsp::Instance;
using dsp::Rng;

WorkloadSpec WorkloadSpec::from_args(const Args& args) {
  WorkloadSpec spec;
  spec.name = args.str("workload");
  spec.family_cycle = args.words("families");
  for (const double n : args.nums("sizes")) {
    spec.sizes.push_back(static_cast<std::int64_t>(n));
  }
  for (const double w : args.nums("widths")) {
    spec.widths.push_back(static_cast<std::int64_t>(w));
  }
  spec.working_set = static_cast<std::size_t>(args.num("working-set"));
  spec.json_every = static_cast<std::size_t>(args.num("json-every"));
  spec.seed = static_cast<std::uint64_t>(std::stoull(args.str("seed")));
  if (spec.family_cycle.empty() || spec.sizes.empty() || spec.widths.empty()) {
    throw std::invalid_argument("workload needs families, sizes and widths");
  }
  const auto coprime = [](std::size_t a, std::size_t b) {
    return std::gcd(a, b) == 1;
  };
  if (!coprime(spec.family_cycle.size(), spec.sizes.size()) ||
      !coprime(spec.family_cycle.size(), spec.widths.size()) ||
      !coprime(spec.sizes.size(), spec.widths.size())) {
    throw std::invalid_argument(
        "family, size and width cycle lengths must be pairwise coprime");
  }
  return spec;
}

namespace {

[[nodiscard]] Instance make_family(const std::string& family, std::size_t n,
                                   dsp::Length w, Rng& rng) {
  namespace gen = dsp::gen;
  if (family == "uniform") return gen::random_uniform(n, w, w / 2, 100, rng);
  if (family == "tall") return gen::tall_items(n, w, 64, rng);
  if (family == "perfect") return gen::perfect_packing(n, w, 64, rng);
  if (family == "smart-grid") return gen::smart_grid(n, w, rng);
  // Narrow items (widths <= 4) on a wide strip: the regime where the
  // vertical category, and with it the Lemma-10 configuration LP, is
  // populated.
  if (family == "sparse") return gen::random_uniform(n, w, 4, 24, rng);
  throw std::invalid_argument("unknown family " + family);
}

/// Zipf exponent of working-set traffic (rank r drawn with weight r^-s).
constexpr double kZipfS = 1.1;

// Independent streams per purpose, so e.g. the permutation of request i
// never shares draws with the contents of instance i.
constexpr std::uint64_t kInstanceStream = 1;
constexpr std::uint64_t kRequestStream = 2;

}  // namespace

RequestSource::RequestSource(WorkloadSpec spec) : spec_(std::move(spec)) {
  double total = 0.0;
  for (std::size_t rank = 0; rank < spec_.working_set; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfS);
    zipf_cumulative_.push_back(total);
    working_set_.push_back(generate(rank));
  }
}

Instance RequestSource::instance(std::size_t id) const {
  return id < working_set_.size() ? working_set_[id] : generate(id);
}

Instance RequestSource::generate(std::size_t id) const {
  const auto pick = [id](const auto& cycle) {
    return cycle[id % cycle.size()];
  };
  Rng rng = Rng(spec_.seed).spawn(kInstanceStream).spawn(id);
  return make_family(pick(spec_.family_cycle),
                     static_cast<std::size_t>(pick(spec_.sizes)),
                     pick(spec_.widths), rng);
}

Request RequestSource::request(std::size_t index) const {
  Rng rng = Rng(spec_.seed).spawn(kRequestStream).spawn(index);
  Request request;
  request.instance_id = index;
  if (spec_.working_set > 0) {
    const double needle = rng.real(0.0, zipf_cumulative_.back());
    request.instance_id = static_cast<std::size_t>(
        std::lower_bound(zipf_cumulative_.begin(), zipf_cumulative_.end(),
                         needle) -
        zipf_cumulative_.begin());
    request.instance_id = std::min(request.instance_id, spec_.working_set - 1);
  }
  const Instance instance = this->instance(request.instance_id);
  std::vector<std::size_t> order(instance.size());
  std::iota(order.begin(), order.end(), 0);
  if (spec_.working_set > 0) {
    std::shuffle(order.begin(), order.end(), rng.engine());
  }
  request.wire.name = std::to_string(index);
  request.wire.strip_width = instance.strip_width();
  request.wire.items.reserve(order.size());
  // Fresh ids per request: the index in the high bits, the position below.
  const auto id_base = static_cast<std::int64_t>(index) << 20;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const dsp::Item& item = instance.item(order[p]);
    request.wire.items.push_back(dsp::service::WireItem{
        id_base + static_cast<std::int64_t>(p), item.width, item.height, ""});
  }
  if (spec_.json_every > 0 && index % spec_.json_every == 0) {
    request.format = dsp::service::WireFormat::kJson;
  }
  return request;
}

Request RequestSource::fill_request(std::size_t id) const {
  Request request;
  request.instance_id = id;
  request.wire = dsp::service::WireInstance::from_instance(
      instance(id), std::to_string(id));
  return request;
}

std::string RequestSource::payload(const Request& request) {
  std::ostringstream os;
  dsp::service::save_instance(os, request.wire, request.format);
  return std::move(os).str();
}

std::string RequestSource::frame(const Request& request) {
  return dsp::service::frame::encode_frame(dsp::service::frame::kSolve,
                                           payload(request));
}

}  // namespace perfbench
