#include "exact/sp_exact.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "core/bounds.hpp"
#include "sp/bottom_left.hpp"
#include "sp/shelf.hpp"
#include "sp/sleator.hpp"
#include "util/check.hpp"

namespace dsp::exact {

namespace {

class SpDecisionSearch {
 public:
  SpDecisionSearch(const Instance& instance, Height height, const Limits& limits)
      : instance_(instance), height_(height), limits_(limits) {
    columns_.assign(static_cast<std::size_t>(instance.strip_width()), 0);
    order_.resize(instance.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      const Item& ia = instance_.item(a);
      const Item& ib = instance_.item(b);
      if (ia.area() != ib.area()) return ia.area() > ib.area();
      if (ia.height != ib.height) return ia.height > ib.height;
      return a < b;
    });
    placement_.resize(instance.size());
  }

  SpDecisionResult run() {
    SpDecisionResult result;
    if (instance_.max_height() > height_ ||
        instance_.total_area() >
            instance_.strip_width() * static_cast<std::int64_t>(height_)) {
      result.status = SearchStatus::kProvedInfeasible;
      return result;
    }
    const bool found = place(0);
    result.nodes = nodes_;
    if (found) {
      result.status = SearchStatus::kProvedFeasible;
      result.packing = sp::SpPacking{placement_};
    } else if (aborted_) {
      result.status = SearchStatus::kLimitReached;
    } else {
      result.status = SearchStatus::kProvedInfeasible;
    }
    return result;
  }

 private:
  using Mask = std::uint64_t;

  [[nodiscard]] bool fits(Length x, Length w, Height y, Height h) const {
    const Mask mask = ((h >= 62 ? ~Mask{0} : ((Mask{1} << h) - 1)) << y);
    for (Length c = x; c < x + w; ++c) {
      if (columns_[static_cast<std::size_t>(c)] & mask) return false;
    }
    return true;
  }

  void toggle(Length x, Length w, Height y, Height h) {
    const Mask mask = ((h >= 62 ? ~Mask{0} : ((Mask{1} << h) - 1)) << y);
    for (Length c = x; c < x + w; ++c) {
      columns_[static_cast<std::size_t>(c)] ^= mask;
    }
  }

  [[nodiscard]] std::uint64_t state_hash(std::size_t depth) const {
    std::uint64_t h = 1469598103934665603ULL ^ depth;
    for (const Mask m : columns_) {
      h ^= m;
      h *= 1099511628211ULL;
    }
    return h;
  }

  bool place(std::size_t depth) {
    if (depth == order_.size()) return true;
    if (aborted_) return false;
    if (++nodes_ >= limits_.max_nodes) {
      aborted_ = true;
      return false;
    }
    const std::uint64_t key = state_hash(depth);
    if (refuted_.contains(key)) return false;

    const std::size_t item_index = order_[depth];
    const Item& it = instance_.item(item_index);
    Length max_x = instance_.strip_width() - it.width;
    Length min_x = 0;
    Height min_y = 0;
    if (depth == 0) max_x = (instance_.strip_width() - it.width) / 2;
    if (depth > 0 && instance_.item(order_[depth - 1]) == it) {
      // Identical items in lexicographically non-decreasing (x, y) order.
      min_x = placement_[order_[depth - 1]].x;
    }
    for (Length x = min_x; x <= max_x; ++x) {
      const Height y_start =
          (depth > 0 && instance_.item(order_[depth - 1]) == it &&
           x == placement_[order_[depth - 1]].x)
              ? placement_[order_[depth - 1]].y
              : min_y;
      for (Height y = y_start; y + it.height <= height_; ++y) {
        if (!fits(x, it.width, y, it.height)) continue;
        toggle(x, it.width, y, it.height);
        placement_[item_index] = sp::SpPlacement{x, y};
        if (place(depth + 1)) return true;
        toggle(x, it.width, y, it.height);
        if (aborted_) return false;
      }
    }
    if (!aborted_ && refuted_.size() < kMaxMemo) refuted_.insert(key);
    return false;
  }

  static constexpr std::size_t kMaxMemo = 4'000'000;

  const Instance& instance_;
  Height height_;
  Limits limits_;
  std::vector<Mask> columns_;
  std::vector<std::size_t> order_;
  std::vector<sp::SpPlacement> placement_;
  // det-lint: allow(unordered-container): probed by key only (contains,
  // insert, size); never iterated, so its order cannot reach a result.
  std::unordered_set<std::uint64_t> refuted_;
  std::uint64_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

SpDecisionResult sp_decide_height(const Instance& instance, Height height,
                                  const Limits& limits) {
  DSP_REQUIRE(height >= 0 && height < 62,
              "sp_decide_height supports heights in [0, 62), got " << height);
  if (instance.size() == 0) {
    SpDecisionResult r;
    r.status = SearchStatus::kProvedFeasible;
    r.packing = sp::SpPacking{};
    return r;
  }
  return SpDecisionSearch(instance, height, limits).run();
}

SpOptResult sp_min_height(const Instance& instance, const Limits& limits) {
  SpOptResult result;
  if (instance.size() == 0) {
    result.proven_optimal = true;
    return result;
  }
  Height lo = combined_lower_bound(instance);
  sp::SpPacking incumbent = sp::bottom_left(instance);
  for (const auto& candidate :
       {sp::nfdh(instance), sp::ffdh(instance), sp::sleator(instance)}) {
    if (sp::packing_height(instance, candidate) <
        sp::packing_height(instance, incumbent)) {
      incumbent = candidate;
    }
  }
  Height hi = sp::packing_height(instance, incumbent);
  bool conclusive = true;
  while (lo < hi) {
    const Height mid = lo + (hi - lo) / 2;
    const SpDecisionResult d = sp_decide_height(instance, mid, limits);
    result.nodes += d.nodes;
    if (d.status == SearchStatus::kProvedFeasible) {
      incumbent = *d.packing;
      hi = mid;
    } else if (d.status == SearchStatus::kProvedInfeasible) {
      lo = mid + 1;
    } else {
      conclusive = false;
      lo = mid + 1;
    }
  }
  result.height = hi;
  result.packing = std::move(incumbent);
  result.proven_optimal = conclusive;
  return result;
}

}  // namespace dsp::exact
