#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "util/check.hpp"

namespace dsp {

/// Lazy segment tree over strip columns supporting range-add (place/remove
/// an item), range-raise (skyline-style "lift to at least y"), range-max
/// (peak over a window) and the placement searches `first_fit` /
/// `min_peak_position` — all polylogarithmic in the strip width.
///
/// StripOccupancy's dense O(W) passes are the right tool for the
/// pseudo-polynomial regime this paper targets; this tree is the
/// alternative for *sparse* workloads (few items on a very wide strip),
/// where n log W beats n·W.  Both structures satisfy the same contract and
/// are cross-checked against each other in tests (see
/// tests/test_profile_backend.cpp and the ProfileBackend layer in
/// core/profile.hpp).
///
/// Pending updates are the monotone maps v ↦ max(v + add, floor); add and
/// raise compose into this form, so one lazy slot per node suffices.  Each
/// node stores the true min/max of its subtree; the lazy applies to the
/// children only (classical push-down formulation).
///
/// Layout: the four per-node quantities live in one 32-byte node inside one
/// flat array (children 2i / 2i+1 are adjacent), so a descent touches one
/// node per level instead of four separate arrays.  The placement searches run
/// as an explicit-stack loop over that array — no recursion, and the only
/// branches left are the pruning tests themselves.
class SegmentTree {
 public:
  explicit SegmentTree(Length width) : width_(width) {
    DSP_REQUIRE(width >= 1, "segment tree over an empty strip");
    std::size_t size = 1;
    while (size < static_cast<std::size_t>(width)) size <<= 1;
    size_ = size;
    nodes_.assign(2 * size_, Node{});
  }

  [[nodiscard]] Length width() const { return width_; }

  /// Adds `delta` to every column in [begin, end).
  void range_add(Length begin, Length end, Height delta) {
    DSP_REQUIRE(0 <= begin && begin < end && end <= width_,
                "range_add outside the strip");
    update(1, 0, static_cast<Length>(size_), begin, end, delta, kNoFloor);
  }

  /// Raises every column in [begin, end) to at least `target`.
  void range_raise(Length begin, Length end, Height target) {
    DSP_REQUIRE(0 <= begin && begin < end && end <= width_,
                "range_raise outside the strip");
    update(1, 0, static_cast<Length>(size_), begin, end, 0, target);
  }

  /// Max load over [begin, end).
  [[nodiscard]] Height range_max(Length begin, Length end) const {
    DSP_REQUIRE(0 <= begin && begin < end && end <= width_,
                "range_max outside the strip");
    return query(1, 0, static_cast<Length>(size_), begin, end);
  }

  /// Max load over the whole strip.
  [[nodiscard]] Height peak() const { return nodes_[1].max; }

  /// Leftmost start x in [0, W-width] such that range_max(x, x+width) +
  /// height <= budget, or nullopt if none exists.  Costs O(log^2 W) per
  /// *blocked run* crossed, so sparse profiles are searched in
  /// O((n + 1) polylog W) instead of the dense O(W) sweep.
  [[nodiscard]] std::optional<Length> first_fit(Length item_width,
                                                Height height,
                                                Height budget) const {
    DSP_REQUIRE(item_width >= 1 && item_width <= width_,
                "item wider than strip");
    const Height threshold = budget - height;
    Length x = 0;
    while (x + item_width <= width_) {
      const Length blocked = find_first_above(x, x + item_width, threshold);
      if (blocked < 0) return x;
      // Every start in [x, blocked] covers the blocked column; resume at the
      // first clear column after the blocked run.
      const Length clear = find_first_leq(blocked + 1, width_, threshold);
      if (clear < 0) return std::nullopt;
      x = clear;
    }
    return std::nullopt;
  }

  /// Smallest x' > x where the load differs from the load at x, or W when
  /// the run extends to the strip's end — two descents per call, so a whole
  /// profile enumerates in O(runs · log W).
  [[nodiscard]] Length next_change(Length x) const {
    DSP_REQUIRE(0 <= x && x < width_, "next_change outside the strip");
    if (x + 1 >= width_) return width_;
    const Height v = range_max(x, x + 1);
    const Length above = find_first_above(x + 1, width_, v);
    const Length below = find_first_leq(x + 1, width_, v - 1);
    Length next = width_;
    if (above >= 0) next = std::min(next, above);
    if (below >= 0) next = std::min(next, below);
    return next;
  }

  /// A start position minimizing the peak after adding an item of the given
  /// width (leftmost among minimizers), together with that resulting local
  /// max — binary search over the budget with `first_fit` as the oracle.
  [[nodiscard]] BestPosition min_peak_position(Length item_width) const {
    DSP_REQUIRE(item_width >= 1 && item_width <= width_,
                "item wider than strip");
    Height lo = nodes_[1].min;  // window max is at least the smallest column
    Height hi = peak();         // and at most the global peak (feasible)
    while (lo < hi) {
      const Height mid = lo + (hi - lo) / 2;
      if (first_fit(item_width, 0, mid).has_value()) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const std::optional<Length> start = first_fit(item_width, 0, lo);
    DSP_REQUIRE(start.has_value(), "internal: peak budget must be feasible");
    return {*start, lo};
  }

 private:
  static constexpr Height kNoFloor = std::numeric_limits<Height>::min();

  /// One tree node: subtree max/min plus the pending lazy map for the
  /// children.  32 bytes, so a sibling pair spans 64 contiguous bytes.
  struct alignas(32) Node {
    Height max = 0;
    Height min = 0;
    Height add = 0;
    Height floor = kNoFloor;
  };

  /// Applies the pending map v ↦ max(v + add, floor) to a value.
  static Height eval(Height value, Height add, Height floor) {
    const Height shifted = value + add;
    return floor == kNoFloor ? shifted : std::max(shifted, floor);
  }

  /// Floor of the composition "first (a1, b1), then (a2, b2)":
  /// max(v + a1 + a2, max(b1 + a2, b2)).
  static Height compose_floor(Height b1, Height a2, Height b2) {
    if (b1 == kNoFloor) return b2;
    const Height shifted = b1 + a2;
    return b2 == kNoFloor ? shifted : std::max(shifted, b2);
  }

  /// Applies (add, floor) to a node's stored values and, for internal nodes,
  /// folds it into the lazy pending for the children.
  void apply(std::size_t node, Height add, Height floor) {
    Node& n = nodes_[node];
    n.max = eval(n.max, add, floor);
    n.min = eval(n.min, add, floor);
    if (node < size_) {
      n.floor = compose_floor(n.floor, add, floor);
      n.add += add;
    }
  }

  void push(std::size_t node) {
    Node& n = nodes_[node];
    if (n.add != 0 || n.floor != kNoFloor) {
      apply(2 * node, n.add, n.floor);
      apply(2 * node + 1, n.add, n.floor);
      n.add = 0;
      n.floor = kNoFloor;
    }
  }

  void pull(std::size_t node) {
    nodes_[node].max = std::max(nodes_[2 * node].max, nodes_[2 * node + 1].max);
    nodes_[node].min = std::min(nodes_[2 * node].min, nodes_[2 * node + 1].min);
  }

  void update(std::size_t node, Length lo, Length hi, Length begin, Length end,
              Height add, Height floor) {
    if (begin <= lo && hi <= end) {
      apply(node, add, floor);
      return;
    }
    push(node);
    const Length mid = lo + (hi - lo) / 2;
    if (begin < mid) update(2 * node, lo, mid, begin, end, add, floor);
    if (end > mid) update(2 * node + 1, mid, hi, begin, end, add, floor);
    pull(node);
  }

  [[nodiscard]] Height query(std::size_t node, Length lo, Length hi,
                             Length begin, Length end) const {
    if (begin <= lo && hi <= end) return nodes_[node].max;
    const Length mid = lo + (hi - lo) / 2;
    Height best = 0;
    bool any = false;
    if (begin < mid) {
      best = query(2 * node, lo, mid, begin, end);
      any = true;
    }
    if (end > mid) {
      const Height right = query(2 * node + 1, mid, hi, begin, end);
      best = any ? std::max(best, right) : right;
    }
    // The children's stored values are stale by this node's pending lazy;
    // the map is monotone, so applying it to their max commutes.
    return eval(best, nodes_[node].add, nodes_[node].floor);
  }

  /// A pending descent frame: node plus its column interval and the
  /// composition (a, b) of the ancestors' lazies applying to its stored
  /// values.  The stack never exceeds one sibling pair per level.
  struct Frame {
    std::size_t node;
    Length lo, hi;
    Height a, b;
  };

  /// Leftmost column in [begin, end) with load > threshold, or -1 —
  /// iterative DFS over the flat node array, left child first, pruning
  /// subtrees whose lazily-adjusted max cannot exceed the threshold.
  [[nodiscard]] Length find_first_above(Length begin, Length end,
                                        Height threshold) const {
    if (begin >= end) return -1;
    Frame stack[2 * kMaxLevels];
    int top = 0;
    stack[top++] = Frame{1, 0, static_cast<Length>(size_), 0, kNoFloor};
    while (top > 0) {
      const Frame f = stack[--top];
      if (f.hi <= begin || end <= f.lo) continue;
      const Node& n = nodes_[f.node];
      if (eval(n.max, f.a, f.b) <= threshold) continue;
      if (f.node >= size_) return f.lo;
      const Height child_a = n.add + f.a;
      const Height child_b = compose_floor(n.floor, f.a, f.b);
      const Length mid = f.lo + (f.hi - f.lo) / 2;
      stack[top++] = Frame{2 * f.node + 1, mid, f.hi, child_a, child_b};
      stack[top++] = Frame{2 * f.node, f.lo, mid, child_a, child_b};
    }
    return -1;
  }

  /// Leftmost column in [begin, end) with load <= threshold, or -1 (same
  /// descent, pruning on the subtree min instead).
  [[nodiscard]] Length find_first_leq(Length begin, Length end,
                                      Height threshold) const {
    if (begin >= end) return -1;
    Frame stack[2 * kMaxLevels];
    int top = 0;
    stack[top++] = Frame{1, 0, static_cast<Length>(size_), 0, kNoFloor};
    while (top > 0) {
      const Frame f = stack[--top];
      if (f.hi <= begin || end <= f.lo) continue;
      const Node& n = nodes_[f.node];
      if (eval(n.min, f.a, f.b) > threshold) continue;
      if (f.node >= size_) return f.lo;
      const Height child_a = n.add + f.a;
      const Height child_b = compose_floor(n.floor, f.a, f.b);
      const Length mid = f.lo + (f.hi - f.lo) / 2;
      stack[top++] = Frame{2 * f.node + 1, mid, f.hi, child_a, child_b};
      stack[top++] = Frame{2 * f.node, f.lo, mid, child_a, child_b};
    }
    return -1;
  }

  /// Length is 64-bit, so a tree never exceeds 63 levels; the descent stack
  /// holds at most one sibling pair per level.
  static constexpr int kMaxLevels = 64;

  Length width_;
  std::size_t size_ = 1;
  std::vector<Node> nodes_;
};

}  // namespace dsp
