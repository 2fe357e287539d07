#include "core/occupancy.hpp"

#include <algorithm>

#include "core/simd.hpp"
#include "util/check.hpp"

namespace dsp {

StripOccupancy::StripOccupancy(Length strip_width) {
  DSP_REQUIRE(strip_width >= 1, "strip width must be >= 1");
  load_.assign(static_cast<std::size_t>(strip_width), 0);
}

Height StripOccupancy::peak() const {
  // The historical contract: the peak of an all-negative profile is 0.
  return std::max<Height>(0, simd::reduce_max(load_.data(), load_.size()));
}

void StripOccupancy::add(Length start, Length width, Height height) {
  DSP_REQUIRE(start >= 0 && width >= 1 && start + width <= strip_width(),
              "add outside strip: start=" << start << " width=" << width);
  simd::add_delta(load_.data() + start, static_cast<std::size_t>(width),
                  height);
}

void StripOccupancy::remove(Length start, Length width, Height height) {
  add(start, width, -height);
}

void StripOccupancy::raise_to(Length start, Length width, Height target) {
  DSP_REQUIRE(start >= 0 && width >= 1 && start + width <= strip_width(),
              "raise_to outside strip: start=" << start << " width=" << width);
  simd::raise_floor(load_.data() + start, static_cast<std::size_t>(width),
                    target);
}

Height StripOccupancy::window_max(Length start, Length width) const {
  DSP_REQUIRE(start >= 0 && width >= 1 && start + width <= strip_width(),
              "window outside strip");
  // Like peak(): clamped at 0 (the scan historically started from m = 0).
  return std::max<Height>(
      0, simd::reduce_max(load_.data() + start, static_cast<std::size_t>(width)));
}

Length StripOccupancy::next_change(Length x) const {
  const Length w = strip_width();
  DSP_REQUIRE(x >= 0 && x < w, "next_change outside the strip");
  const Height v = load_[static_cast<std::size_t>(x)];
  const std::size_t run = simd::first_ne(
      load_.data() + x + 1, static_cast<std::size_t>(w - x - 1), v);
  return x + 1 + static_cast<Length>(run);
}

std::span<const Height> StripOccupancy::window_maxima(Length width) const {
  return sliding_window_maxima(load_, width, scratch_);
}

std::optional<Length> StripOccupancy::first_fit(Length width, Height height,
                                                Height budget) const {
  DSP_REQUIRE(width >= 1 && width <= strip_width(), "item wider than strip");
  const std::span<const Height> maxima = window_maxima(width);
  // maxima[x] + height <= budget, searched as maxima[x] <= budget - height
  // (exact for the integer heights of this problem).
  const std::size_t x =
      simd::first_leq(maxima.data(), maxima.size(), budget - height);
  if (x == maxima.size()) return std::nullopt;
  return static_cast<Length>(x);
}

BestPosition StripOccupancy::min_peak_position(Length width) const {
  DSP_REQUIRE(width >= 1 && width <= strip_width(), "item wider than strip");
  const std::span<const Height> maxima = window_maxima(width);
  // Leftmost minimizer: the min, then its first occurrence — two vector
  // scans instead of one scalar compare chain.
  const Height best = simd::reduce_min(maxima.data(), maxima.size());
  const std::size_t x = simd::first_eq(maxima.data(), maxima.size(), best);
  return {static_cast<Length>(x), best};
}

}  // namespace dsp
