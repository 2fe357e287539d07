#pragma once

#include <cstddef>
#include <string_view>

#include "core/instance.hpp"

namespace dsp::simd {

/// Vectorized integer kernels behind the dense hot paths (StripOccupancy
/// scans, sliding-window maxima).  Every kernel has a scalar
/// implementation and an AVX2 one; both are compiled (the AVX2 translation
/// unit with -mavx2, everything else without) and dispatch happens at
/// runtime per call.  All kernels are exact integer operations, so the two
/// backends are bit-identical by construction — tests/test_simd.cpp
/// cross-checks them on every generator family and on adversarial widths.
///
/// Dispatch policy:
///   * `DSP_ENABLE_AVX2` (CMake, default ON) compiles the AVX2 kernels;
///   * at runtime they are used iff the CPU reports AVX2 and `force_scalar`
///     has not pinned the scalar path (tests and the bench harness use the
///     pin to time and cross-check both backends in one process).
///
/// None of the kernels allocate; callers pass raw pointers into the flat
/// profile buffers.

/// True when the AVX2 translation unit was compiled into this binary.
[[nodiscard]] bool avx2_compiled();
/// True when the running CPU supports AVX2.
[[nodiscard]] bool avx2_supported();
/// Pins every kernel to the scalar implementation (true) or restores the
/// runtime dispatch (false).  Not synchronized with in-flight kernels: flip
/// it only from quiescent test/bench setup code.
void force_scalar(bool pin);
/// True when the next kernel call will take the AVX2 path.
[[nodiscard]] bool avx2_active();
/// "avx2" or "scalar", matching avx2_active().
[[nodiscard]] std::string_view active_name();

/// Max over p[0..n) — requires n >= 1.
[[nodiscard]] Height reduce_max(const Height* p, std::size_t n);
/// Min over p[0..n) — requires n >= 1.
[[nodiscard]] Height reduce_min(const Height* p, std::size_t n);
/// p[i] += delta for i in [0, n).
void add_delta(Height* p, std::size_t n, Height delta);
/// p[i] = max(p[i], floor) for i in [0, n).
void raise_floor(Height* p, std::size_t n, Height floor);
/// out[i] = max(a[i], b[i]) for i in [0, n).  `out` may alias `a` or `b`
/// only at identical offsets (the kernel streams left to right).
void max_combine(const Height* a, const Height* b, Height* out, std::size_t n);
/// Smallest i with p[i] <= threshold, or n.
[[nodiscard]] std::size_t first_leq(const Height* p, std::size_t n,
                                    Height threshold);
/// Smallest i with p[i] == value, or n.
[[nodiscard]] std::size_t first_eq(const Height* p, std::size_t n,
                                   Height value);
/// Smallest i with p[i] != value, or n.
[[nodiscard]] std::size_t first_ne(const Height* p, std::size_t n,
                                   Height value);

namespace detail {
// AVX2 implementations, defined in simd_avx2.cpp (compiled with -mavx2 when
// DSP_ENABLE_AVX2 is on).  Never call these directly — the dispatchers above
// check CPU support first.
Height reduce_max_avx2(const Height* p, std::size_t n);
Height reduce_min_avx2(const Height* p, std::size_t n);
void add_delta_avx2(Height* p, std::size_t n, Height delta);
void raise_floor_avx2(Height* p, std::size_t n, Height floor);
void max_combine_avx2(const Height* a, const Height* b, Height* out,
                      std::size_t n);
std::size_t first_leq_avx2(const Height* p, std::size_t n, Height threshold);
std::size_t first_eq_avx2(const Height* p, std::size_t n, Height value);
std::size_t first_ne_avx2(const Height* p, std::size_t n, Height value);
}  // namespace detail

}  // namespace dsp::simd
