#ifndef STHIST_CORE_SIMD_H_
#define STHIST_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>

/// \file
/// Portable vectorized box-intersection kernels (DESIGN.md §15).
///
/// The flat bucket indexes (the bucket-tree layout's child runs, MHist's
/// box index) store bounds as structure-of-arrays planes —
/// `plane[d * stride + slot]` — so testing a run of buckets against one
/// query is a pure vertical operation: broadcast the query bound for
/// dimension d, compare it against a contiguous vector of entry bounds, AND
/// the per-dimension masks together. This header wraps that kernel behind
/// one function, `MatchBoxes`, with three implementations:
///
///   * AVX2 (x86-64): 4 doubles per compare, selected at runtime via
///     `__builtin_cpu_supports` so one binary serves any x86-64 machine.
///     The implementation carries `__attribute__((target("avx2")))`, so the
///     translation unit itself needs no -mavx2 flag.
///   * NEON (aarch64): 2 doubles per compare; NEON is baseline on AArch64,
///     so the selection is at compile time.
///   * Scalar: the reference loop, always compiled, used as the tail
///     handler, the no-SIMD-hardware fallback, and the whole kernel when
///     built with -DSTHIST_NO_SIMD.
///
/// All three are comparison-only — no arithmetic, no FMA, no reassociation —
/// so they classify every box identically down to the last ULP and the
/// bitwise-equivalence contract of DESIGN.md §10 survives vectorization
/// untouched. `ForceScalarForTest` lets one test binary run both code paths;
/// tests/flat_index_test.cc and tests/index_differential_test.cc hold them
/// to identical outputs.

#if !defined(STHIST_NO_SIMD) && (defined(__x86_64__) || defined(_M_X64)) && \
    defined(__GNUC__)
#define STHIST_SIMD_X86 1
#include <immintrin.h>
#elif !defined(STHIST_NO_SIMD) && defined(__aarch64__) && defined(__GNUC__)
#define STHIST_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace sthist::simd {

/// Which kernel `MatchBoxes` dispatches to on this process, in this build.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

inline const char* LevelName(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

namespace internal {
inline bool& ForceScalarFlag() {
  static bool force = false;
  return force;
}
}  // namespace internal

/// Test hook: true forces every subsequent MatchBoxes call onto the scalar
/// kernel, so a single binary can differential-test scalar against the
/// vectorized path. Not thread-safe; flip it only from single-threaded test
/// setup (the flag is read unsynchronized on the hot path).
inline void ForceScalarForTest(bool force) {
  internal::ForceScalarFlag() = force;
}

/// The kernel the next MatchBoxes call will use.
inline Level ActiveLevel() {
  if (internal::ForceScalarFlag()) return Level::kScalar;
#if defined(STHIST_SIMD_X86)
  static const bool have_avx2 = __builtin_cpu_supports("avx2");
  return have_avx2 ? Level::kAvx2 : Level::kScalar;
#elif defined(STHIST_SIMD_NEON)
  return Level::kNeon;
#else
  return Level::kScalar;
#endif
}

/// Reference kernel, and the contract all kernels implement.
///
/// Tests entries `[begin, begin + count)` of the SoA planes against the
/// query box `[qlo, qhi]` and appends each matching slot index to `out`
/// (caller guarantees room for `count` entries). Bounds of slot `s` in
/// dimension `d` live at `lo[d * stride + s]` / `hi[d * stride + s]`.
/// `closed == false` matches Box::Intersects (open interiors overlap,
/// strict compares); `closed == true` matches closed-interval overlap.
/// Returns the number of slots written. Never allocates.
inline size_t MatchBoxesScalar(const double* lo, const double* hi,
                               size_t stride, size_t dim, uint32_t begin,
                               uint32_t count, const double* qlo,
                               const double* qhi, bool closed,
                               uint32_t* out) {
  size_t n = 0;
  const uint32_t end = begin + count;
  for (uint32_t s = begin; s < end; ++s) {
    bool hit = true;
    for (size_t d = 0; d < dim; ++d) {
      const double elo = lo[d * stride + s];
      const double ehi = hi[d * stride + s];
      const bool miss = closed ? (ehi < qlo[d] || qhi[d] < elo)
                               : (ehi <= qlo[d] || elo >= qhi[d]);
      if (miss) {
        hit = false;
        break;
      }
    }
    if (hit) out[n++] = s;
  }
  return n;
}

#if defined(STHIST_SIMD_X86)

/// AVX2 kernel: 4 slots per iteration, per-dimension compare + mask AND
/// with an early exit once a block is all-miss; any sub-block tail falls
/// back to the scalar loop. Comparisons use the ordered-quiet predicates,
/// which agree with the scalar `<`/`<=` on every input the planes can hold.
__attribute__((target("avx2"))) inline size_t MatchBoxesAvx2(
    const double* lo, const double* hi, size_t stride, size_t dim,
    uint32_t begin, uint32_t count, const double* qlo, const double* qhi,
    bool closed, uint32_t* out) {
  size_t n = 0;
  const uint32_t end = begin + count;
  uint32_t s = begin;
  for (; s + 4 <= end; s += 4) {
    __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (size_t d = 0; d < dim; ++d) {
      const __m256d elo = _mm256_loadu_pd(lo + d * stride + s);
      const __m256d ehi = _mm256_loadu_pd(hi + d * stride + s);
      const __m256d ql = _mm256_broadcast_sd(qlo + d);
      const __m256d qh = _mm256_broadcast_sd(qhi + d);
      const __m256d dm =
          closed ? _mm256_and_pd(_mm256_cmp_pd(ehi, ql, _CMP_GE_OQ),
                                 _mm256_cmp_pd(elo, qh, _CMP_LE_OQ))
                 : _mm256_and_pd(_mm256_cmp_pd(ehi, ql, _CMP_GT_OQ),
                                 _mm256_cmp_pd(elo, qh, _CMP_LT_OQ));
      mask = _mm256_and_pd(mask, dm);
      if (_mm256_movemask_pd(mask) == 0) break;
    }
    int bits = _mm256_movemask_pd(mask);
    while (bits != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(bits));
      out[n++] = s + static_cast<uint32_t>(lane);
      bits &= bits - 1;
    }
  }
  n += MatchBoxesScalar(lo, hi, stride, dim, s, end - s, qlo, qhi, closed,
                        out + n);
  return n;
}

#endif  // STHIST_SIMD_X86

#if defined(STHIST_SIMD_NEON)

/// NEON kernel: 2 slots per iteration, same mask-AND structure as AVX2.
inline size_t MatchBoxesNeon(const double* lo, const double* hi,
                             size_t stride, size_t dim, uint32_t begin,
                             uint32_t count, const double* qlo,
                             const double* qhi, bool closed, uint32_t* out) {
  size_t n = 0;
  const uint32_t end = begin + count;
  uint32_t s = begin;
  for (; s + 2 <= end; s += 2) {
    uint64x2_t mask = vdupq_n_u64(~uint64_t{0});
    for (size_t d = 0; d < dim; ++d) {
      const float64x2_t elo = vld1q_f64(lo + d * stride + s);
      const float64x2_t ehi = vld1q_f64(hi + d * stride + s);
      const float64x2_t ql = vdupq_n_f64(qlo[d]);
      const float64x2_t qh = vdupq_n_f64(qhi[d]);
      const uint64x2_t dm =
          closed ? vandq_u64(vcgeq_f64(ehi, ql), vcleq_f64(elo, qh))
                 : vandq_u64(vcgtq_f64(ehi, ql), vcltq_f64(elo, qh));
      mask = vandq_u64(mask, dm);
      if (vmaxvq_u32(vreinterpretq_u32_u64(mask)) == 0) break;
    }
    if (vgetq_lane_u64(mask, 0) != 0) out[n++] = s;
    if (vgetq_lane_u64(mask, 1) != 0) out[n++] = s + 1;
  }
  n += MatchBoxesScalar(lo, hi, stride, dim, s, end - s, qlo, qhi, closed,
                        out + n);
  return n;
}

#endif  // STHIST_SIMD_NEON

/// Dispatched kernel entry point; see MatchBoxesScalar for the contract.
inline size_t MatchBoxes(const double* lo, const double* hi, size_t stride,
                         size_t dim, uint32_t begin, uint32_t count,
                         const double* qlo, const double* qhi, bool closed,
                         uint32_t* out) {
  switch (ActiveLevel()) {
#if defined(STHIST_SIMD_X86)
    case Level::kAvx2:
      return MatchBoxesAvx2(lo, hi, stride, dim, begin, count, qlo, qhi,
                            closed, out);
#endif
#if defined(STHIST_SIMD_NEON)
    case Level::kNeon:
      return MatchBoxesNeon(lo, hi, stride, dim, begin, count, qlo, qhi,
                            closed, out);
#endif
    default:
      return MatchBoxesScalar(lo, hi, stride, dim, begin, count, qlo, qhi,
                              closed, out);
  }
}

}  // namespace sthist::simd

#endif  // STHIST_CORE_SIMD_H_
