// Runtime CPU capability detection and dispatch control for the SIMD
// kernel layer (simd/kernels.h).
//
// The library ships one binary with two implementations of each hot kernel
// (AVX2 on x86-64 or NEON on aarch64, plus a portable scalar twin)
// compiled via per-function target attributes, so no global -mavx2 flag is
// needed and the binary still runs on hardware without the fast path (an
// x86-64 CPU without AVX2 runs the scalar twins). The dispatch level is
// resolved ONCE at startup:
//
//   * Detected()  — the best level the running CPU supports, after applying
//                   the CQC_FORCE_SCALAR=1 environment override (ops /
//                   debugging: pin the scalar twins without rebuilding);
//   * Active()    — the level the kernel table currently dispatches to;
//   * SetLevel()  — test hook (cf. par::SetBuildThreads) that re-points the
//                   kernel table at any level <= Detected(), so differential
//                   tests can sweep every level on one machine and assert
//                   bit-identical outputs.
//
// SetLevel is NOT synchronized against concurrently running kernels: call
// it from single-threaded test setup only. Every kernel has a scalar twin
// with identical output semantics — levels differ in instruction choice,
// never in results.
#ifndef CQC_SIMD_SIMD_CAPS_H_
#define CQC_SIMD_SIMD_CAPS_H_

#include <vector>

namespace cqc {
namespace simd {

/// Dispatch levels. A vector level is meaningful only on its architecture
/// (kNEON never appears on x86, kAVX2 never on aarch64).
enum class Level : int {
  kScalar = 0,
  kAVX2 = 1,
  kNEON = 2,
};

/// Best level the running CPU supports (cached; applies CQC_FORCE_SCALAR).
Level Detected();

/// Level the kernel table currently dispatches to.
Level Active();

/// Re-points the kernel table at `level`, clamped to Detected(); returns
/// the level actually in effect. Test hook — single-threaded callers only.
Level SetLevel(Level level);

/// Every level runnable on this machine, ascending: kScalar, then
/// Detected() when it is a vector level. Differential tests sweep this.
std::vector<Level> SupportedLevels();

/// Human-readable name ("scalar", "avx2", "neon").
const char* LevelName(Level level);

}  // namespace simd
}  // namespace cqc

#endif  // CQC_SIMD_SIMD_CAPS_H_
