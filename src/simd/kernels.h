// SIMD kernels for the hot inner loops where vector code measurably pays,
// behind runtime dispatch (simd/simd_caps.h):
//
//   * UnpackRows — batch decode of bit-packed tuple rows
//     (core/bitpack.h): per column, gather the two covering words for a
//     block of rows and splice with vector variable shifts, instead of the
//     scalar two-word splice per field.
//   * MatchTags / MatchEmpty — 16-slot group probes for the flat hash
//     index (relational/hash_index.h): one vector compare yields the
//     fingerprint-match and empty-slot masks of a whole cluster window,
//     backing the block tombstone filter in core/updatable_rep.cc.
//
// The sorted-column search steps (gallop to the first value >= v, end of a
// run of equal values) stay scalar, next to their data in
// relational/sorted_index.h: block compare-and-count versions measured no
// faster than the gallop.
//
// Every kernel has a scalar twin with IDENTICAL output semantics (the
// differential suite in tests/simd_kernels_test.cc sweeps all levels and
// asserts bit-identical results); levels differ in instruction choice
// only. Calls go through one function-pointer table swapped by
// simd::SetLevel — kernels process blocks, so the indirect call is
// amortized.
#ifndef CQC_SIMD_KERNELS_H_
#define CQC_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/simd_caps.h"
#include "util/common.h"

namespace cqc {
namespace simd {

/// Per-column decode constants of a bit-packed row layout, hoisted into one
/// contiguous plan array (built once per pool) so decode loops read a
/// single cache line instead of three parallel vectors.
struct PackedColSpec {
  uint32_t bit = 0;      // bit offset of the column within a row
  uint32_t width = 0;    // field width in bits (0..64)
  uint64_t mask = 0;     // (1 << width) - 1, ~0 for width 64, 0 for width 0
};

/// Number of slots a hash-index group probe examines per step. The fps /
/// rows arrays must be padded with kGroupWidth mirrored slots past the
/// power-of-two capacity so a group starting anywhere reads contiguously.
inline constexpr size_t kGroupWidth = 16;

namespace detail {

/// The dispatch table. One instance per level lives in kernels.cc; the
/// active pointer is swapped by simd::SetLevel.
struct KernelTable {
  /// Decodes rows [first, first + n) of a packed pool into `out`
  /// (row-major, n * arity values). `words` must carry the pool's pad
  /// word; zero-width columns never touch memory.
  void (*unpack_rows)(const uint64_t* words, const PackedColSpec* cols,
                      int arity, size_t row_bits, size_t first, size_t n,
                      Value* out);
  /// Bit i set <=> fps[i] == tag, for i in [0, kGroupWidth).
  uint32_t (*match_tags)(const uint8_t* fps, uint8_t tag);
  /// Bit i set <=> rows[i] == empty, for i in [0, kGroupWidth).
  uint32_t (*match_empty)(const uint32_t* rows, uint32_t empty);
};

extern const KernelTable* g_active;

}  // namespace detail

inline void UnpackRows(const uint64_t* words, const PackedColSpec* cols,
                       int arity, size_t row_bits, size_t first, size_t n,
                       Value* out) {
  detail::g_active->unpack_rows(words, cols, arity, row_bits, first, n, out);
}

inline uint32_t MatchTags(const uint8_t* fps, uint8_t tag) {
  return detail::g_active->match_tags(fps, tag);
}

inline uint32_t MatchEmpty(const uint32_t* rows, uint32_t empty) {
  return detail::g_active->match_empty(rows, empty);
}

}  // namespace simd
}  // namespace cqc

#endif  // CQC_SIMD_KERNELS_H_
