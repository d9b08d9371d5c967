// Kernel implementations for every dispatch level. x86 fast paths are
// compiled with per-function target attributes (no global -mavx2), so one
// binary carries all levels and simd_caps.cc picks at startup. All results
// are uniquely defined by the kernel contracts (exact field bits, exact
// slot masks), so levels agree bit-for-bit.
#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace cqc {
namespace simd {
namespace detail {

namespace {

// ---------------------------------------------------------------------------
// Scalar twins. These pin the reference semantics; every vector kernel below
// must match them bit-for-bit (tests/simd_kernels_test.cc enforces it).
// ---------------------------------------------------------------------------

void UnpackRowsScalar(const uint64_t* words, const PackedColSpec* cols,
                      int arity, size_t row_bits, size_t first, size_t n,
                      Value* out) {
  size_t base = first * row_bits;
  for (size_t r = 0; r < n; ++r, base += row_bits, out += arity) {
    for (int c = 0; c < arity; ++c) {
      const PackedColSpec& spec = cols[c];
      if (spec.mask == 0) {  // width-0 column: owns no bits, no load
        out[c] = 0;
        continue;
      }
      const size_t bitpos = base + spec.bit;
      const size_t w = bitpos >> 6;
      const unsigned off = (unsigned)(bitpos & 63);
      const uint64_t lo = words[w] >> off;
      const uint64_t hi = (words[w + 1] << 1) << (63 - off);
      out[c] = (lo | hi) & spec.mask;
    }
  }
}

uint32_t MatchTagsScalar(const uint8_t* fps, uint8_t tag) {
  uint32_t m = 0;
  for (size_t i = 0; i < kGroupWidth; ++i) {
    m |= (uint32_t)(fps[i] == tag) << i;
  }
  return m;
}

uint32_t MatchEmptyScalar(const uint32_t* rows, uint32_t empty) {
  uint32_t m = 0;
  for (size_t i = 0; i < kGroupWidth; ++i) {
    m |= (uint32_t)(rows[i] == empty) << i;
  }
  return m;
}

constexpr KernelTable kScalarTable = {
    &UnpackRowsScalar, &MatchTagsScalar, &MatchEmptyScalar,
};

// ---------------------------------------------------------------------------
// x86: AVX2 (4 x u64 lanes, gathers + variable shifts; 16 x u8 / 8 x u32
// compares).
// ---------------------------------------------------------------------------
#if defined(__x86_64__) || defined(__i386__)

// Batch decode, 4 rows per step: per column, gather the two covering words
// of all 4 rows, splice with variable shifts (sllv/srlv), mask, and scatter
// the lanes into the row-major output. The (x << 1) << (63 - off) splice is
// the same branch-free idiom as the scalar GetBits.
__attribute__((target("avx2"))) void UnpackRowsAvx2(
    const uint64_t* words, const PackedColSpec* cols, int arity,
    size_t row_bits, size_t first, size_t n, Value* out) {
  const __m256i row_off = _mm256_setr_epi64x(
      0, (long long)row_bits, (long long)(2 * row_bits),
      (long long)(3 * row_bits));
  const __m256i six3 = _mm256_set1_epi64x(63);
  const __m256i one = _mm256_set1_epi64x(1);
  size_t r = 0;
  size_t base = first * row_bits;
  alignas(32) uint64_t tmp[4];
  for (; r + 4 <= n; r += 4, base += 4 * row_bits, out += 4 * arity) {
    for (int c = 0; c < arity; ++c) {
      const PackedColSpec& spec = cols[c];
      if (spec.mask == 0) {
        out[0 * arity + c] = 0;
        out[1 * arity + c] = 0;
        out[2 * arity + c] = 0;
        out[3 * arity + c] = 0;
        continue;
      }
      const __m256i bitpos = _mm256_add_epi64(
          _mm256_set1_epi64x((long long)(base + spec.bit)), row_off);
      const __m256i w = _mm256_srli_epi64(bitpos, 6);
      const __m256i off = _mm256_and_si256(bitpos, six3);
      const __m256i w0 =
          _mm256_i64gather_epi64((const long long*)words, w, 8);
      const __m256i w1 = _mm256_i64gather_epi64(
          (const long long*)words, _mm256_add_epi64(w, one), 8);
      const __m256i lo = _mm256_srlv_epi64(w0, off);
      const __m256i hi = _mm256_sllv_epi64(_mm256_sllv_epi64(w1, one),
                                           _mm256_sub_epi64(six3, off));
      const __m256i val = _mm256_and_si256(
          _mm256_or_si256(lo, hi), _mm256_set1_epi64x((long long)spec.mask));
      _mm256_store_si256((__m256i*)tmp, val);
      out[0 * arity + c] = tmp[0];
      out[1 * arity + c] = tmp[1];
      out[2 * arity + c] = tmp[2];
      out[3 * arity + c] = tmp[3];
    }
  }
  if (r < n) {
    UnpackRowsScalar(words, cols, arity, row_bits, first + r, n - r, out);
  }
}

// The 16 fingerprint bytes fit one 128-bit compare.
__attribute__((target("avx2"))) uint32_t MatchTagsAvx2(const uint8_t* fps,
                                                       uint8_t tag) {
  const __m128i t = _mm_set1_epi8((char)tag);
  const __m128i d = _mm_loadu_si128((const __m128i*)fps);
  return (uint32_t)_mm_movemask_epi8(_mm_cmpeq_epi8(d, t));
}

__attribute__((target("avx2"))) uint32_t MatchEmptyAvx2(const uint32_t* rows,
                                                        uint32_t empty) {
  const __m256i e = _mm256_set1_epi32((int)empty);
  const __m256i d0 = _mm256_loadu_si256((const __m256i*)rows);
  const __m256i d1 = _mm256_loadu_si256((const __m256i*)(rows + 8));
  const uint32_t m0 =
      (uint32_t)_mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(d0, e)));
  const uint32_t m1 =
      (uint32_t)_mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(d1, e)));
  return m0 | (m1 << 8);
}

constexpr KernelTable kAvx2Table = {
    &UnpackRowsAvx2, &MatchTagsAvx2, &MatchEmptyAvx2,
};

#endif  // x86

// ---------------------------------------------------------------------------
// aarch64: NEON is baseline; 16 x u8 / 4 x u32 compares.
// ---------------------------------------------------------------------------
#if defined(__aarch64__)

uint32_t MatchTagsNeon(const uint8_t* fps, uint8_t tag) {
  const uint8x16_t d = vld1q_u8(fps);
  const uint8x16_t eq = vceqq_u8(d, vdupq_n_u8(tag));
  // Collapse each byte lane to one bit: shift lane i's 0xff down to bit i.
  static const int8_t kShifts[16] = {0, 1, 2, 3, 4, 5, 6, 7,
                                     0, 1, 2, 3, 4, 5, 6, 7};
  const uint8x16_t bits =
      vshlq_u8(vandq_u8(eq, vdupq_n_u8(1)), vld1q_s8(kShifts));
  const uint8_t lo = vaddv_u8(vget_low_u8(bits));
  const uint8_t hi = vaddv_u8(vget_high_u8(bits));
  return (uint32_t)lo | ((uint32_t)hi << 8);
}

uint32_t MatchEmptyNeon(const uint32_t* rows, uint32_t empty) {
  const uint32x4_t e = vdupq_n_u32(empty);
  uint32_t m = 0;
  for (size_t i = 0; i < kGroupWidth; i += 4) {
    const uint32x4_t eq = vceqq_u32(vld1q_u32(rows + i), e);
    const uint32x4_t bits =
        vshlq_u32(vandq_u32(eq, vdupq_n_u32(1)),
                  (int32x4_t){0, 1, 2, 3});
    m |= vaddvq_u32(bits) << i;
  }
  return m;
}

constexpr KernelTable kNeonTable = {
    &UnpackRowsScalar,  // no gather on NEON
    &MatchTagsNeon, &MatchEmptyNeon,
};

#endif  // aarch64

}  // namespace

// Constant-initialized to scalar so kernels called before dispatch init (or
// from other TUs' static initializers) are already correct, just unboosted.
const KernelTable* g_active = &kScalarTable;

const KernelTable* TableFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarTable;
#if defined(__x86_64__) || defined(__i386__)
    case Level::kAVX2:
      return &kAvx2Table;
#endif
#if defined(__aarch64__)
    case Level::kNEON:
      return &kNeonTable;
#endif
    default:
      return &kScalarTable;
  }
}

}  // namespace detail
}  // namespace simd
}  // namespace cqc
