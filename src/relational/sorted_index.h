// SortedIndex: a trie realized as column-major sorted arrays.
//
// The tuples of a relation are sorted lexicographically under a column
// permutation; a "trie node" is then just a contiguous row range plus a
// depth. Refining a range by fixing the next column to a value, or bounding
// it to an interval, is binary search: this gives the O~(1) count oracle
// that Lemma 3 of the paper assumes ("we can create an index that returns
// the count |RF(B)| in logarithmic time"), as well as the sorted child
// iteration required by worst-case optimal join.
#ifndef CQC_RELATIONAL_SORTED_INDEX_H_
#define CQC_RELATIONAL_SORTED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/common.h"

namespace cqc {

class Relation;

/// First i in [begin, end) with col[i] >= v (col sorted ascending); `end`
/// when none. Gallops from `begin` until a step overshoots, then
/// binary-searches the last bracket: O(log d) in the distance d moved.
inline size_t GallopSeekGE(const Value* col, size_t begin, size_t end,
                           Value v) {
  if (begin >= end || col[begin] >= v) return begin;
  // Invariant: col[prev] < v.
  size_t step = 1;
  size_t prev = begin;
  while (begin + step < end && col[begin + step] < v) {
    prev = begin + step;
    step <<= 1;
  }
  const size_t hi = std::min(begin + step, end);
  return std::lower_bound(col + prev + 1, col + hi, v) - col;
}

/// First i in (pos, end) with col[i] != col[pos]; `end` when the run covers
/// the suffix. col sorted ascending, pos < end. Short runs dominate, so it
/// probes linearly (a length-1 run costs one compare), then gallops out of
/// long runs on the equality predicate itself (rather than seeking v + 1,
/// which would overflow at v == UINT64_MAX).
inline size_t RunEndInColumn(const Value* col, size_t pos, size_t end) {
  const Value v = col[pos];
  size_t i = pos + 1;
  const size_t linear_end = std::min(end, pos + 32);
  while (i < linear_end && col[i] == v) ++i;
  if (i < linear_end || i >= end || col[i] != v) return i;
  // Gallop. Invariant: col[lo] == v.
  size_t lo = i;
  size_t step = 1;
  while (lo + step < end && col[lo + step] == v) {
    lo += step;
    step <<= 1;
  }
  size_t hi = std::min(lo + step, end);
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (col[mid] == v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// Contiguous run of rows [begin, end) at a given trie depth.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

class SortedIndex {
 public:
  /// Builds the index over `rel` (must be sealed) with sort order `perm`
  /// (level k of the trie is relation column perm[k]).
  SortedIndex(const Relation& rel, std::vector<int> perm);

  int depth() const { return (int)perm_.size(); }
  const std::vector<int>& perm() const { return perm_; }
  size_t num_rows() const { return num_rows_; }

  /// Root trie node spanning every tuple.
  RowRange Root() const { return {0, num_rows_}; }

  /// Value at trie level `level` of sorted row `row`.
  Value ValueAt(int level, size_t row) const { return cols_[level][row]; }

  /// Raw sorted column of `level` (num_rows values). For tight scan loops
  /// that want to walk a run without per-row accessor calls; the pointer is
  /// stable for the index's lifetime.
  const Value* LevelData(int level) const { return cols_[level].data(); }

  /// Sub-range of `r` whose level-`level` value equals `v` (may be empty).
  RowRange Refine(RowRange r, int level, Value v) const;

  /// Sub-range of `r` whose level-`level` value lies in [lo, hi].
  RowRange RefineRange(RowRange r, int level, Value lo, Value hi) const;

  /// First row at/after `r.begin` within `r` whose level value is >= v.
  size_t LowerBound(RowRange r, int level, Value v) const;
  /// First row within `r` whose level value is > v.
  size_t UpperBound(RowRange r, int level, Value v) const;

  /// First row in `r` with level value >= v, found by galloping
  /// (exponential search) from `hint`. Precondition: every row of `r`
  /// before `hint` has level value < v (hint = a previous seek position for
  /// a smaller target; pass r.begin when no hint is known). O(log d) in the
  /// distance d from the hint — O(1) for the sequential-enumeration case
  /// where the target is the very next run, vs O(log |r|) for LowerBound.
  size_t SeekGE(RowRange r, int level, Value v, size_t hint) const;

  /// End of the run of rows equal to the value at `pos` within `r`
  /// (pos must be in [r.begin, r.end)); see RunEndInColumn.
  size_t RunEnd(RowRange r, int level, size_t pos) const {
    return RunEndInColumn(cols_[level].data(), pos, r.end);
  }

  /// Smallest level value within `r`. Requires !r.empty().
  Value MinValue(RowRange r, int level) const { return cols_[level][r.begin]; }
  /// Largest level value within `r`. Requires !r.empty().
  Value MaxValue(RowRange r, int level) const { return cols_[level][r.end - 1]; }

  /// Given the row index of the current distinct value at `level`, returns
  /// the row index of the next distinct value within `r` (or r.end).
  size_t NextDistinct(RowRange r, int level, Value current) const {
    return UpperBound(r, level, current);
  }

  /// Number of distinct values at `level` within `r`. O(k log n) in the
  /// number k of distinct values.
  size_t CountDistinct(RowRange r, int level) const;

  size_t MemoryBytes() const;

 private:
  std::vector<int> perm_;
  size_t num_rows_;
  // cols_[level][sorted_row]; level k holds relation column perm_[k].
  std::vector<std::vector<Value>> cols_;
};

}  // namespace cqc

#endif  // CQC_RELATIONAL_SORTED_INDEX_H_
