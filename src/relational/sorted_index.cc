#include "relational/sorted_index.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "exec/par_util.h"
#include "relational/relation.h"
#include "util/logging.h"
#include "util/op_counter.h"

namespace cqc {

SortedIndex::SortedIndex(const Relation& rel, std::vector<int> perm)
    : perm_(std::move(perm)), num_rows_(rel.size()) {
  CQC_CHECK(rel.sealed()) << "index over unsealed relation " << rel.name();
  CQC_CHECK_EQ((int)perm_.size(), rel.arity());

  std::vector<size_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0);
  std::vector<const Value*> key_cols;
  key_cols.reserve(perm_.size());
  for (int c : perm_) key_cols.push_back(rel.ColumnData(c));
  par::ParallelSort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (const Value* col : key_cols) {
      if (col[a] != col[b]) return col[a] < col[b];
    }
    return false;
  });

  cols_.resize(perm_.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(perm_.size());
  for (size_t level = 0; level < perm_.size(); ++level) {
    tasks.push_back([this, level, &rel, &order] {
      cols_[level].resize(num_rows_);
      const int c = perm_[level];
      const Value* col = rel.ColumnData(c);
      for (size_t i = 0; i < num_rows_; ++i) cols_[level][i] = col[order[i]];
    });
  }
  par::RunTasks(std::move(tasks));
}

size_t SortedIndex::LowerBound(RowRange r, int level, Value v) const {
  ops::Bump();
  ops::BumpRangeSeek();
  const auto& col = cols_[level];
  return std::lower_bound(col.begin() + r.begin, col.begin() + r.end, v) -
         col.begin();
}

size_t SortedIndex::SeekGE(RowRange r, int level, Value v,
                           size_t hint) const {
  ops::Bump();
  ops::BumpRangeSeek();
  return GallopSeekGE(cols_[level].data(), hint < r.begin ? r.begin : hint,
                      r.end, v);
}

size_t SortedIndex::UpperBound(RowRange r, int level, Value v) const {
  ops::Bump();
  ops::BumpRangeSeek();
  const auto& col = cols_[level];
  return std::upper_bound(col.begin() + r.begin, col.begin() + r.end, v) -
         col.begin();
}

RowRange SortedIndex::Refine(RowRange r, int level, Value v) const {
  size_t lo = LowerBound(r, level, v);
  RowRange narrowed{lo, r.end};
  size_t hi = UpperBound(narrowed, level, v);
  return {lo, hi};
}

RowRange SortedIndex::RefineRange(RowRange r, int level, Value lo, Value hi) const {
  if (lo > hi) return {r.begin, r.begin};
  size_t b = LowerBound(r, level, lo);
  RowRange narrowed{b, r.end};
  size_t e = UpperBound(narrowed, level, hi);
  return {b, e};
}

size_t SortedIndex::CountDistinct(RowRange r, int level) const {
  size_t count = 0;
  size_t pos = r.begin;
  while (pos < r.end) {
    ++count;
    pos = UpperBound({pos, r.end}, level, cols_[level][pos]);
  }
  return count;
}

size_t SortedIndex::MemoryBytes() const {
  size_t bytes = sizeof(*this) + perm_.capacity() * sizeof(int);
  for (const auto& c : cols_) bytes += c.capacity() * sizeof(Value);
  return bytes;
}

}  // namespace cqc
