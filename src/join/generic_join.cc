#include "join/generic_join.h"

#include "util/logging.h"
#include "util/op_counter.h"

namespace cqc {

JoinIterator::JoinIterator(const std::vector<JoinAtomInput>* atoms,
                           int num_levels,
                           std::vector<LevelConstraint> constraints)
    : atoms_(atoms),
      num_levels_(num_levels),
      constraints_(std::move(constraints)) {
  CQC_CHECK_EQ((int)constraints_.size(), num_levels_);
  participants_.resize(num_levels_);
  range_stack_.resize(this->atoms().size());
  for (size_t a = 0; a < this->atoms().size(); ++a) {
    const JoinAtomInput& in = this->atoms()[a];
    if (in.start.empty()) empty_atom_ = true;
    range_stack_[a].assign(in.levels.size() + 1, in.start);
    int prev_join = -1, prev_trie = in.start_level - 1;
    for (size_t d = 0; d < in.levels.size(); ++d) {
      auto [join_level, trie_level] = in.levels[d];
      CQC_CHECK_GT(join_level, prev_join);
      CQC_CHECK_GT(trie_level, prev_trie);
      CQC_CHECK_LT(join_level, num_levels_);
      prev_join = join_level;
      prev_trie = trie_level;
      participants_[join_level].push_back({(int)a, trie_level, (int)d});
    }
  }
  size_t max_parts = 0;
  for (int l = 0; l < num_levels_; ++l) {
    CQC_CHECK(!participants_[l].empty())
        << "join level " << l << " has no participating atom";
    max_parts = std::max(max_parts, participants_[l].size());
  }
  seek_pos_.assign(max_parts, 0);
  values_.assign(num_levels_, 0);
}

JoinIterator::JoinIterator(std::vector<JoinAtomInput> atoms, int num_levels,
                           std::vector<LevelConstraint> constraints)
    : JoinIterator(&atoms, num_levels, std::move(constraints)) {
  // The delegated ctor read from the caller's vector; adopt it afterwards
  // (element heap buffers are stable under vector move).
  owned_atoms_ = std::move(atoms);
  atoms_ = &owned_atoms_;
}

JoinIterator::JoinIterator(JoinIterator&& other) noexcept
    : owned_atoms_(std::move(other.owned_atoms_)),
      atoms_(other.atoms_ == &other.owned_atoms_ ? &owned_atoms_
                                                 : other.atoms_),
      num_levels_(other.num_levels_),
      constraints_(std::move(other.constraints_)),
      participants_(std::move(other.participants_)),
      range_stack_(std::move(other.range_stack_)),
      values_(std::move(other.values_)),
      seek_pos_(std::move(other.seek_pos_)),
      started_(other.started_),
      done_(other.done_),
      empty_atom_(other.empty_atom_) {}

JoinIterator& JoinIterator::operator=(JoinIterator&& other) noexcept {
  if (this == &other) return *this;
  const bool owned = other.atoms_ == &other.owned_atoms_;
  owned_atoms_ = std::move(other.owned_atoms_);
  atoms_ = owned ? &owned_atoms_ : other.atoms_;
  num_levels_ = other.num_levels_;
  constraints_ = std::move(other.constraints_);
  participants_ = std::move(other.participants_);
  range_stack_ = std::move(other.range_stack_);
  values_ = std::move(other.values_);
  seek_pos_ = std::move(other.seek_pos_);
  started_ = other.started_;
  done_ = other.done_;
  empty_atom_ = other.empty_atom_;
  return *this;
}

void JoinIterator::Reset(const std::vector<LevelConstraint>& constraints) {
  CQC_CHECK_EQ((int)constraints.size(), num_levels_);
  constraints_.assign(constraints.begin(), constraints.end());
  // Depth-0 ranges (the pre-bound starts) are never overwritten by
  // SeekLevel, and deeper entries are re-derived before use — nothing else
  // to restore.
  started_ = false;
  done_ = false;
}

Value JoinIterator::LevelStart(int level) const {
  const LevelConstraint& c = constraints_[level];
  switch (c.kind) {
    case FBoxDim::kUnit:
    case FBoxDim::kRange:
      return c.lo;
    case FBoxDim::kAny:
      return kBottom;
  }
  return kBottom;
}

bool JoinIterator::SeekLevel(int level, Value from, bool use_hints) {
  const LevelConstraint& c = constraints_[level];
  Value v = from;
  if (c.kind != FBoxDim::kAny) {
    if (v < c.lo) v = c.lo;
    if (v > c.hi || c.lo > c.hi) return false;
  }
  const auto& parts = participants_[level];
  const size_t k = parts.size();
  // Search cursors: when advancing past values_[level] under an unchanged
  // parent, everything before the previous refinement's end is < v, so the
  // gallop starts there (usually a direct hit on the next run).
  for (size_t j = 0; j < k; ++j) {
    const Participant& p = parts[j];
    seek_pos_[j] = use_hints ? range_stack_[p.atom][p.depth + 1].end
                             : range_stack_[p.atom][p.depth].begin;
  }
  // Leapfrog: cycle until every participant agrees on v.
  size_t agreed = 0;
  size_t i = 0;
  while (agreed < k) {
    const Participant& p = parts[i];
    const SortedIndex& idx = *atoms()[p.atom].index;
    const RowRange parent = range_stack_[p.atom][p.depth];
    ops::Bump();
    const size_t pos = idx.SeekGE(parent, p.trie_level, v, seek_pos_[i]);
    if (pos >= parent.end) return false;
    seek_pos_[i] = pos;
    Value got = idx.ValueAt(p.trie_level, pos);
    if (got > v) {
      if (c.kind == FBoxDim::kUnit) return false;
      if (c.kind == FBoxDim::kRange && got > c.hi) return false;
      v = got;
      agreed = 1;
    } else {
      ++agreed;
    }
    i = (i + 1) % k;
  }
  // Every cursor sits on the first row of its v-run (the seek targets only
  // ever grew, so no position was overshot): record the refined child
  // ranges straight from the cursors — no re-search.
  for (size_t j = 0; j < k; ++j) {
    const Participant& p = parts[j];
    const SortedIndex& idx = *atoms()[p.atom].index;
    const RowRange parent = range_stack_[p.atom][p.depth];
    const size_t lo_pos = seek_pos_[j];
    range_stack_[p.atom][p.depth + 1] = {
        lo_pos, idx.RunEnd(parent, p.trie_level, lo_pos)};
  }
  values_[level] = v;
  return true;
}

bool JoinIterator::AdvanceToMatch() {
  if (done_ || empty_atom_) {
    done_ = true;
    return false;
  }
  if (num_levels_ == 0) {
    // Pure existence check on pre-bound atoms: all start ranges nonempty.
    if (started_) {
      done_ = true;
      return false;
    }
    started_ = true;
    return true;
  }

  int level;
  bool advancing;  // move past values_[level] rather than start fresh
  if (!started_) {
    started_ = true;
    level = 0;
    advancing = false;
  } else {
    level = num_levels_ - 1;
    advancing = true;
  }

  for (;;) {
    Value from;
    if (advancing) {
      if (values_[level] == kTop) {
        from = 0;  // unreachable sentinel; force backtrack below
        --level;
        if (level < 0) {
          done_ = true;
          return false;
        }
        continue;
      }
      from = values_[level] + 1;
    } else {
      from = LevelStart(level);
    }
    if (SeekLevel(level, from, /*use_hints=*/advancing)) {
      if (level == num_levels_ - 1) return true;
      ++level;
      advancing = false;
    } else {
      --level;
      if (level < 0) {
        done_ = true;
        return false;
      }
      advancing = true;
    }
  }
}

bool JoinIterator::Next(Tuple* out) {
  if (!AdvanceToMatch()) return false;
  *out = values_;
  return true;
}

size_t JoinIterator::ScanLastLevel(TupleBuffer* out, size_t max_tuples) {
  const int level = num_levels_ - 1;
  const auto& parts = participants_[level];
  const LevelConstraint& c = constraints_[level];
  if (c.kind == FBoxDim::kUnit) return 0;  // a unit level has one match
  const size_t k = parts.size();

  size_t emitted = 0;
  if (k == 1) {
    // Single participant: a raw walk of its sorted column, run by run. The
    // values_/range_stack_ book-keeping the generic path resumes from is
    // written back once on exit, not per tuple.
    const Participant& p = parts[0];
    const SortedIndex& idx = *atoms()[p.atom].index;
    const Value* col = idx.LevelData(p.trie_level);
    const RowRange parent = range_stack_[p.atom][p.depth];
    size_t pos = range_stack_[p.atom][p.depth + 1].end;  // past current run
    size_t run_begin = pos;
    Value v = 0;
    while (emitted < max_tuples && pos < parent.end) {
      v = col[pos];
      if (c.kind == FBoxDim::kRange && v > c.hi) break;
      ops::Bump();
      const size_t end = RunEndInColumn(col, pos, parent.end);
      Value* slot = out->AppendSlot();
      for (int l = 0; l < level; ++l) slot[l] = values_[l];
      slot[level] = v;
      run_begin = pos;
      pos = end;
      ++emitted;
    }
    if (emitted > 0) {
      values_[level] = col[run_begin];
      range_stack_[p.atom][p.depth + 1] = {run_begin, pos};
    }
    return emitted;
  }
  while (emitted < max_tuples) {
    // Advance past the current runs and leapfrog the cursors to the next
    // value present in every participant. One participant degenerates to a
    // straight run-scan; several (a cyclic deepest level — the triangle's
    // z) make this a galloping intersection instead of a full re-seek
    // through AdvanceToMatch per output tuple.
    const Participant& p0 = parts[0];
    const SortedIndex& idx0 = *atoms()[p0.atom].index;
    const RowRange parent0 = range_stack_[p0.atom][p0.depth];
    const size_t pos0 = range_stack_[p0.atom][p0.depth + 1].end;
    if (pos0 >= parent0.end) return emitted;
    seek_pos_[0] = pos0;
    Value v = idx0.ValueAt(p0.trie_level, pos0);
    for (size_t j = 1; j < k; ++j)
      seek_pos_[j] = range_stack_[parts[j].atom][parts[j].depth + 1].end;

    size_t agreed = 1;
    size_t i = k > 1 ? 1 : 0;
    while (agreed < k) {
      const Participant& p = parts[i];
      const SortedIndex& idx = *atoms()[p.atom].index;
      const RowRange parent = range_stack_[p.atom][p.depth];
      const size_t pos = idx.SeekGE(parent, p.trie_level, v, seek_pos_[i]);
      if (pos >= parent.end) return emitted;
      seek_pos_[i] = pos;
      const Value got = idx.ValueAt(p.trie_level, pos);
      if (got > v) {
        v = got;
        agreed = 1;
      } else {
        ++agreed;
      }
      i = (i + 1) % k;
    }
    if (c.kind == FBoxDim::kRange && v > c.hi) return emitted;
    ops::Bump();

    for (size_t j = 0; j < k; ++j) {
      const Participant& p = parts[j];
      const SortedIndex& idx = *atoms()[p.atom].index;
      const RowRange parent = range_stack_[p.atom][p.depth];
      const size_t lo_pos = seek_pos_[j];
      range_stack_[p.atom][p.depth + 1] = {
          lo_pos, idx.RunEnd(parent, p.trie_level, lo_pos)};
    }
    Value* slot = out->AppendSlot();
    for (int l = 0; l < level; ++l) slot[l] = values_[l];
    slot[level] = v;
    values_[level] = v;
    ++emitted;
  }
  return emitted;
}

size_t JoinIterator::NextBatch(TupleBuffer* out, size_t max_tuples) {
  size_t emitted = 0;
  const bool scannable =
      num_levels_ > 0 && constraints_[num_levels_ - 1].kind != FBoxDim::kUnit;
  while (emitted < max_tuples) {
    if (!AdvanceToMatch()) break;
    out->Append(values_);
    ++emitted;
    if (scannable && emitted < max_tuples)
      emitted += ScanLastLevel(out, max_tuples - emitted);
  }
  return emitted;
}

BoxJoinEnumerator::BoxJoinEnumerator(std::vector<JoinAtomInput> atoms,
                                     int num_levels, std::vector<FBox> boxes)
    : atoms_(std::move(atoms)),
      num_levels_(num_levels),
      boxes_(std::move(boxes)) {
  active_ = AdvanceBox();
}

bool BoxJoinEnumerator::AdvanceBox() {
  while (box_idx_ < boxes_.size()) {
    const FBox& box = boxes_[box_idx_++];
    CQC_CHECK_EQ(box.mu(), num_levels_);
    constraints_.clear();
    for (int i = 0; i < num_levels_; ++i)
      constraints_.push_back(LevelConstraint::FromDim(box.dims[i]));
    if (!join_.has_value()) {
      join_.emplace(&atoms_, num_levels_, constraints_);
    } else {
      join_->Reset(constraints_);
    }
    return true;
  }
  return false;
}

bool BoxJoinEnumerator::Next(Tuple* out) {
  while (active_) {
    if (join_->Next(out)) return true;
    active_ = AdvanceBox();
  }
  return false;
}

size_t BoxJoinEnumerator::NextBatch(TupleBuffer* out, size_t max_tuples) {
  size_t emitted = 0;
  while (active_ && emitted < max_tuples) {
    emitted += join_->NextBatch(out, max_tuples - emitted);
    if (emitted == max_tuples) break;  // the box may still have more
    active_ = AdvanceBox();
  }
  return emitted;
}

}  // namespace cqc
