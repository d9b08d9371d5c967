#include "core/dictionary.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include "exec/par_util.h"
#include "join/generic_join.h"
#include "util/logging.h"

namespace cqc {

HeavyDictionary::Bit HeavyDictionary::Lookup(int node, uint32_t vb_id) const {
  if (vb_id == kNoValuation) return Bit::kAbsent;
  if (node < 0 || (size_t)node + 1 >= node_offsets_.size())
    return Bit::kAbsent;
  const uint32_t* begin = entry_vb_.data() + node_offsets_[node];
  const uint32_t* end = entry_vb_.data() + node_offsets_[node + 1];
  const uint32_t* it = std::lower_bound(begin, end, vb_id);
  if (it == end || *it != vb_id) return Bit::kAbsent;
  return entry_bit_[it - entry_vb_.data()] ? Bit::kOne : Bit::kZero;
}

size_t HeavyDictionary::LookupEntryIndex(int node, uint32_t vb_id) const {
  if (vb_id == kNoValuation) return kNoEntry;
  if (node < 0 || (size_t)node + 1 >= node_offsets_.size()) return kNoEntry;
  const uint32_t* begin = entry_vb_.data() + node_offsets_[node];
  const uint32_t* end = entry_vb_.data() + node_offsets_[node + 1];
  const uint32_t* it = std::lower_bound(begin, end, vb_id);
  if (it == end || *it != vb_id) return kNoEntry;
  return (size_t)(it - entry_vb_.data());
}

void HeavyDictionary::AttachAggregates(ColStore<uint64_t> counts,
                                       ColStore<Value> vals, int mu) {
  CQC_CHECK_EQ(counts.size(), entry_vb_.size());
  CQC_CHECK_EQ(vals.size(), entry_vb_.size() * (size_t)(3 * mu));
  agg_mu_ = mu;
  entry_agg_count_ = std::move(counts);
  entry_agg_vals_ = std::move(vals);
}

uint32_t HeavyDictionary::FindValuation(TupleSpan vb) const {
  if (num_candidates_ == 0 || (int)vb.size() != vb_arity_)
    return kNoValuation;
  // Loaded dictionaries defer the id table to the first probe (the pool can
  // hold millions of candidates the caller may never look up); call_once
  // makes concurrent first probes safe. Built dictionaries pay only the
  // null test.
  if (deferred_slots_)
    std::call_once(*deferred_slots_, [this] { BuildIdSlots(); });
  const size_t mask = id_slots_.size() - 1;
  size_t slot = SpanHash()(vb) & mask;
  for (;;) {
    const uint32_t id = id_slots_[slot];
    if (id == kNoValuation) return kNoValuation;
    const bool eq =
        sealed_ ? packed_pool_.RowEquals(id, vb) : candidate(id) == vb;
    if (eq) return id;
    slot = (slot + 1) & mask;
  }
}

uint64_t HeavyDictionary::CandidateHash(uint32_t id) const {
  if (vb_arity_ == 0) return SpanHash()(TupleSpan());
  if (!candidate_pool_.empty())
    return SpanHash()(TupleSpan(
        candidate_pool_.data() + (size_t)id * vb_arity_, (size_t)vb_arity_));
  Value buf[kMaxVars];
  packed_pool_.UnpackRow(id, buf);
  return SpanHash()(TupleSpan(buf, (size_t)vb_arity_));
}

void HeavyDictionary::Seal() {
  if (sealed_) return;
  packed_pool_ = PackedTuplePool::Pack(candidate_pool_, vb_arity_,
                                       num_candidates_);
  candidate_pool_.clear();
  candidate_pool_.shrink_to_fit();
  sealed_ = true;
}

uint32_t HeavyDictionary::AddCandidate(TupleSpan vb) {
  CQC_DCHECK(!sealed_) << "AddCandidate on a sealed dictionary";
  CQC_CHECK_EQ((int)vb.size(), vb_arity_);
  const uint32_t id = (uint32_t)num_candidates_++;
  candidate_pool_.insert(candidate_pool_.end(), vb.begin(), vb.end());
  // Grow at 50% load (amortized); otherwise insert in place.
  if (id_slots_.empty() || 2 * num_candidates_ > id_slots_.size()) {
    RehashCandidates();
  } else {
    const size_t mask = id_slots_.size() - 1;
    size_t slot = SpanHash()(vb) & mask;
    while (id_slots_[slot] != kNoValuation) slot = (slot + 1) & mask;
    id_slots_[slot] = id;
  }
  return id;
}

void HeavyDictionary::RehashCandidates() {
  CQC_DCHECK(!sealed_) << "RehashCandidates on a sealed dictionary";
  BuildIdSlots();
}

void HeavyDictionary::BuildIdSlots() const {
  size_t cap = 16;
  while (cap < 4 * num_candidates_) cap <<= 1;
  id_slots_.assign(cap, kNoValuation);
  const size_t mask = cap - 1;
  if (candidate_pool_.empty() && vb_arity_ > 0 && num_candidates_ > 0) {
    // Packed-pool path (FromPacked / deferred): every hash decodes from
    // the packed pool.
    // Batch-decode blocks through the SIMD kernel instead of splicing one
    // row per id.
    constexpr size_t kBlock = 64;
    std::vector<Value> buf(kBlock * (size_t)vb_arity_);
    for (uint32_t base = 0; base < num_candidates_; base += kBlock) {
      const size_t n =
          std::min((size_t)kBlock, (size_t)(num_candidates_ - base));
      packed_pool_.UnpackRows(base, n, buf.data());
      for (size_t j = 0; j < n; ++j) {
        const TupleSpan vb(buf.data() + j * vb_arity_, (size_t)vb_arity_);
        size_t slot = SpanHash()(vb) & mask;
        while (id_slots_[slot] != kNoValuation) slot = (slot + 1) & mask;
        id_slots_[slot] = base + (uint32_t)j;
      }
    }
    return;
  }
  for (uint32_t id = 0; id < num_candidates_; ++id) {
    size_t slot = CandidateHash(id) & mask;
    while (id_slots_[slot] != kNoValuation) slot = (slot + 1) & mask;
    id_slots_[slot] = id;
  }
}

void HeavyDictionary::SetBit(int node, uint32_t vb_id, bool bit) {
  CQC_CHECK_GE(node, 0);
  CQC_CHECK_LT((size_t)node + 1, node_offsets_.size());
  CQC_CHECK(!entry_bit_.borrowed())
      << "SetBit on a loaded (borrowed) dictionary";
  const uint32_t* begin = entry_vb_.data() + node_offsets_[node];
  const uint32_t* end = entry_vb_.data() + node_offsets_[node + 1];
  const uint32_t* it = std::lower_bound(begin, end, vb_id);
  CQC_CHECK(it != end && *it == vb_id) << "SetBit on absent dictionary entry";
  entry_bit_.mutable_data()[it - entry_vb_.data()] = bit ? 1 : 0;
}

size_t HeavyDictionary::MemoryBytes() const {
  // Borrowed (mapped) columns charge their logical extent — see the
  // matching note in PackedTuplePool::MemoryBytes.
  const auto col = [](const auto& c) {
    return c.borrowed() ? c.ByteSize() : c.MemoryBytes();
  };
  return sizeof(*this) + candidate_pool_.capacity() * sizeof(Value) +
         packed_pool_.MemoryBytes() +
         id_slots_.capacity() * sizeof(uint32_t) + col(node_offsets_) +
         col(entry_vb_) + col(entry_bit_) + col(entry_agg_count_) +
         col(entry_agg_vals_);
}

HeavyDictionary HeavyDictionary::FromFlat(int vb_arity,
                                          std::vector<Value> candidate_pool,
                                          std::vector<uint32_t> node_offsets,
                                          std::vector<uint32_t> entry_vb,
                                          std::vector<uint8_t> entry_bit) {
  HeavyDictionary d;
  d.vb_arity_ = vb_arity;
  if (vb_arity > 0) {
    CQC_CHECK_EQ(candidate_pool.size() % (size_t)vb_arity, 0u);
    d.num_candidates_ = candidate_pool.size() / vb_arity;
  } else {
    // Arity-0 pools cannot encode their count: a dictionary that was built
    // for an all-free view interns exactly the one empty valuation, while a
    // never-built dictionary (no offsets) has none.
    d.num_candidates_ = node_offsets.empty() ? 0 : 1;
  }
  CQC_CHECK_EQ(entry_vb.size(), entry_bit.size());
  if (!node_offsets.empty()) {
    CQC_CHECK_EQ((size_t)node_offsets.back(), entry_vb.size());
  } else {
    CQC_CHECK(entry_vb.empty());
  }
  d.candidate_pool_ = std::move(candidate_pool);
  d.node_offsets_ = std::move(node_offsets);
  d.entry_vb_ = std::move(entry_vb);
  d.entry_bit_ = std::move(entry_bit);
  d.RehashCandidates();
  d.Seal();
  return d;
}

HeavyDictionary HeavyDictionary::FromPacked(
    int vb_arity, size_t num_candidates, PackedTuplePool pool,
    ColStore<uint32_t> node_offsets, ColStore<uint32_t> entry_vb,
    ColStore<uint8_t> entry_bit) {
  CQC_CHECK_EQ(pool.arity(), vb_arity);
  if (vb_arity > 0) CQC_CHECK_EQ(pool.size(), num_candidates);
  CQC_CHECK_EQ(entry_vb.size(), entry_bit.size());
  if (!node_offsets.empty()) {
    CQC_CHECK_EQ((size_t)node_offsets.back(), entry_vb.size());
  } else {
    CQC_CHECK(entry_vb.empty());
  }
  HeavyDictionary d;
  d.vb_arity_ = vb_arity;
  d.num_candidates_ = num_candidates;
  d.packed_pool_ = std::move(pool);
  d.node_offsets_ = std::move(node_offsets);
  d.entry_vb_ = std::move(entry_vb);
  d.entry_bit_ = std::move(entry_bit);
  d.sealed_ = true;  // already packed: skip Seal()'s repack
  if (d.borrowed()) {
    // Loaded from a file: defer the O(candidates) id table build to the
    // first FindValuation so opening the file stays O(header).
    d.deferred_slots_ = std::make_unique<std::once_flag>();
  } else {
    d.BuildIdSlots();  // hashes decode from the packed pool (raw is empty)
  }
  return d;
}

DictionaryBuilder::DictionaryBuilder(const std::vector<BoundAtom>* atoms,
                                     const CostModel* cost,
                                     const DelayBalancedTree* tree,
                                     const LexDomain* domain, int num_bound,
                                     double tau, double alpha)
    : atoms_(atoms),
      cost_(cost),
      tree_(tree),
      domain_(domain),
      num_bound_(num_bound),
      tau_(tau),
      alpha_(alpha) {}

void DictionaryBuilder::CollectCandidates(HeavyDictionary* dict) {
  dict->vb_arity_ = num_bound_;
  if (num_bound_ == 0) {
    // A single empty valuation: the full-enumeration / no-bound case.
    dict->AddCandidate(TupleSpan());
    return;
  }
  // Join the bound projections of every atom that touches a bound variable.
  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : *atoms_) {
    if (atom.num_bound() == 0) continue;
    JoinAtomInput in;
    in.index = &atom.bf_index();
    in.start = atom.bf_index().Root();
    in.start_level = 0;
    for (int i = 0; i < atom.num_bound(); ++i)
      in.levels.emplace_back(atom.bound_positions()[i], i);
    inputs.push_back(std::move(in));
  }
  CQC_CHECK(!inputs.empty()) << "bound variables appear in no atom";
  std::vector<LevelConstraint> constraints(num_bound_,
                                           LevelConstraint::Any());
  JoinIterator join(std::move(inputs), num_bound_, std::move(constraints));
  Tuple vb;
  while (join.Next(&vb)) dict->AddCandidate(vb);
}

bool DictionaryBuilder::ProbeNonEmpty(TupleSpan vb,
                                      const std::vector<FBox>& boxes) const {
  const int mu = domain_->mu();
  // The atom inputs depend only on vb; the boxes just change constraints,
  // so one JoinIterator serves every box via Reset().
  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : *atoms_) {
    JoinAtomInput in;
    in.index = &atom.bf_index();
    in.start = atom.SeekBound(vb);
    if (in.start.empty()) return false;  // no tuple under vb at all
    in.start_level = atom.num_bound();
    for (int i = 0; i < atom.num_free(); ++i)
      in.levels.emplace_back(atom.free_positions()[i], atom.num_bound() + i);
    inputs.push_back(std::move(in));
  }
  std::optional<JoinIterator> join;
  std::vector<LevelConstraint> constraints;
  Tuple out;
  for (const FBox& box : boxes) {
    constraints.clear();
    for (int i = 0; i < mu; ++i)
      constraints.push_back(LevelConstraint::FromDim(box.dims[i]));
    if (!join.has_value()) {
      join.emplace(&inputs, mu, constraints);
    } else {
      join->Reset(constraints);
    }
    if (join->Next(&out)) return true;
  }
  return false;
}

// Sweeps one node: replaces its heavy entries and returns (via `live`) the
// candidate ids that propagate to the children. Reads the dictionary's raw
// candidate pool and the shared read-only inputs only, and writes only
// staging[node] — safe to run concurrently for distinct nodes, and a
// re-run of a subtree overwrites what an interrupted run left behind.
void DictionaryBuilder::ProcessOne(const HeavyDictionary& dict,
                                   std::vector<Entry>* entries, int node,
                                   const std::vector<FBox>& boxes,
                                   const std::vector<uint32_t>& cand,
                                   std::vector<uint32_t>* live) const {
  const double threshold =
      DelayBalancedTree::Threshold(tau_, alpha_, tree_->level(node));
  entries->clear();
  for (uint32_t id : cand) {
    const TupleSpan vb = dict.candidate(id);
    const double t = cost_->BoxesCostBound(vb, boxes);
    if (t <= threshold) continue;  // light: no entry
    const bool nonempty = ProbeNonEmpty(vb, boxes);
    entries->push_back({id, (uint8_t)(nonempty ? 1 : 0)});
    if (nonempty) live->push_back(id);
  }
  // `cand` is sorted; filtering preserves order, so entries stay sorted.
}

void DictionaryBuilder::ProcessNode(HeavyDictionary* dict,
                                    std::vector<std::vector<Entry>>* staging,
                                    int node, const FInterval& interval,
                                    const std::vector<uint32_t>& cand) {
  const std::vector<FBox> boxes = BoxDecompose(interval);
  std::vector<uint32_t> live;  // heavy with bit 1: propagate to children
  ProcessOne(*dict, &(*staging)[node], node, boxes, cand, &live);

  if (live.empty() || tree_->leaf(node)) return;
  const TupleSpan beta = tree_->beta(node);
  FInterval child;
  if (tree_->left(node) >= 0) {
    CQC_CHECK(
        DelayBalancedTree::LeftInterval(interval, beta, *domain_, &child));
    ProcessNode(dict, staging, tree_->left(node), child, live);
  }
  if (tree_->right(node) >= 0) {
    CQC_CHECK(
        DelayBalancedTree::RightInterval(interval, beta, *domain_, &child));
    ProcessNode(dict, staging, tree_->right(node), child, live);
  }
}

HeavyDictionary DictionaryBuilder::Build() {
  HeavyDictionary dict;
  CollectCandidates(&dict);
  const size_t num_nodes = tree_->size();
  if (tree_->empty() || domain_->mu() == 0) {
    dict.node_offsets_.assign(num_nodes + 1, 0);
    dict.Seal();
    return dict;
  }

  std::vector<std::vector<Entry>> staging(num_nodes);
  std::vector<uint32_t> all((size_t)dict.NumCandidates());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  FInterval root{domain_->MinTuple(), domain_->MaxTuple()};

  // Per-subtree parallelism: expand a work frontier breadth-first on the
  // caller thread (child candidate sets depend on the parent sweep, so the
  // prefix is inherently sequential), then sweep each remaining subtree as
  // one task. Subtrees write disjoint staging slots and read the shared
  // structures only. Where the fan-out would run serially anyway, the
  // frontier is just the root.
  struct SubtreeTask {
    int node;
    FInterval interval;
    std::vector<uint32_t> cand;
  };
  std::deque<SubtreeTask> frontier;
  frontier.push_back({tree_->root(), root, std::move(all)});
  const size_t target =
      par::SerialOnly() ? 1 : 4 * (size_t)par::BuildThreads();
  while (!frontier.empty() && frontier.size() < target) {
    SubtreeTask t = std::move(frontier.front());
    frontier.pop_front();
    const std::vector<FBox> boxes = BoxDecompose(t.interval);
    std::vector<uint32_t> live;
    ProcessOne(dict, &staging[t.node], t.node, boxes, t.cand, &live);
    if (live.empty() || tree_->leaf(t.node)) continue;
    const TupleSpan beta = tree_->beta(t.node);
    FInterval child;
    if (tree_->left(t.node) >= 0) {
      CQC_CHECK(DelayBalancedTree::LeftInterval(t.interval, beta, *domain_,
                                                &child));
      frontier.push_back({tree_->left(t.node), child, live});
    }
    if (tree_->right(t.node) >= 0) {
      CQC_CHECK(DelayBalancedTree::RightInterval(t.interval, beta, *domain_,
                                                 &child));
      frontier.push_back({tree_->right(t.node), child, std::move(live)});
    }
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(frontier.size());
  for (SubtreeTask& t : frontier)
    tasks.push_back([this, &dict, &staging, t = std::move(t)] {
      ProcessNode(&dict, &staging, t.node, t.interval, t.cand);
    });
  par::RunTasks(std::move(tasks));

  // Flatten the per-node staging vectors into the CSR columns.
  size_t total = 0;
  for (const auto& e : staging) total += e.size();
  dict.node_offsets_.resize(num_nodes + 1);
  dict.entry_vb_.reserve(total);
  dict.entry_bit_.reserve(total);
  uint32_t* offsets = dict.node_offsets_.mutable_data();
  for (size_t n = 0; n < num_nodes; ++n) {
    offsets[n] = (uint32_t)dict.entry_vb_.size();
    for (const Entry& e : staging[n]) {
      dict.entry_vb_.push_back(e.vb);
      dict.entry_bit_.push_back(e.bit);
    }
  }
  offsets[num_nodes] = (uint32_t)dict.entry_vb_.size();
  dict.Seal();
  return dict;
}

}  // namespace cqc
