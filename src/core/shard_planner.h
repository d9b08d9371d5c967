// ShardPlanner: carve the output space into balanced disjoint lex ranges.
//
// The delay-balanced tree is a ready-made partition hierarchy over the
// free-variable grid: every split point beta(w) was chosen by Algorithm 1 so
// the two child intervals carry at most half the parent's evaluation cost
// T(I). The planner reuses exactly those boundaries — no data is touched —
// by expanding the tree frontier until it has several segments per requested
// shard, then greedily grouping consecutive segments into K contiguous
// ranges of approximately equal weight.
//
// Segment weight = the build-time cost annotation T(I(w)) (the paper's
// upper bound on the work to enumerate the subtree) plus the node's heavy
// dictionary entry count (a density signal: many heavy pairs mean many
// non-empty outputs below the node). Both are O(1) reads from the flat tree
// / CSR columns, so planning costs O(segments * log-ish) independent of the
// data size.
//
// The shards partition [domain.Min, domain.Max]: disjoint, lex-ordered, and
// jointly exhaustive, so ordered concatenation of the per-shard streams
// reproduces the sequential enumeration exactly, and unordered draining
// yields the same multiset (the ParallelEnumerator exposes both).
//
// Thread-count heuristics: callers usually want num_shards to be a small
// multiple of the worker count (kShardsPerThread) so idle workers taking
// the next queued shard rebalance the inevitable estimation error; a shard
// count far above that only adds per-shard enumerator setup cost.
#ifndef CQC_CORE_SHARD_PLANNER_H_
#define CQC_CORE_SHARD_PLANNER_H_

#include <vector>

#include "core/compressed_rep.h"
#include "core/dbtree.h"
#include "core/dictionary.h"
#include "core/finterval.h"
#include "core/lex_domain.h"

namespace cqc {

/// How many shards to plan per worker thread: enough slack for the pool's
/// queue to even out weight-estimate error, few enough that per-shard setup
/// stays negligible.
inline constexpr size_t kShardsPerThread = 4;

struct ShardPlan {
  /// Disjoint closed lex ranges in ascending order, covering the full grid.
  /// Empty when the representation has no free dimension or no tuples.
  std::vector<FInterval> shards;
  /// Estimated relative enumeration cost per shard (same indexing).
  std::vector<double> weights;

  size_t size() const { return shards.size(); }
};

class ShardPlanner {
 public:
  /// Plans at most `max_shards` ranges for the representation's free grid.
  /// Returns fewer shards when the tree has too few split points to cut
  /// further (correctness never depends on reaching max_shards).
  static ShardPlan Plan(const CompressedRep& rep, size_t max_shards);

  /// Lower-level entry point over the raw structures (`dict` may be null).
  static ShardPlan Plan(const DelayBalancedTree& tree, const LexDomain& domain,
                        const HeavyDictionary* dict, size_t max_shards);
};

}  // namespace cqc

#endif  // CQC_CORE_SHARD_PLANNER_H_
