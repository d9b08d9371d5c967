// CompressedRep: the Theorem 1 data structure.
//
// Given a full adorned view Q^eta over a natural join query, a fractional
// edge cover u of the variables, and a threshold parameter tau, Build()
// constructs:
//   * two sorted-trie indexes per atom (linear space),
//   * the delay-balanced tree over the free-variable domain (§4.3),
//   * the heavy-pair dictionary (Appendix A),
// achieving (Theorem 1)
//   compression time  T_C = O~(|D| + prod |R_F|^{u_F})
//   space             S   = O~(|D| + prod |R_F|^{u_F} / tau^{alpha(V_f)})
//   delay             O~(tau), lexicographic order, no duplicates
//   answer time       T_A = O~(|q(D)| + tau |q(D)|^{1/alpha}).
//
// Answer(v_b) returns a pull-based enumerator implementing Algorithm 2: an
// in-order traversal of the delay-balanced tree that evaluates light
// intervals with a worst-case-optimal join, skips empty heavy intervals via
// the dictionary, and probes the split point between the two children.
#ifndef CQC_CORE_COMPRESSED_REP_H_
#define CQC_CORE_COMPRESSED_REP_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/aggregate.h"
#include "core/cost_model.h"
#include "core/cursor.h"
#include "core/dbtree.h"
#include "core/dictionary.h"
#include "core/enumerator.h"
#include "core/lex_domain.h"
#include "core/rep_file.h"
#include "join/bound_atom.h"
#include "query/adorned_view.h"
#include "relational/database.h"
#include "util/status.h"

namespace cqc {

struct CompressedRepOptions {
  /// The tradeoff knob: delay O~(tau), space O~(AGM / tau^alpha).
  double tau = 1.0;
  /// Fractional edge cover (aligned with atoms). When absent, the library
  /// picks a minimum-rho* cover and then maximizes the slack on the free
  /// variables at that total weight.
  std::optional<std::vector<double>> cover;
  /// Safety valve for the delay-balanced tree size.
  size_t max_tree_nodes = 1u << 27;
  /// Build the per-subtree aggregate annotations (ring cells on tree nodes
  /// for num_bound == 0, on dictionary CSR entries otherwise) so
  /// AnswerAggregate answers prefix group-bys by interval arithmetic
  /// instead of enumeration. Costs one extra enumeration pass per bound
  /// candidate at build time plus O(nodes + entries) * 3 * mu words of
  /// space — off by default; the Planner turns it on for aggregate
  /// workloads.
  bool build_aggregates = false;
};

struct CompressedRepStats {
  double build_seconds = 0;
  std::vector<double> cover;
  double alpha = 1;          // slack of the cover on V_f
  double rho = 0;            // total cover weight
  double root_cost = 0;      // T(root interval)
  size_t tree_nodes = 0;
  int tree_depth = 0;
  size_t dict_entries = 0;
  size_t num_candidates = 0;
  size_t tree_bytes = 0;
  size_t dict_bytes = 0;
  size_t index_bytes = 0;       // sorted tries over the base relations
  size_t hash_index_bytes = 0;  // hash probe plans over the base relations
  size_t agg_bytes = 0;         // aggregate annotation columns (if built)
  // Bytes of tree_bytes/dict_bytes borrowed from the backing RepFile
  // rather than owned (loaded reps only). These count toward TotalBytes
  // (the logical footprint) but their *physical* cost is whatever the
  // backing file has resident — see CompressedRep::ResidentBytes().
  size_t mapped_bytes = 0;

  /// The structure's own footprint (tree + dictionary); the paper's S minus
  /// the always-linear index/input component.
  size_t AuxBytes() const { return tree_bytes + dict_bytes; }
  size_t TotalBytes() const { return AuxBytes() + index_bytes; }
};

class CompressedRep {
 public:
  /// `view` must be a natural-join full CQ (run NormalizeView first if
  /// needed); relations resolve against `aux_db` first, then `db`. Both
  /// databases must outlive the returned object.
  static Result<std::unique_ptr<CompressedRep>> Build(
      const AdornedView& view, const Database& db,
      const CompressedRepOptions& options, const Database* aux_db = nullptr);

  CompressedRep(const CompressedRep&) = delete;
  CompressedRep& operator=(const CompressedRep&) = delete;

  /// Enumerates the access request Q^eta[v_b] in lexicographic order of the
  /// free variables. `vb` is aligned with view().bound_vars().
  std::unique_ptr<TupleEnumerator> Answer(const BoundValuation& vb) const;

  /// Range-restricted Algorithm 2: enumerates exactly the outputs of
  /// Answer(vb) that lie in the closed lex interval `range` (arity mu), in
  /// the same lexicographic order. The traversal clips every tree interval
  /// against the range, so work is proportional to the restricted output
  /// plus the O~(tau) delay — this is the shard primitive: the shards of a
  /// ShardPlan partition the domain, so draining them in order reproduces
  /// Answer(vb) tuple for tuple, and draining them concurrently partitions
  /// the work. Requires num_free() > 0.
  std::unique_ptr<TupleEnumerator> AnswerRange(const BoundValuation& vb,
                                               const FInterval& range) const;

  /// The full free-variable lex range [min, max] (empty tuples when the
  /// domain is empty or mu = 0): AnswerRange(vb, FullRange()) == Answer(vb).
  FInterval FullRange() const;

  /// Resumes a paused enumeration: returns the stream Answer(vb) (or the
  /// range-restricted stream the cursor was taken over) would have produced
  /// after the cursor position — O~(tau) to the first resumed tuple, via
  /// AnswerRange over [succ(cursor.last), cursor.range_hi]. Fails with a
  /// Status error if the cursor is malformed for this representation (wrong
  /// arity or off-grid last tuple), so untrusted cursor blobs cannot crash
  /// the server.
  Result<std::unique_ptr<TupleEnumerator>> Resume(
      const BoundValuation& vb, const EnumerationCursor& cursor) const;

  /// Convenience: is the access request non-empty? (boolean adorned views,
  /// k-SetDisjointness).
  bool AnswerExists(const BoundValuation& vb) const;

  /// Grouped ring aggregate over the access request's answers:
  /// COUNT/SUM/MIN/MAX of Answer(vb), grouped by the free variables in
  /// `group_vars` (strictly ascending indices). When the group set is a
  /// lex prefix and the annotations were built (has_aggregates()), the
  /// answer comes from interval arithmetic over the per-subtree ring cells
  /// — O(annotated nodes on the group boundary + light drains), O(1) for
  /// the full-group (empty group set) case — otherwise it falls back to
  /// draining the enumeration and folding. Both paths produce
  /// value-identical results.
  AggregateResult AnswerAggregate(const BoundValuation& vb,
                                  const std::vector<int>& group_vars,
                                  const AggSpec& spec) const;

  /// True when the aggregate annotations for this rep's shape are present
  /// (built with build_aggregates or loaded from a CQCREP05 file carrying
  /// the annotation blocks).
  bool has_aggregates() const {
    return view_.num_bound() > 0 ? dict_.has_aggregates()
                                 : tree_.has_aggregates();
  }

  const AdornedView& view() const { return view_; }
  const CompressedRepStats& stats() const { return stats_; }

  /// Physical memory charge right now: the owned component of TotalBytes()
  /// plus the resident bytes of the backing file, if any. For built reps
  /// this equals TotalBytes(); a read-mode load charges its whole heap
  /// buffer; a mapped load starts near zero and grows as queries touch
  /// pages.
  size_t ResidentBytes() const {
    const size_t total = stats_.TotalBytes();
    const size_t owned =
        total > stats_.mapped_bytes ? total - stats_.mapped_bytes : 0;
    return owned + (backing_ ? backing_->ResidentBytes() : 0);
  }

  /// The file backing borrowed columns (null for built reps).
  const std::shared_ptr<RepFile>& backing() const { return backing_; }
  const LexDomain& domain() const { return domain_; }
  const DelayBalancedTree& tree() const { return tree_; }
  const HeavyDictionary& dictionary() const { return dict_; }
  const std::vector<BoundAtom>& atoms() const { return atoms_; }
  double tau() const { return tau_; }

  /// The Theorem-2 fixup (Algorithm 4) flips dictionary bits in place.
  HeavyDictionary& mutable_dictionary() { return dict_; }

  /// Algorithm 4 (bag-local part): for every dictionary entry with bit 1,
  /// re-verify that some output in the node's interval satisfies
  /// live(v_b, v_f); flip the bit to 0 otherwise. After this, a 1-bit
  /// guarantees the subtree below the bag produces a full query result
  /// (Prop. 17).
  void FixupDictionary(
      const std::function<bool(const BoundValuation&, const Tuple&)>& live);

 private:
  CompressedRep(AdornedView view, std::vector<BoundAtom> atoms,
                LexDomain domain, std::vector<double> exponents, double tau,
                double alpha);

  /// Everything Build() does *before* constructing the tree/dictionary:
  /// validation, relation resolution, cover checking, atom binding, the
  /// free-variable grid. Shared with the deserialization path.
  static Result<std::unique_ptr<CompressedRep>> MakeSkeleton(
      const AdornedView& view, const Database& db,
      const std::vector<double>& cover, double tau, const Database* aux_db);

  /// The annotation pass (Olteanu–Závodný ring recurrence over the tree):
  /// one bottom-up walk per bound candidate, folding light subtrees by
  /// range enumeration; fills the tree columns (num_bound == 0) or the
  /// dictionary entry columns (num_bound > 0) and refreshes agg_bytes.
  void BuildAggregates();

  friend Status SaveCompressedRep(const CompressedRep&, const std::string&);
  // Loader internals (serialization.cc): validates the parsed blocks and
  // moves them into a skeleton rep.
  friend class RepSerde;

  class Alg2Enumerator;

  AdornedView view_;
  std::vector<BoundAtom> atoms_;
  LexDomain domain_;
  CostModel cost_;
  double tau_;
  double alpha_;
  DelayBalancedTree tree_;
  HeavyDictionary dict_;
  CompressedRepStats stats_;
  // Keeps the backing file alive for as long as any borrowed column can be
  // read (loaded reps only; null otherwise).
  std::shared_ptr<RepFile> backing_;
};

}  // namespace cqc

#endif  // CQC_CORE_COMPRESSED_REP_H_
