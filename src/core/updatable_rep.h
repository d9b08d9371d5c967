// UpdatableRep: insert+delete maintenance of a compressed representation —
// the paper's §8 open problem "whether our data structures can be modified
// to support efficient updates of the base tables", grown from the
// insert-only first stage into a full signed-delta design (see
// docs/update-semantics.md for the formal account).
//
// Design: the structure owns a sealed *snapshot* (base data + the
// Theorem-1 structure over it) plus a per-relation *pending delta*: net
// inserts (+1) and tombstones (-1), canonicalized against base membership
// so the pending map is exactly the symmetric difference between the
// current data and the snapshot. Answers combine
//
//   (1) the Theorem-1 enumeration over the snapshot (lexicographic),
//       *filtered* against tombstones: a full natural-join answer has a
//       unique derivation (one base tuple per atom, determined by
//       projection), so a snapshot answer survives iff every atom's
//       projection is still present in the current data — one O(1)
//       expected hash probe per atom (relational/hash_index.h); and
//   (2) the signed delta-join expansion over the pending inserts:
//         Q(D') \ Q(D) = union_i  join(M_1, .., M_{i-1}, dR_i+, M_{i+1},
//                                      .., M_n)
//       where D' is the current data, M_j = the current ("merged")
//       relation and dR_i+ the net-inserted tuples of atom i — every
//       answer using at least one inserted tuple is produced; answers
//       already derivable from the snapshot are skipped (base-membership
//       probes) and a hash set dedups across terms. Deletions never
//       create answers, so they enter only through the merged relations
//       and the tombstone filter of (1).
//
// Delta answering costs O~(|dD| * join work) per request, so once the
// pending mass (inserts + tombstones) grows past
// `rebuild_fraction * |D|` the delta is folded and the Theorem-1
// structure rebuilt (amortized O~(build / fraction) per update). The
// combined enumeration is *not* globally lexicographic: surviving
// snapshot answers stream in lex order first, then the delta-derived
// answers (documented contract; see docs/update-semantics.md).
//
// Concurrency: the whole queryable state is published as one immutable
// `State` behind an epoch-style pointer swap. Readers grab the current
// state (a shared_ptr copy) and enumerate it for as long as they like;
// writers build a new state and publish it; Rebuild() captures a state,
// builds the new snapshot *without holding the writer lock*, then rebases
// any ops applied meanwhile and publishes. Readers therefore never block
// on updates or rebuilds and never observe a torn structure. Concurrent
// Insert/Delete/Apply calls are serialized internally.
#ifndef CQC_CORE_UPDATABLE_REP_H_
#define CQC_CORE_UPDATABLE_REP_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/compressed_rep.h"
#include "query/adorned_view.h"
#include "relational/database.h"
#include "util/status.h"

namespace cqc {

/// One base-table mutation. Batches of these flow through the whole update
/// pipeline: UpdatableRep::Apply, AnswerRep::ApplyDelta, RepCache::
/// ApplyDelta, and the cqc_cli --mutate script mode.
struct UpdateOp {
  enum Kind : uint8_t { kInsert, kDelete };
  Kind kind = kInsert;
  std::string relation;
  Tuple tuple;

  static UpdateOp Insert(std::string relation, Tuple tuple) {
    return {kInsert, std::move(relation), std::move(tuple)};
  }
  static UpdateOp Delete(std::string relation, Tuple tuple) {
    return {kDelete, std::move(relation), std::move(tuple)};
  }
};
using UpdateBatch = std::vector<UpdateOp>;

struct UpdatableRepOptions {
  CompressedRepOptions rep;
  /// Rebuild when the pending mass (net inserts + tombstones) exceeds this
  /// fraction of the snapshot size (set to infinity to never rebuild
  /// automatically).
  double rebuild_fraction = 0.25;
  /// Fold the delta synchronously inside Apply/Insert/Delete when the
  /// threshold is crossed. Serving layers that amortize rebuilds on a
  /// background pool (plan/rep_cache.h) set this false and drive
  /// Rebuild(/*only_if_needed=*/true) themselves.
  bool auto_rebuild = true;
};

class UpdatableRep {
 public:
  /// Snapshots `db` (copies the referenced relations). The view must be a
  /// natural join (run NormalizeView first if needed).
  static Result<std::unique_ptr<UpdatableRep>> Build(
      const AdornedView& view, const Database& db,
      const UpdatableRepOptions& options, const Database* aux_db = nullptr);

  /// Applies a batch of mutations in order (last op per tuple wins).
  /// Duplicate inserts and deletes of absent tuples are no-ops. Thread-safe
  /// against concurrent Apply/Rebuild and concurrent readers.
  Status Apply(const UpdateBatch& batch);

  /// Single-op conveniences.
  Status Insert(const std::string& relation, const Tuple& t);
  Status Delete(const std::string& relation, const Tuple& t);

  /// Answers over the *current* data (snapshot + pending delta). The
  /// enumerator owns the state it reads: it stays valid across concurrent
  /// updates and rebuilds.
  std::unique_ptr<TupleEnumerator> Answer(const BoundValuation& vb) const;
  bool AnswerExists(const BoundValuation& vb) const;

  /// Grouped ring aggregate over the current data. A clean epoch (no
  /// pending ops) delegates to the snapshot structure — pushed-annotation
  /// speed when the snapshot was built with build_aggregates (a Rebuild
  /// folds the delta and re-derives the annotations as part of the epoch
  /// publish). An epoch with pending ops folds the combined
  /// tombstone-filtered + delta-join stream, so the answer always reflects
  /// every applied +1/-1.
  AggregateResult AnswerAggregate(const BoundValuation& vb,
                                  const std::vector<int>& group_vars,
                                  const AggSpec& spec) const;

  /// Folds the pending delta into the snapshot and rebuilds the Theorem-1
  /// structure. The expensive build runs without blocking writers; ops
  /// applied concurrently are rebased onto the new snapshot. With
  /// `only_if_needed`, returns immediately unless NeedsRebuild() (the
  /// coalescing check for background rebuild tasks).
  Status Rebuild(bool only_if_needed = false);

  /// Pending mass exceeded options_.rebuild_fraction * snapshot size?
  bool NeedsRebuild() const;

  size_t pending_inserts() const;
  size_t pending_deletes() const;
  size_t snapshot_tuples() const;
  /// The current snapshot carries aggregate annotations (one epoch load:
  /// safe against a concurrent rebuild, unlike rep().has_aggregates()).
  bool has_aggregates() const;
  int num_rebuilds() const { return num_rebuilds_; }
  double build_seconds() const;
  /// Snapshot structure + base copy + pending delta footprint.
  size_t SpaceBytes() const;

  /// One consistent reading of the serving state (a single epoch load —
  /// safe against concurrent updates and rebuilds, unlike rep()).
  struct Info {
    double tau = 0;
    size_t snapshot_tuples = 0;
    size_t pending_inserts = 0;
    size_t pending_deletes = 0;
    int num_rebuilds = 0;
    size_t space_bytes = 0;
  };
  Info GetInfo() const;

  /// Current snapshot structure / base data. Unsynchronized conveniences
  /// for stats, tests, and single-threaded callers: the references are
  /// invalidated by a concurrent Rebuild (concurrent *updates* are fine).
  const CompressedRep& rep() const;
  const Database& snapshot_base() const;
  const AdornedView& view() const { return view_; }

 private:
  /// The immutable snapshot: a sealed copy of the base data plus the
  /// Theorem-1 structure over it. Replaced wholesale by Rebuild. The base
  /// is shared (a fold adopts the previous epoch's merged database instead
  /// of copying it again).
  struct Snapshot {
    std::shared_ptr<const Database> base;
    std::unique_ptr<CompressedRep> rep;
  };

  /// Net pending ops per relation: +1 = tuple inserted (absent from the
  /// snapshot), -1 = tombstone (present in the snapshot). Canonical: a
  /// tuple appears iff its current membership differs from the snapshot's.
  /// Per-relation maps are immutable and shared across epochs; Apply
  /// copies only the relations a batch touches.
  using RelationPending = std::map<Tuple, int8_t>;
  using PendingMap =
      std::map<std::string, std::shared_ptr<const RelationPending>>;

  /// One immutable published epoch: snapshot + pending delta. The derived
  /// databases are built lazily at most once (thread-safe) on first answer.
  struct State {
    std::shared_ptr<const Snapshot> snapshot;
    PendingMap pending;
    size_t num_inserts = 0;
    size_t num_deletes = 0;

    // Lazily derived from (snapshot, pending); immutable once built.
    mutable std::once_flag derived_once;
    mutable std::unique_ptr<Database> inserts_db;  // net-inserted tuples
    mutable std::shared_ptr<const Database> current_db;  // base -/+ delta
    mutable bool has_tombstones = false;

    bool HasPending() const { return num_inserts + num_deletes > 0; }
    /// Builds inserts_db / current_db (idempotent, thread-safe).
    void EnsureDerived() const;
  };

  explicit UpdatableRep(AdornedView view) : view_(std::move(view)) {}

  std::shared_ptr<const State> Load() const;
  void Publish(std::shared_ptr<const State> next);
  /// Footprint of one epoch: snapshot structure + base copy + pending
  /// delta (the single source for SpaceBytes() and Info::space_bytes).
  static size_t StateSpaceBytes(const State& st);
  static std::shared_ptr<const Snapshot> BuildSnapshot(
      const AdornedView& view, std::shared_ptr<const Database> source,
      const CompressedRepOptions& options, Status* status);

  class CombinedEnumerator;
  class TombstoneFilterEnumerator;

  AdornedView view_;
  UpdatableRepOptions options_;

  mutable std::mutex state_mu_;   // guards the state_ pointer swap only
  std::shared_ptr<const State> state_;
  std::mutex writer_mu_;          // serializes Apply bookkeeping + publish
  std::mutex rebuild_mu_;         // one rebuild at a time
  std::atomic<int> num_rebuilds_{0};
};

}  // namespace cqc

#endif  // CQC_CORE_UPDATABLE_REP_H_
