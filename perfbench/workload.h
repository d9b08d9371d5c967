// Workload inputs for the serving benchmark: the path3 database, the
// per-connection request sequences, and the answer oracle.
//
// Everything here is a pure function of the workload seed. The program
// under test only ever sees the generated tuples (loaded into a Database)
// and the wire requests; the oracle is computed by a nested-loop join over
// the benchmark's own adjacency lists, a structure the program does not
// share, so a fault in any cqc layer shows up as a mismatch.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/database.h"

namespace perfbench {

inline constexpr int kNodes = 400;
inline constexpr size_t kEdgesPerRelation = 14'000;
/// Mutable R2 tuples each path3_churn connection owns, alternately a base
/// edge (the first write deletes it) and an absent pair (the first write
/// inserts it). A run's writes stay within one pass over them, so the
/// pending delta grows until the cache folds it.
inline constexpr int kMutablePerConn = 2048;

enum class Kind { kFanout, kPoint, kChurn };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  const char* view;
  double space_budget_exponent;  // -1 = unlimited
  double churn_per_request;      // planner churn hint (0 = static)
  /// Share of requests that are R2 mutations (0 on the read-only
  /// workloads).
  double write_fraction;
};

/// The three workloads, or nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One request: a read carries the bound values; a write (path3_churn
/// only) toggles mutable tuple `slot` of its connection (insert when
/// absent, delete when present).
struct Op {
  bool write = false;
  uint16_t x = 0, w = 0;  // read: bound values (w unused on fanout)
  uint16_t slot = 0;      // write: see above
};

struct Edge {
  uint16_t a = 0, b = 0;
};

/// Dense adjacency over nodes 1..kNodes (0 unused).
struct Graph {
  std::vector<std::vector<uint16_t>> out;  // sorted successor lists
  std::vector<uint8_t> has;                // (kNodes+1)^2 membership
  bool Has(uint64_t a, uint64_t b) const {
    return a <= (uint64_t)kNodes && b <= (uint64_t)kNodes &&
           has[a * (kNodes + 1) + b] != 0;
  }
};

/// Count and order-independent checksum of one answer.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  bool operator==(const Digest& o) const {
    return count == o.count && sum == o.sum;
  }
};

/// Hash of one answer row; digests add these, so row order is irrelevant.
uint64_t RowHash(const uint64_t* row, int arity);

class Workload {
 public:
  Workload(const WorkloadSpec& spec, uint64_t seed, int connections);

  const WorkloadSpec& spec() const { return spec_; }
  const std::vector<Op>& sequence(int conn) const { return seqs_[conn]; }
  const std::vector<Edge>& mutable_tuples(int conn) const {
    return mutable_[conn];
  }
  /// True when mutable tuple `slot` of `conn` is in the base R2.
  bool StartsPresent(int conn, int slot) const;

  /// Fills `db` with R1, R2, R3 (the path relations).
  void Load(cqc::Database* db) const;

  /// Wire request body for a read.
  std::string ReadBody(const Op& op) const;
  /// The read's wire arity (free variables of the view).
  int arity() const { return spec_.kind == Kind::kFanout ? 3 : 2; }

  /// Expected digest of a read against the base data. On path3_churn this
  /// is the digest of the *stable* rows only: those that use no mutable
  /// R2 tuple, which every correct answer contains whatever the writes.
  Digest Expected(const Op& op) const;

  /// Checks one read answer (row-major values). Fanout and point compare
  /// the digest exactly. Churn checks that every row is a path through a
  /// base or mutable R2 tuple, that no mutable row repeats, and that the
  /// stable rows match Expected(op) exactly.
  bool Check(const Op& op, const std::vector<uint64_t>& values) const;

  /// Exact digest of a read over the mirrored database: the base data
  /// with each mutable tuple present or absent as `present[conn][slot]`
  /// says (after the run, when no write is in flight).
  Digest ExpectedMirrored(const Op& op,
                          const std::vector<std::vector<bool>>& present) const;

  /// Deliberately breaks the oracle for one key (benchmark self-test).
  void CorruptOracle(const Op& op);

 private:
  size_t PointIndex(const Op& op) const {
    return (size_t)op.x * (kNodes + 1) + op.w;
  }

  const WorkloadSpec& spec_;
  Graph r1_, r2_, r3_;
  std::vector<std::vector<Edge>> edges_;  // R1, R2, R3 in generation order
  std::vector<std::vector<Op>> seqs_;
  std::vector<std::vector<Edge>> mutable_;
  std::vector<uint8_t> mutable_mark_;  // (kNodes+1)^2: R2 pair is mutable
  std::vector<Digest> fanout_;         // by x
  std::vector<Digest> point_;          // by (x, w)
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
