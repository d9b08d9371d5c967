// Shared test helpers: database builders and a naive join oracle that every
// data structure is validated against.
#ifndef CQC_TESTS_TEST_UTIL_H_
#define CQC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "query/adorned_view.h"
#include "query/normalize.h"
#include "relational/database.h"
#include "util/common.h"
#include "util/logging.h"

namespace cqc {
namespace testing {

/// Adds a sealed relation with the given rows.
inline Relation* AddRelation(Database& db, const std::string& name,
                             int arity, const std::vector<Tuple>& rows) {
  Relation* r = db.AddRelation(name, arity);
  for (const Tuple& t : rows) r->Insert(t);
  r->Seal();
  return r;
}

/// Brute-force evaluation of a (possibly non-natural) full CQ: recursive
/// backtracking over atoms with an explicit variable assignment. Returns
/// head tuples, sorted and deduplicated.
inline std::vector<Tuple> NaiveEvaluate(const ConjunctiveQuery& cq,
                                        const Database& db,
                                        const Database* aux_db = nullptr) {
  CQC_CHECK(cq.IsFull());
  std::vector<const Relation*> rels;
  for (const Atom& atom : cq.atoms()) {
    const Relation* r = ResolveRelation(atom.relation, db, aux_db);
    CQC_CHECK(r != nullptr) << atom.relation;
    rels.push_back(r);
  }
  std::map<VarId, Value> assignment;
  std::vector<Tuple> out;

  std::function<void(size_t)> recurse = [&](size_t ai) {
    if (ai == cq.atoms().size()) {
      Tuple head;
      for (VarId v : cq.head()) head.push_back(assignment.at(v));
      out.push_back(std::move(head));
      return;
    }
    const Atom& atom = cq.atoms()[ai];
    const Relation* rel = rels[ai];
    for (size_t row = 0; row < rel->size(); ++row) {
      std::vector<VarId> newly;
      bool ok = true;
      for (int c = 0; c < atom.arity() && ok; ++c) {
        const Term& t = atom.terms[c];
        Value v = rel->At(row, c);
        if (!t.is_var) {
          ok = (v == t.constant);
        } else if (auto it = assignment.find(t.var);
                   it != assignment.end()) {
          ok = (it->second == v);
        } else {
          assignment[t.var] = v;
          newly.push_back(t.var);
        }
      }
      if (ok) recurse(ai + 1);
      for (VarId v : newly) assignment.erase(v);
    }
  };
  recurse(0);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The naive oracle for one (view, database) pair, with the join evaluated
/// once: build it before a loop over access requests, then ask it per bound
/// valuation. The database must not change while the oracle is in use.
class ViewOracle {
 public:
  ViewOracle(const AdornedView& view, const Database& db,
             const Database* aux_db = nullptr)
      : full_(NaiveEvaluate(view.cq(), db, aux_db)) {
    // Head layout: positions of bound and free vars within the head.
    for (size_t i = 0; i < view.cq().head().size(); ++i) {
      if (view.adornment()[i] == Binding::kBound)
        bound_pos_.push_back((int)i);
      else
        free_pos_.push_back((int)i);
    }
  }

  /// The sorted distinct free-variable tuples matching `vb`.
  std::vector<Tuple> Answer(const BoundValuation& vb) const {
    std::vector<Tuple> out;
    for (const Tuple& t : full_) {
      bool match = true;
      for (size_t i = 0; i < bound_pos_.size(); ++i)
        if (t[bound_pos_[i]] != vb[i]) {
          match = false;
          break;
        }
      if (!match) continue;
      Tuple free;
      for (int p : free_pos_) free.push_back(t[p]);
      out.push_back(std::move(free));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// All distinct bound valuations present in the full result (guaranteed
  /// non-empty answers), plus a few that are absent.
  std::vector<BoundValuation> InterestingBoundValuations() const {
    std::set<BoundValuation> vals;
    for (const Tuple& t : full_) {
      BoundValuation vb;
      for (int p : bound_pos_) vb.push_back(t[p]);
      vals.insert(vb);
    }
    std::vector<BoundValuation> out(vals.begin(), vals.end());
    // A couple of misses: all-zeros and a large constant.
    out.push_back(BoundValuation(bound_pos_.size(), 0));
    out.push_back(BoundValuation(bound_pos_.size(), 999999999));
    return out;
  }

 private:
  std::vector<Tuple> full_;
  std::vector<int> bound_pos_, free_pos_;
};

/// Oracle for a single access request (evaluates the whole join; loops
/// over requests use a ViewOracle).
inline std::vector<Tuple> OracleAnswer(const AdornedView& view,
                                       const Database& db,
                                       const BoundValuation& vb,
                                       const Database* aux_db = nullptr) {
  return ViewOracle(view, db, aux_db).Answer(vb);
}

/// ViewOracle::InterestingBoundValuations for a one-off caller.
inline std::vector<BoundValuation> InterestingBoundValuations(
    const AdornedView& view, const Database& db,
    const Database* aux_db = nullptr) {
  return ViewOracle(view, db, aux_db).InterestingBoundValuations();
}

/// True iff `tuples` is strictly increasing lexicographically.
inline bool IsStrictlySortedLex(const std::vector<Tuple>& tuples) {
  for (size_t i = 1; i < tuples.size(); ++i)
    if (!(tuples[i - 1] < tuples[i])) return false;
  return true;
}

inline std::vector<Tuple> SortedCopy(std::vector<Tuple> t) {
  std::sort(t.begin(), t.end());
  return t;
}

}  // namespace testing
}  // namespace cqc

#endif  // CQC_TESTS_TEST_UTIL_H_
