#include "workload.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

const WorkloadSpec kWorkloads[] = {
    // Large answers (~deg^3 rows) under Zipf-skewed sources: the response
    // path (copy, encode, socket, decode) dominates, and hot sources give
    // the read coalescer concurrent identical drains to share.
    {"path3_fanout", Kind::kFanout,
     "Q^bfff(x,y,z,w) = R1(x,y), R2(y,z), R3(z,w)", -1, 0, 0},
    // Small answers (~deg^2/N rows) for uniform (x, w) pairs: the Alg 2
    // drain competes with the fixed per-request cost; nothing is shared.
    {"path3_point", Kind::kPoint,
     "Q^bffb(x,y,z,w) = R1(x,y), R2(y,z), R3(z,w)", 1.2, 0, 0},
    // path3_point reads beside R2 mutations: the updatable structure,
    // its pending-delta drain and background snapshot folds.
    {"path3_churn", Kind::kChurn,
     "Q^bffb(x,y,z,w) = R1(x,y), R2(y,z), R3(z,w)", 1.2, 0.1, 0.1},
};

/// Requests generated per connection; the closed loop cycles through them.
constexpr size_t kFanoutSeqLen = 4096;
constexpr size_t kPointSeqLen = 32768;
constexpr size_t kStride = kNodes + 1;
/// RowHash folds a row's values with this multiplier, then mixes once: one
/// mix per row keeps the client's answer check cheap beside the server.
constexpr uint64_t kRowMul = 0x9e3779b97f4a7c15ULL;

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64 stream; one per purpose so streams stay independent.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream) : s_(Mix(seed) ^ Mix(~stream)) {}
  uint64_t Next() { return Mix(s_ += 0x9e3779b97f4a7c15ULL); }
  uint16_t Node() { return (uint16_t)(1 + Next() % kNodes); }
  double Unit() { return (double)(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Random simple digraph on 1..kNodes with kEdgesPerRelation distinct
/// edges and no self loops (the shape of workload/generators.h's
/// MakePathRelations).
std::vector<Edge> RandomGraph(uint64_t seed, int relation, Graph* g) {
  Rng rng(seed, 100 + (uint64_t)relation);
  g->has.assign(kStride * kStride, 0);
  g->out.assign(kStride, {});
  std::vector<Edge> edges;
  edges.reserve(kEdgesPerRelation);
  while (edges.size() < kEdgesPerRelation) {
    const uint16_t a = rng.Node(), b = rng.Node();
    if (a == b || g->has[a * kStride + b]) continue;
    g->has[a * kStride + b] = 1;
    g->out[a].push_back(b);
    edges.push_back({a, b});
  }
  for (auto& succ : g->out) std::sort(succ.begin(), succ.end());
  return edges;
}

void Add(Digest* d, uint64_t h) {
  ++d->count;
  d->sum += h;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

uint64_t RowHash(const uint64_t* row, int arity) {
  uint64_t h = 0;
  for (int i = 0; i < arity; ++i) h = h * kRowMul + row[i];
  return Mix(h);
}

Workload::Workload(const WorkloadSpec& spec, uint64_t seed, int connections)
    : spec_(spec) {
  edges_.push_back(RandomGraph(seed, 1, &r1_));
  edges_.push_back(RandomGraph(seed, 2, &r2_));
  edges_.push_back(RandomGraph(seed, 3, &r3_));

  // Mutable tuples: disjoint per connection, so the final state depends
  // only on how many writes each connection completed, not on their
  // interleaving.
  mutable_mark_.assign(kStride * kStride, 0);
  mutable_.assign(connections, {});
  if (spec_.kind == Kind::kChurn) {
    Rng rng(seed, 200);
    for (int c = 0; c < connections; ++c) {
      while ((int)mutable_[c].size() < kMutablePerConn) {
        const bool base = mutable_[c].size() % 2 == 0;
        const Edge e = base ? edges_[1][rng.Next() % edges_[1].size()]
                            : Edge{rng.Node(), rng.Node()};
        if (e.a == e.b || mutable_mark_[e.a * kStride + e.b] ||
            r2_.Has(e.a, e.b) != base)
          continue;
        mutable_mark_[e.a * kStride + e.b] = 1;
        mutable_[c].push_back(e);
      }
    }
  }

  // Request sequences.
  // Zipf ranks go to sources in order of how close their answer size is
  // to the median source's. A random assignment lets the seed decide how
  // large the few hottest answers are (rank 1 alone takes 15% of the
  // requests), which moved the work per request by ~10% between seeds.
  std::vector<uint16_t> by_rank(kNodes);
  std::vector<double> cdf(kNodes);
  {
    std::vector<uint64_t> rows(kStride, 0), via_y(kStride, 0);
    for (int y = 1; y <= kNodes; ++y)
      for (uint16_t z : r2_.out[y]) via_y[y] += r3_.out[z].size();
    for (int x = 1; x <= kNodes; ++x)
      for (uint16_t y : r1_.out[x]) rows[x] += via_y[y];
    std::vector<uint64_t> sorted(rows.begin() + 1, rows.end());
    std::nth_element(sorted.begin(), sorted.begin() + kNodes / 2, sorted.end());
    const uint64_t median = sorted[kNodes / 2];
    auto off = [&](uint16_t x) {
      return rows[x] > median ? rows[x] - median : median - rows[x];
    };
    for (int i = 0; i < kNodes; ++i) by_rank[i] = (uint16_t)(i + 1);
    std::stable_sort(by_rank.begin(), by_rank.end(),
                     [&](uint16_t a, uint16_t b) { return off(a) < off(b); });
    double total = 0;
    for (int r = 0; r < kNodes; ++r) cdf[r] = total += 1.0 / (r + 1);
    for (double& c : cdf) c /= total;
  }
  for (int c = 0; c < connections; ++c) {
    Rng rng(seed, 400 + (uint64_t)c);
    std::vector<Op> seq;
    uint16_t writes = 0;
    const bool fanout = spec_.kind == Kind::kFanout;
    while (seq.size() < (fanout ? kFanoutSeqLen : kPointSeqLen)) {
      // Setup's first request must be a read.
      if (!seq.empty() && rng.Unit() < spec_.write_fraction) {
        seq.push_back({true, 0, 0, (uint16_t)(writes++ % kMutablePerConn)});
      } else if (fanout) {
        const size_t rank =
            std::upper_bound(cdf.begin(), cdf.end() - 1, rng.Unit()) -
            cdf.begin();
        seq.push_back({false, by_rank[rank], 0, 0});
      } else {
        const uint16_t x = rng.Node(), w = rng.Node();
        seq.push_back({false, x, w, 0});
      }
    }
    seqs_.push_back(std::move(seq));
  }

  // Oracle: one nested-loop pass over the stable data (R2 minus the
  // mutable tuples; all of R2 when nothing mutates).
  if (spec_.kind == Kind::kFanout)
    fanout_.assign(kStride, {});
  else
    point_.assign(kStride * kStride, {});
  for (uint64_t x = 1; x <= (uint64_t)kNodes; ++x) {
    for (uint64_t y : r1_.out[x]) {
      for (uint64_t z : r2_.out[y]) {
        if (mutable_mark_[y * kStride + z]) continue;
        // RowHash of (y, z, w) and (y, z), the common prefix folded once.
        const uint64_t yz = y * kRowMul + z;
        const uint64_t hyz = Mix(yz);
        for (uint64_t w : r3_.out[z]) {
          if (spec_.kind == Kind::kFanout)
            Add(&fanout_[x], Mix(yz * kRowMul + w));
          else
            Add(&point_[x * kStride + w], hyz);
        }
      }
    }
  }
}

bool Workload::StartsPresent(int conn, int slot) const {
  const Edge e = mutable_[conn][slot];
  return r2_.Has(e.a, e.b);
}

void Workload::Load(cqc::Database* db) const {
  const char* names[] = {"R1", "R2", "R3"};
  for (int r = 0; r < 3; ++r) {
    cqc::Relation* rel = db->AddRelation(names[r], 2);
    for (const Edge& e : edges_[r]) rel->Insert({e.a, e.b});
    rel->Seal();
  }
}

std::string Workload::ReadBody(const Op& op) const {
  char buf[32];
  if (spec_.kind == Kind::kFanout)
    std::snprintf(buf, sizeof buf, "? %u", (unsigned)op.x);
  else
    std::snprintf(buf, sizeof buf, "? %u %u", (unsigned)op.x, (unsigned)op.w);
  return buf;
}

Digest Workload::Expected(const Op& op) const {
  return spec_.kind == Kind::kFanout ? fanout_[op.x] : point_[PointIndex(op)];
}

bool Workload::Check(const Op& op, const std::vector<uint64_t>& values) const {
  const int ar = arity();
  if (values.size() % (size_t)ar != 0) return false;
  Digest got;
  if (spec_.kind != Kind::kChurn) {
    for (size_t i = 0; i < values.size(); i += (size_t)ar)
      Add(&got, RowHash(&values[i], ar));
    return got == Expected(op);
  }
  std::vector<uint32_t> mutable_rows;
  for (size_t i = 0; i < values.size(); i += 2) {
    const uint64_t y = values[i], z = values[i + 1];
    if (!r1_.Has(op.x, y) || !r3_.Has(z, op.w)) return false;
    if (mutable_mark_[y * kStride + z]) {
      mutable_rows.push_back((uint32_t)(y * kStride + z));
      continue;
    }
    if (!r2_.Has(y, z)) return false;
    Add(&got, RowHash(&values[i], 2));
  }
  std::sort(mutable_rows.begin(), mutable_rows.end());
  if (std::adjacent_find(mutable_rows.begin(), mutable_rows.end()) !=
      mutable_rows.end())
    return false;
  return got == Expected(op);
}

Digest Workload::ExpectedMirrored(
    const Op& op, const std::vector<std::vector<bool>>& present) const {
  Digest d = Expected(op);
  for (size_t c = 0; c < mutable_.size(); ++c) {
    for (size_t s = 0; s < mutable_[c].size(); ++s) {
      const Edge e = mutable_[c][s];
      if (!present[c][s] || !r1_.Has(op.x, e.a) || !r3_.Has(e.b, op.w))
        continue;
      const uint64_t row[2] = {e.a, e.b};
      Add(&d, RowHash(row, 2));
    }
  }
  return d;
}

void Workload::CorruptOracle(const Op& op) {
  Digest& d = spec_.kind == Kind::kFanout ? fanout_[op.x] : point_[PointIndex(op)];
  d.sum ^= 1;
}

}  // namespace perfbench
