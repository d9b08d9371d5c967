// Experiment E10: google-benchmark micro suite for the §4 primitives —
// box decomposition, balanced splitting, trie refinement, generic join
// steps, dictionary lookups, and the one-at-a-time vs batched enumeration
// paths. main() additionally records the batched-vs-single throughput
// ratios in BENCH_micro.json before running the registered benchmarks.
#include <benchmark/benchmark.h>

#include "baseline/direct_eval.h"
#include "bench/bench_common.h"
#include "core/bitpack.h"
#include "core/compressed_rep.h"
#include "core/cost_model.h"
#include "core/splitter.h"
#include "join/generic_join.h"
#include "relational/hash_index.h"
#include "simd/kernels.h"
#include "simd/simd_caps.h"
#include "util/logging.h"
#include "util/request_context.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

// Shared fixture state (built once).
struct Fixture {
  Database db;
  std::unique_ptr<AdornedView> view;
  std::vector<BoundAtom> atoms;
  std::unique_ptr<LexDomain> domain;
  std::unique_ptr<CostModel> cost;
  std::unique_ptr<CompressedRep> rep;
  std::vector<BoundValuation> requests;

  Fixture() {
    MakeTripartiteTriangleGraph(db, "R", 32);
    view = std::make_unique<AdornedView>(TriangleView("bfb"));
    for (const Atom& atom : view->cq().atoms())
      atoms.emplace_back(atom, *db.Find(atom.relation), view->bound_vars(),
                         view->free_vars());
    cost = std::make_unique<CostModel>(
        &atoms, std::vector<double>{0.5, 0.5, 0.5});
    std::vector<std::vector<Value>> doms(1);
    doms[0] = db.Find("R")->ActiveDomain(0);
    domain = std::make_unique<LexDomain>(std::move(doms));
    CompressedRepOptions copt;
    copt.tau = 16.0;
    rep = std::move(CompressedRep::Build(*view, db, copt)).value();
    for (Value a = 1; a <= 32; ++a) requests.push_back({a, 32 + a});
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

void BM_BoxDecompose(benchmark::State& state) {
  const int mu = (int)state.range(0);
  Tuple lo(mu), hi(mu);
  for (int i = 0; i < mu; ++i) {
    lo[i] = 3;
    hi[i] = 1000 - i;
  }
  lo[0] = 1;
  FInterval interval{lo, hi};
  for (auto _ : state) {
    auto boxes = BoxDecompose(interval);
    benchmark::DoNotOptimize(boxes);
  }
}
BENCHMARK(BM_BoxDecompose)->Arg(1)->Arg(3)->Arg(6);

void BM_TrieRefine(benchmark::State& state) {
  Fixture& f = F();
  const SortedIndex& idx = f.atoms[0].bf_index();
  Rng rng(1);
  for (auto _ : state) {
    RowRange r = idx.Refine(idx.Root(), 0, 1 + rng.Uniform(96));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TrieRefine);

void BM_IntervalCost(benchmark::State& state) {
  Fixture& f = F();
  FInterval whole{f.domain->MinTuple(), f.domain->MaxTuple()};
  for (auto _ : state) {
    double t = f.cost->IntervalCost(whole);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_IntervalCost);

void BM_SplitInterval(benchmark::State& state) {
  Fixture& f = F();
  FInterval whole{f.domain->MinTuple(), f.domain->MaxTuple()};
  for (auto _ : state) {
    SplitResult s = SplitInterval(whole, *f.domain, *f.cost);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SplitInterval);

void BM_CompressedRepAnswer(benchmark::State& state) {
  Fixture& f = F();
  size_t i = 0;
  for (auto _ : state) {
    auto e = f.rep->Answer(f.requests[i++ % f.requests.size()]);
    Tuple t;
    size_t n = 0;
    while (e->Next(&t)) ++n;
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_CompressedRepAnswer);

void BM_CompressedRepAnswerBatched(benchmark::State& state) {
  Fixture& f = F();
  size_t i = 0;
  TupleBuffer buf(f.view->num_free());
  for (auto _ : state) {
    auto e = f.rep->Answer(f.requests[i++ % f.requests.size()]);
    size_t n = 0;
    for (;;) {
      buf.Clear();
      size_t got = e->NextBatch(&buf, 256);
      n += got;
      if (got < 256) break;
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_CompressedRepAnswerBatched);

void BM_DictionaryLookup(benchmark::State& state) {
  Fixture& f = F();
  const HeavyDictionary& dict = f.rep->dictionary();
  uint32_t id = dict.FindValuation(Tuple{1, 33});
  size_t node = 0;
  for (auto _ : state) {
    auto bit = dict.Lookup((int)(node++ % f.rep->tree().size()), id);
    benchmark::DoNotOptimize(bit);
  }
}
BENCHMARK(BM_DictionaryLookup);

std::vector<JoinAtomInput> TriangleJoinInputs(
    const std::vector<BoundAtom>& atoms) {
  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : atoms) {
    JoinAtomInput in;
    in.index = &atom.bf_index();
    in.start = atom.bf_index().Root();
    in.start_level = 0;
    for (int i = 0; i < atom.num_free(); ++i)
      in.levels.emplace_back(atom.free_positions()[i], i);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

void BM_GenericJoinTriangleFull(benchmark::State& state) {
  Fixture& f = F();
  // Full enumeration join over (x,y,z) via a fresh all-free binding.
  AdornedView full = TriangleView("fff");
  std::vector<BoundAtom> atoms;
  for (const Atom& atom : full.cq().atoms())
    atoms.emplace_back(atom, *f.db.Find("R"), full.bound_vars(),
                       full.free_vars());
  for (auto _ : state) {
    JoinIterator join(TriangleJoinInputs(atoms), 3,
                      std::vector<LevelConstraint>(3, LevelConstraint::Any()));
    Tuple t;
    size_t n = 0;
    while (join.Next(&t)) ++n;
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_GenericJoinTriangleFull)->Unit(benchmark::kMillisecond);

void BM_GenericJoinTriangleFullBatched(benchmark::State& state) {
  Fixture& f = F();
  AdornedView full = TriangleView("fff");
  std::vector<BoundAtom> atoms;
  for (const Atom& atom : full.cq().atoms())
    atoms.emplace_back(atom, *f.db.Find("R"), full.bound_vars(),
                       full.free_vars());
  TupleBuffer buf(3);
  for (auto _ : state) {
    JoinIterator join(TriangleJoinInputs(atoms), 3,
                      std::vector<LevelConstraint>(3, LevelConstraint::Any()));
    size_t n = 0;
    for (;;) {
      buf.Clear();
      size_t got = join.NextBatch(&buf, 256);
      n += got;
      if (got < 256) break;
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_GenericJoinTriangleFullBatched)->Unit(benchmark::kMillisecond);

// Per-kernel scalar-vs-dispatch rows for the SIMD layer (src/simd/): each
// record measures one kernel in its production hot-loop shape, once pinned
// to the scalar twin and once at the best level the CPU supports. The
// *_mtps keys are gated by tools/bench_compare.py; the
// dispatch_speedup ratio is informational (1.0 on scalar-only hardware).
void WriteKernelRecords(bench::BenchReport& report) {
  Rng rng(4242);
  auto best_of = [](int reps, auto fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      WallTimer t;
      fn();
      best = std::min(best, t.Seconds());
    }
    return best;
  };
  auto at_level = [&](simd::Level level, auto measure) {
    simd::SetLevel(level);
    const double s = measure();
    simd::SetLevel(simd::Detected());
    return s;
  };
  auto add = [&](const char* structure, const char* unit_key_scalar,
                 const char* unit_key_dispatch, double units, double scalar_s,
                 double dispatch_s) {
    report.AddRecord()
        .Set("experiment", "simd_kernels")
        .Set("structure", structure)
        .Set("dispatch_level", simd::LevelName(simd::Detected()))
        .Set(unit_key_scalar, units / scalar_s / 1e6)
        .Set(unit_key_dispatch, units / dispatch_s / 1e6)
        .Set("dispatch_speedup", scalar_s / dispatch_s);
    std::printf("%s: scalar %.1f -> %s %.1f M/s (%.2fx)\n", structure,
                units / scalar_s / 1e6, simd::LevelName(simd::Detected()),
                units / dispatch_s / 1e6, scalar_s / dispatch_s);
  };

  {
    // Batch decode: 64-row blocks over a bit-packed pool — the
    // HeavyDictionary candidate-drain / rehash shape.
    const size_t kRows = 1 << 16;
    constexpr int kArity = 4;
    const uint32_t widths[kArity] = {9, 17, 33, 5};
    std::vector<Value> flat(kRows * kArity);
    for (size_t r = 0; r < kRows; ++r)
      for (int c = 0; c < kArity; ++c)
        flat[r * kArity + c] = rng.Next() & ((Value(1) << widths[c]) - 1);
    for (int c = 0; c < kArity; ++c)  // pin the planned widths via row 0
      flat[c] = (Value(1) << widths[c]) - 1;
    const PackedTuplePool pool = PackedTuplePool::Pack(flat, kArity, kRows);
    std::vector<Value> out(64 * kArity);
    Value sink = 0;
    const int kReps = 40;
    auto measure = [&] {
      return best_of(5, [&] {
        for (int rep = 0; rep < kReps; ++rep)
          for (size_t base = 0; base < kRows; base += 64) {
            pool.UnpackRows(base, std::min<size_t>(64, kRows - base),
                            out.data());
            sink ^= out[0];
          }
      });
    };
    const double scalar_s = at_level(simd::Level::kScalar, measure);
    const double dispatch_s = at_level(simd::Detected(), measure);
    benchmark::DoNotOptimize(sink);
    add("simd_unpack_rows", "scalar_mtps", "dispatch_mtps",
        (double)kReps * kRows, scalar_s, dispatch_s);
  }

  {
    // Tombstone filter: HashIndex::ContainsBatch over staged candidate
    // blocks — the UpdatableRep delete-filter drain (group tag compares +
    // batched hash/prefetch).
    Relation rel("F", 3);
    for (int i = 0; i < 100000; ++i)
      rel.Insert({rng.Uniform(4096), rng.Uniform(4096), rng.Uniform(4096)});
    rel.Seal();
    const size_t kProbes = 1 << 16;
    std::vector<Value> probes;
    probes.reserve(kProbes * 3);
    for (size_t i = 0; i < kProbes; ++i) {
      if (rng.Bernoulli(0.5)) {
        const size_t row = rng.Uniform(rel.size());
        for (int c = 0; c < 3; ++c) probes.push_back(rel.At(row, c));
      } else {
        for (int c = 0; c < 3; ++c) probes.push_back(rng.Uniform(4096) + 4096);
      }
    }
    std::vector<uint8_t> hit(kProbes);
    const int kReps = 20;
    auto measure = [&] {
      return best_of(5, [&] {
        for (int rep = 0; rep < kReps; ++rep)
          for (size_t base = 0; base < kProbes; base += 256)
            rel.GetHashIndex().ContainsBatch(
                probes.data() + base * 3,
                std::min<size_t>(256, kProbes - base), hit.data() + base);
      });
    };
    const double scalar_s = at_level(simd::Level::kScalar, measure);
    const double dispatch_s = at_level(simd::Detected(), measure);
    benchmark::DoNotOptimize(hit.data());
    add("simd_tombstone_filter", "scalar_mtps", "dispatch_mtps",
        (double)kReps * kProbes, scalar_s, dispatch_s);
  }
}

// Records the batched-vs-single throughput headline in BENCH_micro.json
// (the E10 acceptance metric for the batch enumeration API).
void WriteMicroReport() {
  Fixture& f = F();
  bench::BenchReport report("micro");

  auto record = [&](const char* structure, auto make, int arity,
                    int repeats) {
    auto tc = bench::CompareDrainThroughput(make, arity, 256, repeats);
    report.AddRecord()
        .Set("experiment", "E10_micro")
        .Set("structure", structure)
        .Set("drain_tuples", tc.tuples)
        .Set("drain_single_mtps", tc.single_mtps())
        .Set("drain_batched_mtps", tc.batched_mtps())
        .Set("drain_batched_speedup", tc.speedup());
    std::printf("%s: %zu tuples, batched %.2fx vs single\n", structure,
                tc.tuples, tc.speedup());
  };

  {
    // Headline: the WCOJ enumeration hot path on a single-participant
    // deepest level (path query), where the batch API's run-scan replaces
    // a binary search per output tuple.
    Database db;
    MakePathRelations(db, "R", 3, 400, 8000, 77);
    AdornedView full = PathView(3, "ffff");
    CompressedRepOptions copt;
    copt.tau = 512.0;  // light intervals evaluate through the WCOJ batches
    auto cr = CompressedRep::Build(full, db, copt);
    auto de = DirectEval::Build(full, db);
    record("compressed_rep_path3_full_enumeration",
           [&]() -> std::unique_ptr<TupleEnumerator> {
             return cr.value()->Answer({});
           },
           4, 10);
    record("direct_eval_path3_full_enumeration",
           [&]() -> std::unique_ptr<TupleEnumerator> {
             return de.value()->Answer({});
           },
           4, 10);

    // Deadline-check overhead on the same hot path: the serving layer wraps
    // every enumerator in DeadlineCheckedEnumerator when a request carries a
    // deadline, so the per-batch clock poll must be in the noise (<3% is the
    // robustness acceptance budget). Interleaved min-of-N so drift hits both
    // arms equally.
    {
      const RequestContext ctx =
          RequestContext::WithTimeout(std::chrono::hours(1));
      double plain_best = 1e300, deadline_best = 1e300;
      size_t tuples = 0;
      for (int rep = 0; rep < 10; ++rep) {
        {
          auto e = cr.value()->Answer({});
          WallTimer t;
          tuples = DrainBatched(*e, 4, 256);
          plain_best = std::min(plain_best, t.Seconds());
        }
        {
          DeadlineCheckedEnumerator e(cr.value()->Answer({}), &ctx);
          WallTimer t;
          const size_t n = DrainBatched(e, 4, 256);
          deadline_best = std::min(deadline_best, t.Seconds());
          CQC_CHECK(n == tuples);
        }
      }
      const double plain_mtps = (double)tuples / plain_best / 1e6;
      const double deadline_mtps = (double)tuples / deadline_best / 1e6;
      const double overhead_pct =
          100.0 * (plain_mtps - deadline_mtps) / plain_mtps;
      report.AddRecord()
          .Set("experiment", "E10_micro")
          .Set("structure", "deadline_checked_drain")
          .Set("drain_tuples", tuples)
          .Set("drain_plain_mtps", plain_mtps)
          .Set("drain_deadline_mtps", deadline_mtps)
          .Set("deadline_overhead_pct", overhead_pct);
      std::printf(
          "deadline_checked_drain: %.2f -> %.2f Mt/s (%.2f%% overhead, "
          "budget 3%%: %s)\n",
          plain_mtps, deadline_mtps, overhead_pct,
          overhead_pct < 3.0 ? "OK" : "EXCEEDED");
    }
  }
  {
    // Bound-request sweep on the fixture triangle (tiny outputs: shows the
    // per-request floor rather than the bulk path). One enumerator chains
    // every request so the single and batched drains see identical streams.
    class ConcatEnumerator : public TupleEnumerator {
     public:
      ConcatEnumerator(const CompressedRep* rep,
                       const std::vector<BoundValuation>* requests)
          : rep_(rep), requests_(requests) {}
      bool Next(Tuple* out) override {
        for (;;) {
          if (!cur_ && !Open()) return false;
          if (cur_->Next(out)) return true;
          cur_.reset();
        }
      }
      size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
        size_t n = 0;
        while (n < max_tuples) {
          if (!cur_ && !Open()) break;
          n += cur_->NextBatch(out, max_tuples - n);
          if (n < max_tuples) cur_.reset();
        }
        return n;
      }

     private:
      bool Open() {
        if (idx_ >= requests_->size()) return false;
        cur_ = rep_->Answer((*requests_)[idx_++]);
        return true;
      }
      const CompressedRep* rep_;
      const std::vector<BoundValuation>* requests_;
      size_t idx_ = 0;
      std::unique_ptr<TupleEnumerator> cur_;
    };
    record("compressed_rep_triangle_bfb_requests",
           [&]() -> std::unique_ptr<TupleEnumerator> {
             return std::make_unique<ConcatEnumerator>(f.rep.get(),
                                                       &f.requests);
           },
           f.view->num_free(), 64);
  }
  {
    // Cyclic case for the scan fast path: the triangle's deepest level has
    // two participating atoms (S's and T's z columns), so the batch API
    // drains it through the galloping intersection instead of a full
    // leapfrog re-seek per tuple. tau is set so light intervals stream
    // through the WCOJ joins (at tau=1 the traversal emits almost every
    // tuple via per-tuple tree operations — split probes and unit leaves —
    // which no batch API can amortize).
    AdornedView full = TriangleView("fff");
    CompressedRepOptions copt;
    copt.tau = 256.0;
    auto cr = CompressedRep::Build(full, f.db, copt);
    record("compressed_rep_triangle_full_enumeration",
           [&]() -> std::unique_ptr<TupleEnumerator> {
             return cr.value()->Answer({});
           },
           3, 10);
  }
  WriteKernelRecords(report);
}

}  // namespace
}  // namespace cqc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  cqc::WriteMicroReport();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
