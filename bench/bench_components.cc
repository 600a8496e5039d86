// Component microbenchmarks (google-benchmark): the storage, catalog,
// burnback, and defactorization primitives whose costs the paper's edge
// walk model abstracts.

#include <set>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "catalog/catalog.h"
#include "core/answer_graph.h"
#include "core/burnback.h"
#include "core/defactorizer.h"
#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "datagen/yago_like.h"
#include "query/parser.h"
#include "query/templates.h"
#include "util/csr.h"
#include "util/random.h"
#include "util/span_kernels.h"

namespace wireframe {
namespace {

const Database& SharedYago() {
  static Database* db = [] {
    YagoLikeConfig config;
    config.scale = 0.05;
    config.seed = 42;
    return new Database(MakeYagoLike(config));
  }();
  return *db;
}

const Catalog& SharedCatalog() {
  static Catalog* cat = new Catalog(Catalog::Build(SharedYago().store()));
  return *cat;
}

void BM_TripleStoreBuild(benchmark::State& state) {
  const uint32_t nodes = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    Database db = MakeRandomGraph(nodes, 8, nodes * 8ull, 7);
    benchmark::DoNotOptimize(db.store().NumTriples());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_TripleStoreBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_OutNeighborLookup(benchmark::State& state) {
  const Database& db = SharedYago();
  const LabelId p = *db.LabelOf("actedIn");
  auto subjects = db.store().DistinctSubjects(p);
  size_t i = 0;
  for (auto _ : state) {
    auto span = db.store().OutNeighbors(p, subjects[i++ % subjects.size()]);
    benchmark::DoNotOptimize(span.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OutNeighborLookup);

void BM_HasTriple(benchmark::State& state) {
  const Database& db = SharedYago();
  const LabelId p = *db.LabelOf("linksTo");
  auto subjects = db.store().DistinctSubjects(p);
  size_t i = 0;
  for (auto _ : state) {
    const NodeId s = subjects[i++ % subjects.size()];
    benchmark::DoNotOptimize(
        db.store().HasTriple(s, p, static_cast<NodeId>(i % 1000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HasTriple);

void BM_CatalogBuild(benchmark::State& state) {
  const Database& db = SharedYago();
  for (auto _ : state) {
    Catalog cat = Catalog::Build(db.store());
    benchmark::DoNotOptimize(cat.num_labels());
  }
  state.SetItemsProcessed(state.iterations() * db.store().NumTriples());
}
BENCHMARK(BM_CatalogBuild)->Unit(benchmark::kMillisecond);

void BM_PairSetBuild(benchmark::State& state) {
  // One extension level's worth of pairs in 256-pair morsel shards,
  // (src, dst)-sorted as a forward extension delivers them; each
  // iteration concatenates the shards and materializes the set.
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  QueryGraph q = ChainTemplate(1).Instantiate({0});
  std::vector<PairSetShard> shards((n + 255) / 256);
  for (uint32_t i = 0; i < n; ++i) {
    shards[i / 256].Add(i / 8, 1000000 + (i % 8) * 3 + (i / 8) % 5);
  }
  for (auto _ : state) {
    AnswerGraph ag(q);
    ag.Materialize(0, ConcatShards(shards));
    benchmark::DoNotOptimize(ag.Set(0).Size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PairSetBuild)->Arg(1000)->Arg(100000);

void BM_BurnbackCascade(benchmark::State& state) {
  const uint32_t fan = static_cast<uint32_t>(state.range(0));
  QueryGraph q = ChainTemplate(2).Instantiate({0, 1});
  std::vector<std::pair<NodeId, NodeId>> first;
  for (uint32_t i = 0; i < fan; ++i) first.emplace_back(i, 1000000);
  for (auto _ : state) {
    state.PauseTiming();
    AnswerGraph ag(q);
    ag.Materialize(0, first);
    ag.Materialize(1, {{1000000, 2000000}});
    state.ResumeTiming();
    Burnback bb(&ag);
    bb.KillNode(q.FindVar("v2"), 2000000);
    benchmark::DoNotOptimize(bb.pairs_erased());
  }
  state.SetItemsProcessed(state.iterations() * (fan + 2));
}
BENCHMARK(BM_BurnbackCascade)->Arg(100)->Arg(10000);

void BM_Defactorize(benchmark::State& state) {
  const uint32_t fan = static_cast<uint32_t>(state.range(0));
  QueryGraph q = ChainTemplate(2).Instantiate({0, 1});
  AnswerGraph ag(q);
  std::vector<std::pair<NodeId, NodeId>> first, second;
  for (uint32_t i = 0; i < fan; ++i) first.emplace_back(i, 1000000);
  for (uint32_t i = 0; i < fan; ++i) second.emplace_back(1000000, 2000000 + i);
  ag.Materialize(0, std::move(first));
  ag.Materialize(1, std::move(second));
  ag.Freeze();
  EmbeddingPlan plan;
  plan.join_order = {0, 1};
  Defactorizer defac(q, ag);
  for (auto _ : state) {
    CountingSink sink;
    auto n = defac.Emit(plan, &sink, DefactorizerOptions{});
    benchmark::DoNotOptimize(n.ok());
  }
  state.SetItemsProcessed(state.iterations() * fan * fan);
}
BENCHMARK(BM_Defactorize)->Arg(32)->Arg(256);

void BM_WireframeEndToEnd(benchmark::State& state) {
  const Database& db = SharedYago();
  const Catalog& cat = SharedCatalog();
  auto q = SparqlParser::ParseAndBind(Table1Queries()[1], db);
  if (!q.ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  WireframeEngine engine;
  for (auto _ : state) {
    CountingSink sink;
    auto stats = engine.Run(db, cat, *q, EngineOptions{}, &sink);
    if (!stats.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    benchmark::DoNotOptimize(sink.count());
  }
}
BENCHMARK(BM_WireframeEndToEnd)->Unit(benchmark::kMillisecond);

// --- Span kernels (the frozen-CSR hot-loop primitives) ---------------
// Each cell runs twice: dispatch=auto (AVX2 where compiled+supported)
// and dispatch=scalar (forced portable path), so one report shows what
// the SIMD body buys per shape. range(0) is the larger side; range(1)
// the size ratio (1, 2, 4 stay in the merge regime; 10000 crosses the
// galloping threshold and is dispatch-invariant by design).

std::vector<NodeId> RandomSortedIds(Rng& rng, size_t n, uint32_t max_gap) {
  std::vector<NodeId> out;
  out.reserve(n);
  NodeId cur = 0;
  for (size_t i = 0; i < n; ++i) {
    cur += 1 + static_cast<NodeId>(rng.Uniform(max_gap));
    out.push_back(cur);
  }
  return out;
}

void IntersectCell(benchmark::State& state, bool force_scalar) {
  ForceScalarKernels(force_scalar);
  const size_t big = static_cast<size_t>(state.range(0));
  const size_t small = std::max<size_t>(1, big / state.range(1));
  Rng rng(99);
  // Interleave draws from a shared universe so ~half the smaller side
  // hits — the worst case for a branchy scalar merge.
  const std::vector<NodeId> universe = RandomSortedIds(rng, 2 * big, 4);
  std::vector<NodeId> a, b;
  for (size_t i = 0; i < universe.size(); ++i) {
    if (a.size() < big && rng.Bernoulli(0.5)) a.push_back(universe[i]);
    if (b.size() < small && rng.Bernoulli(0.5)) b.push_back(universe[i]);
  }
  std::vector<NodeId> out(std::min(a.size(), b.size()) + kIntersectPad);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectSorted(a, b, out.data()));
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
  state.SetLabel(KernelCpuFeaturesMeta());
  ForceScalarKernels(false);
}

void BM_IntersectSortedAuto(benchmark::State& state) {
  IntersectCell(state, /*force_scalar=*/false);
}
void BM_IntersectSortedScalar(benchmark::State& state) {
  IntersectCell(state, /*force_scalar=*/true);
}
BENCHMARK(BM_IntersectSortedAuto)
    ->Args({65536, 1})
    ->Args({65536, 2})
    ->Args({65536, 4})
    ->Args({65536, 10000});
BENCHMARK(BM_IntersectSortedScalar)
    ->Args({65536, 1})
    ->Args({65536, 2})
    ->Args({65536, 4})
    ->Args({65536, 10000});

void ContainsManyCell(benchmark::State& state, bool force_scalar) {
  ForceScalarKernels(force_scalar);
  const size_t nkeys = 4096;
  Rng rng(41);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (size_t k = 0; k < nkeys; ++k) {
    NodeId v = 0;
    const size_t deg = 4 + rng.Uniform(24);
    for (size_t d = 0; d < deg; ++d) {
      v += 1 + static_cast<NodeId>(rng.Uniform(8));
      pairs.emplace_back(static_cast<NodeId>(k), v);
    }
  }
  const Csr csr = Csr::Build(std::move(pairs));
  const size_t nprobes = static_cast<size_t>(state.range(0));
  std::vector<NodeId> keys, vals;
  for (size_t i = 0; i < nprobes; ++i) {
    keys.push_back(static_cast<NodeId>((i * nkeys) / nprobes));
    vals.push_back(static_cast<NodeId>(rng.Uniform(256)));
  }
  std::vector<uint8_t> hits(nprobes);
  for (auto _ : state) {
    csr.ContainsMany(keys, vals, hits.data());
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() * nprobes);
  state.SetLabel(KernelCpuFeaturesMeta());
  ForceScalarKernels(false);
}

void BM_CsrContainsManyAuto(benchmark::State& state) {
  ContainsManyCell(state, /*force_scalar=*/false);
}
void BM_CsrContainsManyScalar(benchmark::State& state) {
  ContainsManyCell(state, /*force_scalar=*/true);
}
BENCHMARK(BM_CsrContainsManyAuto)->Arg(65536);
BENCHMARK(BM_CsrContainsManyScalar)->Arg(65536);

void BM_CsrForEachGather(benchmark::State& state) {
  Rng rng(43);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  const size_t nkeys = static_cast<size_t>(state.range(0));
  for (size_t k = 0; k < nkeys; ++k) {
    NodeId v = 0;
    const size_t deg = 2 + rng.Uniform(12);
    for (size_t d = 0; d < deg; ++d) {
      v += 1 + static_cast<NodeId>(rng.Uniform(64));
      pairs.emplace_back(static_cast<NodeId>(k), v);
    }
  }
  const Csr csr = Csr::Build(std::move(pairs));
  for (auto _ : state) {
    uint64_t sum = 0;
    csr.ForEach([&sum](NodeId, NodeId v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * csr.NumEntries());
}
BENCHMARK(BM_CsrForEachGather)->Arg(32768);

// --- Csr key lookup ---------------------------------------------------
// RangeOf over range(0) keys, probing hits (range(1) = 1) or misses (0)
// in a shuffled order. Dense keys are the even ids below 2 * n, so the
// direct index answers; sparse keys are spread over the whole id space,
// so the hashed index does. Misses are the odd ids and fresh random ids.

void RangeOfCell(benchmark::State& state, bool dense) {
  const size_t nkeys = static_cast<size_t>(state.range(0));
  const bool hits = state.range(1) != 0;
  Rng rng(47);
  std::set<NodeId> keys;
  while (keys.size() < nkeys) {
    keys.insert(dense ? static_cast<NodeId>(2 * keys.size())
                      : static_cast<NodeId>(rng.Uniform(kInvalidNode)));
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId key : keys) pairs.emplace_back(key, key);
  const Csr csr = Csr::Build(std::move(pairs));
  std::vector<NodeId> probes;
  for (const NodeId key : keys) {
    if (hits) {
      probes.push_back(key);
    } else if (dense) {
      probes.push_back(key + 1);
    } else {
      NodeId miss = static_cast<NodeId>(rng.Uniform(kInvalidNode));
      while (keys.count(miss) != 0) ++miss;
      probes.push_back(miss);
    }
  }
  for (size_t i = probes.size(); i > 1; --i) {
    std::swap(probes[i - 1], probes[rng.Uniform(i)]);
  }
  size_t i = 0;
  for (auto _ : state) {
    const Csr::Range r = csr.RangeOf(probes[i]);
    benchmark::DoNotOptimize(r);
    if (++i == probes.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CsrRangeOfDense(benchmark::State& state) {
  RangeOfCell(state, /*dense=*/true);
}
void BM_CsrRangeOfSparse(benchmark::State& state) {
  RangeOfCell(state, /*dense=*/false);
}
BENCHMARK(BM_CsrRangeOfDense)->ArgsProduct({{1024, 65536}, {1, 0}});
BENCHMARK(BM_CsrRangeOfSparse)->ArgsProduct({{1024, 65536}, {1, 0}});

void BM_SparqlParse(benchmark::State& state) {
  const std::string text = Table1Queries()[1];
  for (auto _ : state) {
    auto parsed = SparqlParser::Parse(text);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparqlParse);

}  // namespace
}  // namespace wireframe

BENCHMARK_MAIN();
