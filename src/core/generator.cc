#include "core/generator.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/burnback.h"
#include "core/chords.h"
#include "util/interrupt.h"
#include "util/logging.h"

namespace wireframe {

namespace {

/// Frontier items (candidate nodes, or distinct subjects on a cold
/// start) per morsel during edge extension. Each item expands into a
/// full neighbor scan, so morsels stay small enough to balance skewed
/// degree distributions.
constexpr uint64_t kFrontierMorsel = 256;

/// Snapshots the candidate set of `v`, ascending (ForEachCandidate
/// order): the level's frontier.
std::vector<NodeId> CollectCandidates(const AnswerGraph& ag, VarId v) {
  std::vector<NodeId> out;
  ag.ForEachCandidate(v, [&](NodeId c) { out.push_back(c); });
  return out;
}

}  // namespace

Result<GeneratorResult> AgGenerator::Generate(
    const QueryGraph& query, const AgPlan& plan,
    const GeneratorOptions& options, const EngineOptions& run) const {
  WF_CHECK(plan.edge_order.size() == query.NumEdges())
      << "plan must cover every query edge exactly once";
  const TripleStore& store = db_->store();

  GeneratorResult result;
  result.ag = std::make_unique<AnswerGraph>(query);
  AnswerGraph& ag = *result.ag;

  // Burnback drains its cascades on the same pool (partitioned worklists
  // with ownership by variable) once a seed list crosses the threshold.
  BurnbackOptions burnback_options;
  burnback_options.pool = run.Pool();
  burnback_options.weight = run.weight;
  burnback_options.parallel_threshold = options.burnback_parallel_threshold;
  Burnback burnback(&ag, burnback_options);

  // Chord slots are registered up front (unmaterialized slots are inert)
  // so the chord evaluator and node burnback share one AnswerGraph.
  const bool use_chords =
      options.triangulate && !plan.chords.empty();
  Chordification chordification;
  chordification.chords = plan.chords;
  chordification.base_triangles = plan.base_triangles;
  chordification.base_triangle_closing_edge = plan.base_triangle_closing_edge;
  ChordEvaluator chord_eval(chordification, &ag, &burnback);
  if (use_chords || !plan.base_triangles.empty()) {
    chord_eval.RegisterChordSlots();
  }

  // Level-barrier interrupt check (cancel + deadline); inside a level
  // ParallelFor checks both per morsel.
  InterruptProbe probe(run.deadline, run.cancel);

  // Lookahead filter support: for a node landing on a fresh variable v
  // via edge e, every other not-yet-materialized query edge incident to v
  // must have at least one matching data edge at that node. `walks` is
  // the charge account of the calling morsel's shard.
  std::vector<bool> query_edge_done(query.NumEdges(), false);
  auto passes_lookahead = [&](VarId v, NodeId node, uint32_t via_edge,
                              uint64_t& walks) -> bool {
    if (!options.lookahead) return true;
    for (uint32_t f : query.IncidentEdges(v)) {
      if (f == via_edge || query_edge_done[f]) continue;
      const QueryEdge& qf = query.Edge(f);
      if (qf.label >= store.NumPredicates()) return false;
      ++walks;  // the existence probe is an index lookup
      if (qf.src == v) {
        if (store.OutNeighbors(qf.label, node).empty()) return false;
      } else {
        if (store.InNeighbors(qf.label, node).empty()) return false;
      }
    }
    return true;
  };

  // Candidate bitmap of a level's `to` variable: one bit per dictionary
  // id (NumNodes / 8 bytes), allocated on the first level that needs it,
  // set from that level's candidate list and cleared from it afterwards,
  // so a level costs O(|candidates|), never O(dictionary).
  std::vector<uint64_t> candidate_bits;

  // --- Edge extension + node burnback, one query edge at a time. ---
  for (uint32_t e : plan.edge_order) {
    const QueryEdge& qe = query.Edge(e);
    const LabelId p = qe.label;
    const bool src_touched = ag.IsTouched(qe.src);
    const bool dst_touched = ag.IsTouched(qe.dst);

    // A label with no triples leaves the edge set empty; burnback below
    // wipes the constrained endpoints.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    if (p < store.NumPredicates()) {
      // The frontier: on a cold start the predicate's distinct subjects
      // (the whole labeled edge set enters the AG); otherwise the
      // candidates of the constrained side — the side with fewer
      // candidates when both are. Each frontier node x scans its data
      // neighbors y in the frontier's direction.
      const bool cold = !src_touched && !dst_touched;
      std::vector<NodeId> src_candidates;
      std::vector<NodeId> dst_candidates;
      if (src_touched) src_candidates = CollectCandidates(ag, qe.src);
      if (dst_touched) dst_candidates = CollectCandidates(ag, qe.dst);
      const bool forward =
          cold || (src_touched && !dst_touched) ||
          (src_touched && dst_touched &&
           src_candidates.size() <= dst_candidates.size());
      const VarId from = forward ? qe.src : qe.dst;
      const VarId to = forward ? qe.dst : qe.src;
      const bool to_touched = forward ? dst_touched : src_touched;
      const std::span<const NodeId> frontier =
          cold ? store.DistinctSubjects(p)
               : std::span<const NodeId>(forward ? src_candidates
                                                 : dst_candidates);
      // y's variable is constrained only when both are: mark its
      // candidates for one bit test per scanned neighbor.
      const std::span<const NodeId> to_candidates =
          forward ? dst_candidates : src_candidates;
      if (to_touched) {
        if (candidate_bits.empty()) {
          candidate_bits.assign((store.NumNodes() + 63) / 64, 0);
        }
        for (NodeId c : to_candidates) {
          WF_DCHECK(c < store.NumNodes());
          candidate_bits[c >> 6] |= uint64_t{1} << (c & 63);
        }
      }
      // Pair filter: aliveness of y when its variable is constrained,
      // the lookahead otherwise (for x too on a cold start).
      auto accept = [&](NodeId x, NodeId y, uint64_t& walks) {
        if (to_touched) {
          return ((candidate_bits[y >> 6] >> (y & 63)) & 1) != 0;
        }
        if (cold && !passes_lookahead(from, x, e, walks)) return false;
        return passes_lookahead(to, y, e, walks);
      };

      // Morsels fill private PairSetShards, concatenated in morsel order
      // at the barrier. The frontier ascends and so do the neighbors of
      // each frontier node, so the list is sorted by (src, dst) on a
      // forward extension and by (dst, src) on a backward one, and the
      // set builds that direction without a sort; the list, and so the
      // AG, is the same for every pool size. The body only reads shared
      // state (store, AG sets of earlier levels). An interrupt returns
      // before anything is materialized.
      const uint64_t num_morsels =
          (frontier.size() + kFrontierMorsel - 1) / kFrontierMorsel;
      std::vector<PairSetShard> shards(num_morsels);
      WF_RETURN_NOT_OK(run.Pool()->ParallelFor(
          frontier.size(), run.Morsels(kFrontierMorsel),
          [&](uint32_t /*worker*/, uint64_t begin, uint64_t end) {
            PairSetShard& shard = shards[begin / kFrontierMorsel];
            for (uint64_t i = begin; i < end; ++i) {
              const NodeId x = frontier[i];
              if (!cold) ++shard.edge_walks;  // one index probe
              for (NodeId y : forward ? store.OutNeighbors(p, x)
                                      : store.InNeighbors(p, x)) {
                ++shard.edge_walks;
                if (!accept(x, y, shard.edge_walks)) continue;
                if (forward) {
                  shard.Add(x, y);
                } else {
                  shard.Add(y, x);
                }
              }
            }
          }));
      if (to_touched) {
        // Only this level's candidates set bits: zeroing their words
        // restores the all-clear map.
        for (NodeId c : to_candidates) candidate_bits[c >> 6] = 0;
      }
      for (const PairSetShard& shard : shards) {
        result.edge_walks += shard.edge_walks;
      }
      pairs = ConcatShards(shards);
    }

    ag.Materialize(e, std::move(pairs));
    const uint64_t added = ag.Set(e).Size();
    query_edge_done[e] = true;
    const uint64_t burned =
        burnback.PruneAfterExtension(e, src_touched, dst_touched);

    if (options.trace) {
      options.trace({GeneratorTraceStep::Kind::kExtension, e, added, burned,
                     ag.TotalQueryEdgePairs()});
    }
    WF_RETURN_NOT_OK(probe.CheckNow("answer-graph generation"));
  }

  // --- Chord materialization (cyclic queries). ---
  if (use_chords) {
    result.used_chords = true;
    uint64_t walks = 0;
    Status st = chord_eval.MaterializeChords(&walks, run);
    if (!st.ok()) return st;
    result.edge_walks += walks;
    for (size_t c = 0; c < plan.chords.size(); ++c) {
      result.chord_pairs += ag.Set(chord_eval.ChordSlot(
                                       static_cast<uint32_t>(c)))
                                .Size();
      if (options.trace) {
        options.trace(
            {GeneratorTraceStep::Kind::kChord, static_cast<uint32_t>(c),
             ag.Set(chord_eval.ChordSlot(static_cast<uint32_t>(c))).Size(),
             0, ag.TotalQueryEdgePairs()});
      }
    }
  }

  // --- Optional edge burnback down to the ideal AG. ---
  if (options.edge_burnback &&
      (use_chords || !plan.base_triangles.empty())) {
    WF_ASSIGN_OR_RETURN(uint64_t erased,
                        chord_eval.RunEdgeBurnback(run));
    if (options.trace) {
      options.trace({GeneratorTraceStep::Kind::kEdgeBurnback, 0, 0, erased,
                     ag.TotalQueryEdgePairs()});
    }
  }

  // Every erasure funnels through `burnback`, so its counter is the
  // authoritative total — including the cascades chord materialization
  // triggers internally, which the per-step trace values never see
  // (their per-call returns are discarded inside MaterializeChords).
  result.pairs_burned = burnback.pairs_erased();
  result.burnback_depth = burnback.max_cascade_depth();
  result.burnback_handoffs = burnback.handoffs();
  result.burnback_seconds = burnback.seconds();
  return result;
}

}  // namespace wireframe
