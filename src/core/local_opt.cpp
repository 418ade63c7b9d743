#include "core/local_opt.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "check/check.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "sta/incremental.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace skewopt::core {

using network::Design;

namespace {

// All skewopt_local_* metrics are driven only by deterministic algorithm
// state (never by thread identity or scheduling), so a serial and a
// parallel run of the same optimization produce identical snapshots under
// a fake clock — asserted by obs_test.
struct LocalObs {
  obs::Counter& rounds = obs::MetricsRegistry::global().counter(
      "skewopt_local_rounds_total", "Local-optimizer rounds started");
  obs::Counter& trials = obs::MetricsRegistry::global().counter(
      "skewopt_local_trials_total", "Golden-evaluated candidate moves");
  obs::Counter& accepted = obs::MetricsRegistry::global().counter(
      "skewopt_local_accepted_moves_total", "Committed moves (all types)");
  obs::Counter& accepted_i = obs::MetricsRegistry::global().counter(
      "skewopt_local_accepted_moves_type_i_total",
      "Committed type-I (size/displace) moves");
  obs::Counter& accepted_ii = obs::MetricsRegistry::global().counter(
      "skewopt_local_accepted_moves_type_ii_total",
      "Committed type-II (child displace/size) moves");
  obs::Counter& accepted_iii = obs::MetricsRegistry::global().counter(
      "skewopt_local_accepted_moves_type_iii_total",
      "Committed type-III (reassign) moves");
  obs::Counter& predictor_hits = obs::MetricsRegistry::global().counter(
      "skewopt_local_predictor_hits_total",
      "Predictor-proposed trials that realized an improvement");
  obs::Counter& predictor_misses = obs::MetricsRegistry::global().counter(
      "skewopt_local_predictor_misses_total",
      "Predictor-proposed trials that did not realize an improvement");
  obs::Counter& score_reused = obs::MetricsRegistry::global().counter(
      "skewopt_local_score_reused_total",
      "Scored candidates that reused their memoized analysis");
  obs::Counter& score_analyzed = obs::MetricsRegistry::global().counter(
      "skewopt_local_score_analyzed_total",
      "Scored candidates analyzed from scratch");
  obs::Histogram& golden_ms = obs::MetricsRegistry::global().histogram(
      "skewopt_local_golden_trial_ms", obs::defaultMsBuckets(),
      "Per-trial golden evaluation wall time");

  obs::Counter& acceptedByType(MoveType t) {
    switch (t) {
      case MoveType::kSizeDisplace: return accepted_i;
      case MoveType::kChildDisplaceSize: return accepted_ii;
      case MoveType::kReassign: return accepted_iii;
    }
    return accepted_i;
  }
  static LocalObs& get() {
    static LocalObs o;
    return o;
  }
};

/// Golden trial for the random baseline: returns the realized objective
/// report of applying `m` to a copy of `d`.
struct Trial {
  Design design;
  VariationReport report;
};

Trial goldenTrial(const Design& d, const sta::Timer& timer,
                  const Objective& objective, const Move& m) {
  Trial t{d, {}};
  applyMove(t.design, m);
  t.report = objective.evaluate(t.design, timer);
  return t;
}

const char* moveTypeLabel(MoveType t) {
  switch (t) {
    case MoveType::kSizeDisplace: return "size_displace";
    case MoveType::kChildDisplaceSize: return "child_displace_size";
    case MoveType::kReassign: return "reassign";
  }
  return "?";
}

bool skewOk(const std::vector<double>& before_local_skew,
            const std::vector<double>& after_local_skew, double tol) {
  for (std::size_t ki = 0; ki < before_local_skew.size(); ++ki)
    if (after_local_skew[ki] > before_local_skew[ki] * tol + 1.0)
      return false;
  return true;
}

/// One trial worker's persistent state: a design replica kept in lockstep
/// with the optimizer's design, the replica's own incremental multi-corner
/// timing, and the scoped-retime scratch reused by every trial the worker
/// runs. Created once per run and updated in place on each commit — the
/// only full design copies of the whole optimization.
struct WorkerContext {
  Design replica;
  sta::IncrementalTimer timing;
  sta::ScopedRetime overlay;
  UndoRecord undo;  // scratch reused by every trial this worker runs

  WorkerContext(const Design& d, const sta::IncrementalTimer& base)
      : replica(d), timing(base), overlay(timing) {}
};

/// Copy-free golden trial: apply the move to the worker's replica, retime
/// only its dirty subtrees in place, read the objective, roll everything
/// back. Bit-identical to evaluating a full copy (asserted by tests).
void goldenTrialScoped(WorkerContext& ctx, const Objective& objective,
                       const Move& m, TrialEval* out) {
  applyMoveUndoable(ctx.replica, m, &ctx.undo);
  ctx.overlay.retime(ctx.replica, ctx.undo.dirty);
  objective.evaluateTrial(ctx.replica, ctx.timing.timings(), out);
  ctx.overlay.rollback();
  undoMove(ctx.replica, ctx.undo);
}

}  // namespace

LocalResult LocalOptimizer::run(Design& d, const Objective& objective,
                                const DeltaLatencyModel* model,
                                std::size_t analytic_fallback) const {
  obs::Span run_span("local.run");
  LocalObs& lobs = LocalObs::get();
  LocalResult res;
  // The round's base timing: one full multi-corner STA here, then only
  // incremental subtree updates after each committed move.
  sta::IncrementalTimer base_timing(*tech_, d);
  const VariationReport initial =
      objective.evaluateFromTimings(d, base_timing.timings());
  double current_sum = initial.sum_variation_ps;
  res.sum_before_ps = current_sum;
  res.sum_after_ps = current_sum;
  if (opts_.max_iterations == 0) return res;

  // Flight record: round/commit trajectory, written only from this
  // (orchestrating) thread — the parallel trial slices never touch it.
  obs::FlightRecorder* rec = obs::currentFlightRecorder();
  if (rec != nullptr) {
    rec->beginObject("local");
    rec->field("sum_before_ps", res.sum_before_ps);
    rec->beginArray("rounds");
  }

  MovePredictor predictor(d, timer_, objective, model, analytic_fallback,
                          &base_timing.timings());

  support::ThreadPool& pool = support::ThreadPool::shared();
  const std::size_t max_workers =
      std::max<std::size_t>(1, opts_.threads ? opts_.threads : pool.size());
  std::vector<std::unique_ptr<WorkerContext>> workers;
  auto ensureWorkers = [&](std::size_t n) {
    while (workers.size() < n)
      workers.push_back(std::make_unique<WorkerContext>(d, base_timing));
  };
  std::vector<TrialEval> reports;  // slots reused across chunks and rounds
  std::vector<double> scores;      // scoreBatch output, reused across rounds
  ScoreMemo memo;                  // candidate analyses, reused across rounds

  for (std::size_t round = 0; round < opts_.max_iterations; ++round) {
    obs::Span round_span("local.round");
    round_span.arg("round", static_cast<std::int64_t>(round));
    lobs.rounds.add();
    if (round > 0) predictor.refresh(base_timing.timings());
    std::vector<Move> moves = enumerateAllMoves(d, opts_.enumerate);
    res.candidate_moves = moves.size();
    std::size_t round_trials = 0;
    if (rec != nullptr) {
      rec->beginObject();
      rec->field("round", static_cast<std::int64_t>(round));
      rec->field("candidates", static_cast<std::int64_t>(moves.size()));
    }

    std::vector<std::pair<double, std::size_t>> scored(moves.size());
    {
      obs::Span score_span("local.score");
      score_span.arg("candidates", static_cast<std::int64_t>(moves.size()));
      std::size_t reused = 0;
      if (opts_.batch_scoring) {
        scores.resize(moves.size());
        predictor.scoreBatch(moves, scores,
                             opts_.parallel_trials ? &pool : nullptr, &memo);
        reused = memo.reused();
        for (std::size_t i = 0; i < moves.size(); ++i)
          scored[i] = {scores[i], i};
      } else if (opts_.parallel_trials && moves.size() > 1) {
        pool.parallelFor(moves.size(), [&](std::size_t i) {
          scored[i] = {predictor.predictedVariationDelta(moves[i]), i};
        });
      } else {
        for (std::size_t i = 0; i < moves.size(); ++i)
          scored[i] = {predictor.predictedVariationDelta(moves[i]), i};
      }
      const std::size_t analyzed = moves.size() - reused;
      score_span.arg("reused", static_cast<std::int64_t>(reused));
      score_span.arg("analyzed", static_cast<std::int64_t>(analyzed));
      lobs.score_reused.add(reused);
      lobs.score_analyzed.add(analyzed);
    }
    std::sort(scored.begin(), scored.end());

    bool committed = false;
    for (std::size_t chunk = 0;
         chunk < opts_.max_chunks_per_round && !committed; ++chunk) {
      const std::size_t lo = chunk * opts_.r;
      if (lo >= scored.size()) break;
      if (scored[lo].first > -opts_.min_predicted_gain_ps) break;
      const std::size_t hi = std::min(scored.size(), lo + opts_.r);

      // Golden-evaluate the chunk (the paper's "R individual threads").
      std::vector<std::size_t> todo;
      for (std::size_t i = lo; i < hi; ++i) {
        if (scored[i].first > -opts_.min_predicted_gain_ps) break;
        todo.push_back(i);
      }
      if (reports.size() < todo.size()) reports.resize(todo.size());
      const std::size_t slices =
          (opts_.parallel_trials && todo.size() > 1)
              ? std::min(max_workers, todo.size())
              : 1;
      ensureWorkers(slices);
      pool.runSlices(slices, [&](std::size_t s) {
        for (std::size_t t = s; t < todo.size(); t += slices) {
          obs::Span trial_span("local.golden_trial");
          support::Stopwatch sw;
          goldenTrialScoped(*workers[s], objective,
                            moves[scored[todo[t]].second], &reports[t]);
          lobs.golden_ms.observe(sw.ms());
        }
      });
      res.golden_evaluations += todo.size();
      round_trials += todo.size();
      lobs.trials.add(todo.size());
      // Every trial in `todo` came with a predicted gain; a "hit" is one
      // that realized any improvement over the current sum. Driven purely
      // by the deterministic reports, so serial == parallel.
      for (std::size_t t = 0; t < todo.size(); ++t) {
        if (reports[t].sum_variation_ps < current_sum)
          lobs.predictor_hits.add();
        else
          lobs.predictor_misses.add();
      }

      // Pick the best realized improvement (lowest index on ties, so the
      // parallel and serial paths commit identically).
      double best_sum = current_sum;
      std::size_t best_t = todo.size();
      for (std::size_t t = 0; t < todo.size(); ++t) {
        if (reports[t].sum_variation_ps < best_sum &&
            skewOk(initial.local_skew_ps, reports[t].local_skew_ps,
                   opts_.local_skew_tolerance)) {
          best_sum = reports[t].sum_variation_ps;
          best_t = t;
        }
      }
      if (best_t < todo.size()) {
        const std::size_t best_idx = todo[best_t];
        const Move& mv = moves[scored[best_idx].second];
        LocalIteration it;
        it.round = round;
        it.type = mv.type;
        it.predicted_delta_ps = scored[best_idx].first;
        it.realized_delta_ps = reports[best_t].sum_variation_ps - current_sum;
        it.sum_after_ps = reports[best_t].sum_variation_ps;
        res.history.push_back(it);
        lobs.accepted.add();
        lobs.acceptedByType(mv.type).add();
        if (rec != nullptr) {
          rec->beginObject("commit");
          rec->field("type", moveTypeLabel(mv.type));
          rec->field("predicted_delta_ps", it.predicted_delta_ps);
          rec->field("realized_delta_ps", it.realized_delta_ps);
          rec->field("sum_after_ps", it.sum_after_ps);
          rec->beginArray("local_skew_ps");
          for (const double v : reports[best_t].local_skew_ps) rec->value(v);
          rec->endArray();
          rec->endObject();
        }
        // Commit: re-apply the move to the design and every replica and
        // retime just the dirty subtrees — no full STA, no design copies.
        const std::vector<int> dirty = applyMoveTracked(d, mv);
        base_timing.update(d, dirty);
        for (const std::unique_ptr<WorkerContext>& w : workers) {
          const std::vector<int> wdirty = applyMoveTracked(w->replica, mv);
          w->timing.update(w->replica, wdirty);
        }
        current_sum = reports[best_t].sum_variation_ps;
        committed = true;
      }
    }
    if (rec != nullptr) {
      rec->field("trials", static_cast<std::int64_t>(round_trials));
      rec->field("committed", committed);
      rec->endObject();
    }
    if (!committed) break;  // predictor shows no further reduction
  }
  res.sum_after_ps = current_sum;
  res.improved = res.sum_after_ps < res.sum_before_ps - 1e-9;
  if (rec != nullptr) {
    rec->endArray();
    rec->field("sum_after_ps", res.sum_after_ps);
    rec->field("accepted_moves",
               static_cast<std::int64_t>(res.history.size()));
    rec->field("golden_evaluations",
               static_cast<std::int64_t>(res.golden_evaluations));
    rec->field("improved", res.improved);
    rec->endObject();
  }
  check::gateDesign(d, timer_, check::effectiveLevel(opts_.check_level),
                    "local:output");
  return res;
}

LocalResult LocalOptimizer::runRandom(Design& d, const Objective& objective,
                                      std::uint64_t seed) const {
  LocalResult res;
  VariationReport current = objective.evaluate(d, timer_);
  const VariationReport initial = current;
  res.sum_before_ps = current.sum_variation_ps;
  geom::Rng rng(seed);

  LocalObs& lobs = LocalObs::get();
  for (std::size_t round = 0; round < opts_.max_iterations; ++round) {
    obs::Span round_span("local.random_round");
    round_span.arg("round", static_cast<std::int64_t>(round));
    lobs.rounds.add();
    std::vector<Move> moves = enumerateAllMoves(d, opts_.enumerate);
    if (moves.empty()) break;
    res.candidate_moves = moves.size();

    double best_sum = current.sum_variation_ps;
    std::optional<Trial> best_trial;  // no design copies until a winner
    MoveType best_type = MoveType::kSizeDisplace;
    for (std::size_t i = 0; i < opts_.r; ++i) {
      const Move& m = moves[rng.index(moves.size())];
      Trial t = goldenTrial(d, timer_, objective, m);
      ++res.golden_evaluations;
      lobs.trials.add();
      if (t.report.sum_variation_ps < best_sum &&
          skewOk(initial.local_skew_ps, t.report.local_skew_ps,
                 opts_.local_skew_tolerance)) {
        best_sum = t.report.sum_variation_ps;
        best_trial.emplace(std::move(t));
        best_type = m.type;
      }
    }
    if (!best_trial) continue;  // a random round may simply find nothing
    LocalIteration it;
    it.round = round;
    it.type = best_type;
    it.realized_delta_ps =
        best_trial->report.sum_variation_ps - current.sum_variation_ps;
    it.sum_after_ps = best_trial->report.sum_variation_ps;
    res.history.push_back(it);
    lobs.accepted.add();
    lobs.acceptedByType(best_type).add();
    d = std::move(best_trial->design);
    current = std::move(best_trial->report);
  }
  res.sum_after_ps = current.sum_variation_ps;
  res.improved = res.sum_after_ps < res.sum_before_ps - 1e-9;
  check::gateDesign(d, timer_, check::effectiveLevel(opts_.check_level),
                    "local:output");
  return res;
}

}  // namespace skewopt::core
