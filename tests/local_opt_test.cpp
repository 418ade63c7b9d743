#include "core/local_opt.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/moves.h"
#include "obs/metrics.h"
#include "sta/incremental.h"
#include "testgen/testgen.h"

namespace skewopt::core {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

network::Design makeDesign(std::size_t sinks = 70, std::uint64_t seed = 1) {
  testgen::TestcaseOptions o;
  o.sinks = sinks;
  o.seed = seed;
  return testgen::makeCls1(sharedTech(), "v1", o);
}

class LocalOptTest : public ::testing::Test {
 protected:
  sta::Timer timer_{sharedTech()};
};

TEST_F(LocalOptTest, NeverDegradesObjective) {
  network::Design d = makeDesign();
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 4;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.run(d, objective, nullptr);
  EXPECT_LE(r.sum_after_ps, r.sum_before_ps + 1e-6);
  EXPECT_NEAR(objective.evaluate(d, timer_).sum_variation_ps, r.sum_after_ps,
              1e-6);
}

TEST_F(LocalOptTest, HistoryMonotoneAndTyped) {
  network::Design d = makeDesign(80, 2);
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 6;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.run(d, objective, nullptr);
  double prev = r.sum_before_ps;
  for (const LocalIteration& it : r.history) {
    EXPECT_LT(it.sum_after_ps, prev);  // every committed move improved
    EXPECT_NEAR(it.sum_after_ps - prev, it.realized_delta_ps, 1e-6);
    EXPECT_LT(it.predicted_delta_ps, 0.0);  // only predicted-improving tried
    prev = it.sum_after_ps;
  }
  EXPECT_NEAR(prev, r.sum_after_ps, 1e-6);
  EXPECT_GT(r.golden_evaluations, 0u);
}

TEST_F(LocalOptTest, FindsImprovementsOnRealTestcase) {
  network::Design d = makeDesign(80, 3);
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 5;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.run(d, objective, nullptr);
  EXPECT_TRUE(r.improved);
  EXPECT_FALSE(r.history.empty());
}

TEST_F(LocalOptTest, LocalSkewGuarded) {
  network::Design d = makeDesign(80, 4);
  const Objective objective(d, timer_);
  const VariationReport before = objective.evaluate(d, timer_);
  LocalOptions o;
  o.max_iterations = 6;
  LocalOptimizer opt(sharedTech(), o);
  opt.run(d, objective, nullptr);
  const VariationReport after = objective.evaluate(d, timer_);
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
    EXPECT_LE(after.local_skew_ps[ki],
              before.local_skew_ps[ki] * o.local_skew_tolerance + 1.0 + 1e-9);
}

TEST_F(LocalOptTest, TreeValidAfterOptimization) {
  network::Design d = makeDesign(60, 5);
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 4;
  LocalOptimizer opt(sharedTech(), o);
  opt.run(d, objective, nullptr);
  std::string err;
  EXPECT_TRUE(d.tree.validate(&err)) << err;
}

TEST_F(LocalOptTest, RandomBaselineWeaker) {
  // The Figure 8 claim: guided local optimization beats random moves given
  // the same golden-evaluation budget.
  network::Design guided = makeDesign(80, 6);
  network::Design random = guided;
  const Objective objective(guided, timer_);
  LocalOptions o;
  o.max_iterations = 5;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult rg = opt.run(guided, objective, nullptr);
  const LocalResult rr = opt.runRandom(random, objective, 77);
  EXPECT_LE(rg.sum_after_ps, rr.sum_after_ps + 1e-6)
      << "random search should not beat the predictor-guided flow";
}

TEST_F(LocalOptTest, RandomRunNeverDegrades) {
  network::Design d = makeDesign(60, 7);
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 4;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.runRandom(d, objective, 5);
  EXPECT_LE(r.sum_after_ps, r.sum_before_ps + 1e-6);
}

TEST_F(LocalOptTest, ParallelTrialsBitIdenticalToSerial) {
  // The paper implements the top-R moves in R threads; our parallel path
  // must commit exactly what the serial path commits.
  network::Design serial = makeDesign(70, 9);
  network::Design parallel = serial;
  const Objective objective(serial, timer_);
  LocalOptions o;
  o.max_iterations = 3;
  o.parallel_trials = false;
  const LocalResult rs = LocalOptimizer(sharedTech(), o).run(serial, objective, nullptr);
  o.parallel_trials = true;
  const LocalResult rp =
      LocalOptimizer(sharedTech(), o).run(parallel, objective, nullptr);
  EXPECT_DOUBLE_EQ(rs.sum_after_ps, rp.sum_after_ps);
  EXPECT_EQ(rs.history.size(), rp.history.size());
  EXPECT_EQ(rs.golden_evaluations, rp.golden_evaluations);
  EXPECT_EQ(serial.tree.numNodes(), parallel.tree.numNodes());
}

TEST_F(LocalOptTest, SerialAndParallelCommitIdenticalHistories) {
  // Beyond the aggregate check above: every committed move must match
  // entry-for-entry, even when more trial workers than cores interleave.
  network::Design serial = makeDesign(70, 11);
  network::Design parallel = serial;
  const Objective objective(serial, timer_);
  LocalOptions o;
  o.max_iterations = 4;
  o.parallel_trials = false;
  const LocalResult rs =
      LocalOptimizer(sharedTech(), o).run(serial, objective, nullptr);
  o.parallel_trials = true;
  o.threads = 4;  // force real interleaving even on single-core hosts
  const LocalResult rp =
      LocalOptimizer(sharedTech(), o).run(parallel, objective, nullptr);
  ASSERT_EQ(rs.history.size(), rp.history.size());
  for (std::size_t i = 0; i < rs.history.size(); ++i) {
    EXPECT_EQ(rs.history[i].round, rp.history[i].round);
    EXPECT_EQ(rs.history[i].type, rp.history[i].type);
    EXPECT_DOUBLE_EQ(rs.history[i].predicted_delta_ps,
                     rp.history[i].predicted_delta_ps);
    EXPECT_DOUBLE_EQ(rs.history[i].realized_delta_ps,
                     rp.history[i].realized_delta_ps);
    EXPECT_DOUBLE_EQ(rs.history[i].sum_after_ps, rp.history[i].sum_after_ps);
  }
  EXPECT_DOUBLE_EQ(rs.sum_after_ps, rp.sum_after_ps);
  EXPECT_EQ(rs.golden_evaluations, rp.golden_evaluations);
}

void expectTimingsEqual(const std::vector<sta::CornerTiming>& a,
                        const std::vector<sta::CornerTiming>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t ki = 0; ki < a.size(); ++ki) {
    ASSERT_EQ(a[ki].arrival.size(), b[ki].arrival.size()) << what;
    for (std::size_t i = 0; i < a[ki].arrival.size(); ++i) {
      EXPECT_EQ(a[ki].arrival[i], b[ki].arrival[i])
          << what << " arrival corner " << ki << " node " << i;
      EXPECT_EQ(a[ki].slew[i], b[ki].slew[i])
          << what << " slew corner " << ki << " node " << i;
      EXPECT_EQ(a[ki].in_arrival[i], b[ki].in_arrival[i])
          << what << " in_arrival corner " << ki << " node " << i;
      EXPECT_EQ(a[ki].in_slew[i], b[ki].in_slew[i])
          << what << " in_slew corner " << ki << " node " << i;
      EXPECT_EQ(a[ki].driver_load[i], b[ki].driver_load[i])
          << what << " driver_load corner " << ki << " node " << i;
    }
  }
}

TEST_F(LocalOptTest, ScopedRetimeRollbackBitIdentical) {
  // The overlay must equal a fresh full analysis of the edited design, and
  // rollback + undo must restore timing and design bit-identically — the
  // invariant the copy-free trial engine rests on.
  const network::Design original = makeDesign(70, 12);
  const std::vector<sta::CornerTiming> fresh_original =
      sta::IncrementalTimer(sharedTech(), original).timings();

  std::vector<Move> moves = enumerateAllMoves(original, {});
  ASSERT_FALSE(moves.empty());
  // A spread of candidates covering all three move types.
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < moves.size(); i += moves.size() / 7 + 1)
    picks.push_back(i);

  network::Design d = original;
  sta::IncrementalTimer base(sharedTech(), d);
  sta::ScopedRetime overlay(base);
  for (const std::size_t pi : picks) {
    const Move& m = moves[pi];
    const UndoRecord undo = applyMoveUndoable(d, m);
    overlay.retime(d, undo.dirty);
    const std::vector<sta::CornerTiming> fresh_edited =
        sta::IncrementalTimer(sharedTech(), d).timings();
    expectTimingsEqual(base.timings(), fresh_edited, "overlay vs fresh");
    overlay.rollback();
    undoMove(d, undo);
    expectTimingsEqual(base.timings(), fresh_original, "rollback vs base");
  }
  // After every trial was undone the design itself is back to the original.
  std::string err;
  ASSERT_TRUE(d.tree.validate(&err)) << err;
  expectTimingsEqual(sta::IncrementalTimer(sharedTech(), d).timings(),
                     fresh_original, "undone design vs original");
}

TEST_F(LocalOptTest, BatchScoringIdenticalHistoryToPerMove) {
  // Batch scoring reuses each unchanged candidate's analysis across rounds
  // (ScoreMemo); the per-move path analyzes everything every round. With
  // batch scoring on vs off the optimizer must rank, trial, and commit
  // exactly the same moves, and the memo must actually have been used.
  network::Design batched = makeDesign(70, 13);
  network::Design per_move = batched;
  const Objective objective(batched, timer_);
  LocalOptions o;
  o.max_iterations = 6;
  o.batch_scoring = true;
  const obs::Counter& reused = obs::MetricsRegistry::global().counter(
      "skewopt_local_score_reused_total");
  const std::uint64_t reused_before = reused.value();
  obs::setMetricsEnabled(true);
  const LocalResult rb =
      LocalOptimizer(sharedTech(), o).run(batched, objective, nullptr);
  obs::setMetricsEnabled(false);
  EXPECT_GE(rb.history.size(), 2u);  // enough rounds for reuse to matter
  EXPECT_GT(reused.value(), reused_before);
  o.batch_scoring = false;
  const LocalResult rm =
      LocalOptimizer(sharedTech(), o).run(per_move, objective, nullptr);
  ASSERT_EQ(rb.history.size(), rm.history.size());
  for (std::size_t i = 0; i < rb.history.size(); ++i) {
    EXPECT_EQ(rb.history[i].round, rm.history[i].round);
    EXPECT_EQ(rb.history[i].type, rm.history[i].type);
    EXPECT_EQ(rb.history[i].predicted_delta_ps,
              rm.history[i].predicted_delta_ps);
    EXPECT_EQ(rb.history[i].realized_delta_ps,
              rm.history[i].realized_delta_ps);
    EXPECT_EQ(rb.history[i].sum_after_ps, rm.history[i].sum_after_ps);
  }
  EXPECT_EQ(rb.sum_after_ps, rm.sum_after_ps);
  EXPECT_EQ(rb.golden_evaluations, rm.golden_evaluations);
  EXPECT_EQ(batched.tree.numNodes(), per_move.tree.numNodes());
}

TEST_F(LocalOptTest, BatchScoringIdenticalUnderParallelTrials) {
  // The pooled scoreBatch path (parallel_trials on) must also reproduce the
  // serial per-move history exactly.
  network::Design batched = makeDesign(70, 14);
  network::Design per_move = batched;
  const Objective objective(batched, timer_);
  LocalOptions o;
  o.max_iterations = 3;
  o.batch_scoring = true;
  o.parallel_trials = true;
  o.threads = 4;
  const LocalResult rb =
      LocalOptimizer(sharedTech(), o).run(batched, objective, nullptr);
  o.batch_scoring = false;
  o.parallel_trials = false;
  const LocalResult rm =
      LocalOptimizer(sharedTech(), o).run(per_move, objective, nullptr);
  ASSERT_EQ(rb.history.size(), rm.history.size());
  for (std::size_t i = 0; i < rb.history.size(); ++i) {
    EXPECT_EQ(rb.history[i].type, rm.history[i].type);
    EXPECT_EQ(rb.history[i].predicted_delta_ps,
              rm.history[i].predicted_delta_ps);
    EXPECT_EQ(rb.history[i].sum_after_ps, rm.history[i].sum_after_ps);
  }
  EXPECT_EQ(rb.sum_after_ps, rm.sum_after_ps);
}

TEST_F(LocalOptTest, ZeroIterationsIsNoOp) {
  network::Design d = makeDesign(50, 8);
  const Objective objective(d, timer_);
  const double before = objective.evaluate(d, timer_).sum_variation_ps;
  LocalOptions o;
  o.max_iterations = 0;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.run(d, objective, nullptr);
  EXPECT_DOUBLE_EQ(r.sum_after_ps, before);
  EXPECT_TRUE(r.history.empty());
}

}  // namespace
}  // namespace skewopt::core
