#include "core/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/moves.h"
#include "sta/incremental.h"
#include "support/thread_pool.h"
#include "testgen/testgen.h"

namespace skewopt::core {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

TEST(Moves, EnumerationMatchesTable2) {
  testgen::TestcaseOptions o;
  o.sinks = 60;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  std::size_t type1 = 0, type2 = 0, type3 = 0;
  for (const int b : d.tree.buffers()) {
    for (const Move& m : enumerateMoves(d, b)) {
      switch (m.type) {
        case MoveType::kSizeDisplace:
          ++type1;
          EXPECT_EQ(std::abs(m.delta.x) + std::abs(m.delta.y) > 0, true);
          EXPECT_GE(m.size_step, -1);
          EXPECT_LE(m.size_step, 1);
          break;
        case MoveType::kChildDisplaceSize:
          ++type2;
          EXPECT_GE(m.child, 0);
          EXPECT_NE(m.size_step, 0);
          break;
        case MoveType::kReassign:
          ++type3;
          EXPECT_GE(m.new_parent, 0);
          // Same-level constraint of Table 2.
          EXPECT_EQ(d.tree.level(m.new_parent),
                    d.tree.level(d.tree.node(m.node).parent));
          break;
      }
    }
  }
  EXPECT_GT(type1, 0u);
  EXPECT_GT(type2, 0u);
  // Type-III moves require same-level drivers within 50um; they exist in a
  // clustered design but are rarer.
  EXPECT_GE(type3, 0u);
}

TEST(Moves, PerBufferBudgetNearPaper45) {
  // Figure 6 talks about 45 candidate moves per buffer; our enumeration
  // must be in that ballpark (24 type-I + up to 16 type-II + up to 5
  // type-III).
  testgen::TestcaseOptions o;
  o.sinks = 60;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  for (const int b : d.tree.buffers()) {
    const std::size_t n = enumerateMoves(d, b).size();
    EXPECT_LE(n, 45u);
  }
}

TEST(Moves, ApplyMoveKeepsTreeValidAndReroutes) {
  testgen::TestcaseOptions o;
  o.sinks = 50;
  network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  geom::Rng rng(3);
  const std::vector<Move> moves = enumerateAllMoves(d);
  ASSERT_FALSE(moves.empty());
  for (int i = 0; i < 30; ++i) {
    const Move& m = moves[rng.index(moves.size())];
    network::Design copy = d;
    applyMove(copy, m);
    std::string err;
    ASSERT_TRUE(copy.tree.validate(&err)) << m.describe(d) << ": " << err;
    // Timing still runs (all touched nets rerouted).
    sta::Timer timer(sharedTech());
    EXPECT_NO_THROW(timer.analyzeDesign(copy));
  }
}

TEST(MoveAnalyzer, GroupsCoverMoveSemantics) {
  testgen::TestcaseOptions o;
  o.sinks = 50;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  sta::Timer timer(sharedTech());
  MoveAnalyzer analyzer(d, timer);
  for (const Move& m : enumerateAllMoves(d)) {
    const std::vector<ImpactGroup> groups = analyzer.analyze(m);
    ASSERT_FALSE(groups.empty());
    std::size_t primaries = 0;
    for (const ImpactGroup& g : groups) {
      if (g.primary) ++primaries;
      ASSERT_EQ(g.delta.size(), d.corners.size());
      for (const auto& per_corner : g.delta)
        for (const double v : per_corner) EXPECT_TRUE(std::isfinite(v));
    }
    EXPECT_EQ(primaries, 1u);
    if (m.type == MoveType::kReassign) {
      EXPECT_EQ(groups.size(), 3u);
    }
  }
}

TEST(MoveAnalyzer, FeaturesMatchPaperLayout) {
  testgen::TestcaseOptions o;
  o.sinks = 50;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  sta::Timer timer(sharedTech());
  MoveAnalyzer analyzer(d, timer);
  const std::vector<Move> moves = enumerateAllMoves(d);
  ASSERT_FALSE(moves.empty());
  const Move& m = moves.front();
  const std::vector<ImpactGroup> groups = analyzer.analyze(m);
  const ImpactGroup* primary = nullptr;
  for (const ImpactGroup& g : groups)
    if (g.primary) primary = &g;
  ASSERT_NE(primary, nullptr);
  const auto f = analyzer.features(m, *primary, 0);
  static_assert(kNumFeatures == 7);
  for (std::size_t i = 0; i < kNumAnalytic; ++i)
    EXPECT_DOUBLE_EQ(f[i], primary->delta[0][i]);
  EXPECT_GE(f[4], 1.0);              // fanout count
  EXPECT_GE(f[5], 0.0);              // bbox area
  EXPECT_GT(f[6], 0.0);              // aspect in (0,1]
  EXPECT_LE(f[6], 1.0);
}

TEST(MoveAnalyzer, AnalyticalEstimatesTrackGolden) {
  // On artificial cases the analytical estimator must correlate with the
  // golden delta (the ML model then shrinks the residual).
  geom::Rng rng(11);
  sta::Timer timer(sharedTech());
  double sxy = 0, sxx = 0, syy = 0, sx = 0, sy = 0;
  std::size_t n = 0;
  for (int c = 0; c < 4; ++c) {
    testgen::ArtificialCase ac =
        testgen::makeArtificialCase(sharedTech(), rng, c % 2 == 0);
    ac.design.corners = {0, 2};
    std::vector<Move> moves = enumerateMoves(ac.design, ac.target);
    moves.resize(std::min<std::size_t>(moves.size(), 20));
    const std::vector<MoveSample> samples =
        collectMoveSamples(ac.design, timer, moves);
    for (const MoveSample& s : samples) {
      const double x = s.features[0][0];  // flute+elmore estimate at c0
      const double y = s.golden_delta[0];
      sxy += x * y;
      sxx += x * x;
      syy += y * y;
      sx += x;
      sy += y;
      ++n;
    }
  }
  ASSERT_GT(n, 30u);
  const double nn = static_cast<double>(n);
  const double corr = (sxy - sx * sy / nn) /
                      (std::sqrt(sxx - sx * sx / nn) *
                           std::sqrt(syy - sy * sy / nn) +
                       1e-12);
  EXPECT_GT(corr, 0.5) << "analytical estimator uncorrelated with golden";
}

TEST(DeltaLatencyModel, TrainsAndBeatsPureAnalytical) {
  sta::Timer timer(sharedTech());
  DeltaLatencyModel model;
  TrainOptions t;
  t.cases = 14;
  t.moves_per_case = 16;
  t.mlp.epochs = 120;
  t.seed = 21;
  const std::size_t samples = model.train(sharedTech(), {0, 2}, t);
  EXPECT_GT(samples, 100u);
  EXPECT_TRUE(model.trainedFor(0));
  EXPECT_TRUE(model.trainedFor(2));
  EXPECT_FALSE(model.trainedFor(1));

  // Holdout artifacts exist and model error beats the analytical estimate
  // baseline would... compare |pred - golden| vs |golden| spread.
  const auto& hold = model.holdout(0);
  ASSERT_GT(hold.golden.size(), 10u);
  const double model_mae = ml::meanAbsError(hold.predicted, hold.golden);
  double spread = 0.0;
  for (const double g : hold.golden) spread += std::abs(g);
  spread /= static_cast<double>(hold.golden.size());
  EXPECT_LT(model_mae, spread) << "model no better than predicting zero";
}

TEST(MovePredictor, VariationDeltaMatchesGoldenDirectionally) {
  testgen::TestcaseOptions o;
  o.sinks = 50;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  sta::Timer timer(sharedTech());
  const Objective objective(d, timer);
  MovePredictor predictor(d, timer, objective, nullptr);
  const VariationReport before = objective.evaluate(d, timer);

  // Over a batch of moves, predicted improvement must rank real
  // improvement better than chance: check that among the 5 best-predicted
  // moves at least one genuinely improves.
  std::vector<Move> moves = enumerateAllMoves(d);
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t i = 0; i < moves.size(); ++i)
    scored.push_back({predictor.predictedVariationDelta(moves[i]), i});
  std::sort(scored.begin(), scored.end());
  ASSERT_GE(scored.size(), 5u);
  bool improved = false;
  for (std::size_t i = 0; i < 5; ++i) {
    network::Design copy = d;
    applyMove(copy, moves[scored[i].second]);
    const VariationReport after = objective.evaluate(copy, timer);
    if (after.sum_variation_ps < before.sum_variation_ps) improved = true;
  }
  EXPECT_TRUE(improved);
}

TEST(MovePredictor, ScoreBatchBitIdenticalToPerMoveScores) {
  // scoreBatch only restructures loops (route built once per net, corner
  // lanes evaluated together); every score must equal the scalar
  // predictedVariationDelta exactly, serial and pooled alike.
  testgen::TestcaseOptions o;
  o.sinks = 50;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  sta::Timer timer(sharedTech());
  const Objective objective(d, timer);
  MovePredictor predictor(d, timer, objective, nullptr);
  const std::vector<Move> moves = enumerateAllMoves(d);
  ASSERT_FALSE(moves.empty());

  std::vector<double> serial(moves.size());
  predictor.scoreBatch(moves, serial);
  support::ThreadPool pool(4);
  std::vector<double> pooled(moves.size());
  predictor.scoreBatch(moves, pooled, &pool);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const double scalar = predictor.predictedVariationDelta(moves[i]);
    EXPECT_EQ(serial[i], scalar) << "serial move " << i;
    EXPECT_EQ(pooled[i], scalar) << "pooled move " << i;
  }
}

// FNV-1a over the raw bits of every score, in order. Any change to a
// single low bit of any score changes the hash.
std::uint64_t scoreHash(std::uint64_t h, std::span<const double> scores) {
  for (const double s : scores) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(s);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// scoreBatch over every enumerated move of CLS1v1, CLS1v2 and CLS2v1 at
/// test scale, folded into one hash.
std::uint64_t paperCaseScoreHash(const DeltaLatencyModel* model) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  sta::Timer timer(sharedTech());
  for (const char* name : {"CLS1v1", "CLS1v2", "CLS2v1"}) {
    testgen::TestcaseOptions o;
    o.sinks = 60;
    const network::Design d = testgen::makeTestcase(sharedTech(), name, o);
    const Objective objective(d, timer);
    const MovePredictor predictor(d, timer, objective, model);
    const std::vector<Move> moves = enumerateAllMoves(d);
    std::vector<double> scores(moves.size());
    predictor.scoreBatch(moves, scores);
    h = scoreHash(h, scores);
  }
  return h;
}

// The scoring kernel is an optimization target; these pins prove a
// rewrite reproduces the recorded scores bit for bit, which the
// batch-vs-per-move comparisons (both sides run the same kernel) cannot.
// A deliberate change to the scores must re-record them and say so.
TEST(MovePredictor, ScoreHashPinnedAnalytic) {
  EXPECT_EQ(paperCaseScoreHash(nullptr), 0xf03a34e724887353ull);
}

TEST(MovePredictor, ScoreHashPinnedHsm) {
  DeltaLatencyModel model;
  TrainOptions t;
  t.cases = 10;
  t.moves_per_case = 16;
  t.mlp.epochs = 80;
  t.seed = 23;
  ASSERT_GT(model.train(sharedTech(), {0, 1, 2, 3}, t), 50u);
  EXPECT_EQ(paperCaseScoreHash(&model), 0x5fe1f02eea6174a2ull);
}

/// Scores `moves` with a new predictor on a new thread, whose per-thread
/// scoring scratch has never served another design.
std::vector<double> freshScores(const network::Design& d,
                                const sta::Timer& timer,
                                const Objective& objective,
                                const std::vector<Move>& moves) {
  std::vector<double> out(moves.size());
  std::thread([&] {
    const MovePredictor predictor(d, timer, objective, nullptr);
    predictor.scoreBatch(moves, out);
  }).join();
  return out;
}

TEST(MovePredictor, ScratchReuseAcrossDesignsMatchesFreshPredictor) {
  // The same pool threads score a large design, a smaller one with a
  // different corner count, and the large one again after a committed
  // move: scratch left behind by an earlier design must never leak into a
  // later score.
  sta::Timer timer(sharedTech());
  support::ThreadPool pool(4);
  testgen::TestcaseOptions o;
  o.sinks = 150;
  network::Design large = testgen::makeTestcase(sharedTech(), "CLS1v1", o);
  o.sinks = 40;
  network::Design small = testgen::makeTestcase(sharedTech(), "CLS2v1", o);
  small.corners = {0, 1, 2, 3};
  ASSERT_NE(small.corners.size(), large.corners.size());
  const Objective large_obj(large, timer);
  const Objective small_obj(small, timer);

  auto expectFresh = [&](const network::Design& d, const Objective& obj,
                         const MovePredictor& predictor, const char* what) {
    const std::vector<Move> moves = enumerateAllMoves(d);
    ASSERT_FALSE(moves.empty()) << what;
    std::vector<double> pooled(moves.size()), serial(moves.size());
    predictor.scoreBatch(moves, pooled, &pool);
    predictor.scoreBatch(moves, serial);
    const std::vector<double> fresh = freshScores(d, timer, obj, moves);
    for (std::size_t i = 0; i < moves.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled[i]),
                std::bit_cast<std::uint64_t>(fresh[i]))
          << what << " pooled move " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(serial[i]),
                std::bit_cast<std::uint64_t>(fresh[i]))
          << what << " serial move " << i;
    }
  };

  MovePredictor large_pred(large, timer, large_obj, nullptr);
  expectFresh(large, large_obj, large_pred, "large");
  const MovePredictor small_pred(small, timer, small_obj, nullptr);
  expectFresh(small, small_obj, small_pred, "small");

  // Commit the best-predicted move, as a local round does, then refresh.
  const std::vector<Move> moves = enumerateAllMoves(large);
  std::vector<double> scores(moves.size());
  large_pred.scoreBatch(moves, scores, &pool);
  const std::size_t best = static_cast<std::size_t>(
      std::min_element(scores.begin(), scores.end()) - scores.begin());
  applyMove(large, moves[best]);
  large_pred.refresh();
  expectFresh(large, large_obj, large_pred, "large after commit");
}

/// Cold scores of `moves` from a brand-new predictor (full analysis of `d`).
std::vector<double> coldScores(const network::Design& d,
                               const sta::Timer& timer,
                               const Objective& objective,
                               const DeltaLatencyModel* model,
                               const std::vector<Move>& moves) {
  const MovePredictor fresh(d, timer, objective, model);
  std::vector<double> out(moves.size());
  fresh.scoreBatch(moves, out);
  return out;
}

void expectBitsEqual(const std::vector<double>& got,
                     const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " move " << i;
}

TEST(ScoreMemo, MemoMatchesColdScoringAcrossRounds) {
  // Local rounds as the optimizer runs them: score with the memo, commit
  // one move (the best-predicted, or in round 2 the best type-III move),
  // update the incremental timing, refresh. Every round's memoized scores
  // must equal a fresh predictor's cold ones bit for bit, and from round 1
  // on some candidates must have reused their values.
  DeltaLatencyModel hsm;
  TrainOptions t;
  t.cases = 10;
  t.moves_per_case = 16;
  t.mlp.epochs = 80;
  t.seed = 23;
  ASSERT_GT(hsm.train(sharedTech(), {0, 1, 2, 3}, t), 50u);
  sta::Timer timer(sharedTech());
  support::ThreadPool pool(4);
  const DeltaLatencyModel* const models[] = {nullptr, &hsm};
  for (const DeltaLatencyModel* model : models) {
    for (const char* name : {"CLS1v1", "CLS1v2", "CLS2v1"}) {
      const std::string tag =
          std::string(name) + (model != nullptr ? " hsm" : " analytic");
      testgen::TestcaseOptions o;
      o.sinks = 60;
      network::Design d = testgen::makeTestcase(sharedTech(), name, o);
      const Objective objective(d, timer);
      sta::IncrementalTimer timing(sharedTech(), d);
      MovePredictor predictor(d, timer, objective, model, 0,
                              &timing.timings());
      ScoreMemo memo;
      bool reassigned = false;
      for (std::size_t round = 0; round < 6; ++round) {
        const std::string what = tag + " round " + std::to_string(round);
        if (round > 0) predictor.refresh(timing.timings());
        const std::vector<Move> moves = enumerateAllMoves(d);
        ASSERT_FALSE(moves.empty()) << what;
        std::vector<double> scores(moves.size());
        // Odd rounds score serially, even rounds on the pool.
        predictor.scoreBatch(moves, scores, round % 2 == 0 ? &pool : nullptr,
                             &memo);
        expectBitsEqual(scores,
                        coldScores(d, timer, objective, model, moves), what);
        if (round == 0)
          EXPECT_EQ(memo.reused(), 0u) << what;
        else
          EXPECT_GT(memo.reused(), 0u) << what;

        std::size_t pick = moves.size();
        for (std::size_t i = 0; i < moves.size(); ++i) {
          if (round == 2 && moves[i].type != MoveType::kReassign) continue;
          if (pick == moves.size() || scores[i] < scores[pick]) pick = i;
        }
        ASSERT_LT(pick, moves.size()) << what << ": no type-III candidate";
        reassigned = reassigned || moves[pick].type == MoveType::kReassign;
        timing.update(d, applyMoveTracked(d, moves[pick]));
      }
      EXPECT_TRUE(reassigned) << tag;
    }
  }
}

TEST(ScoreMemo, ResetsForAnotherDesignOrModel) {
  // A memo that scored one design must not serve another design's
  // candidates, nor the same design under another model: the first batch
  // after either switch analyzes everything and still matches cold scores.
  sta::Timer timer(sharedTech());
  testgen::TestcaseOptions o;
  o.sinks = 60;
  const network::Design a = testgen::makeTestcase(sharedTech(), "CLS1v1", o);
  const network::Design b = testgen::makeTestcase(sharedTech(), "CLS1v2", o);
  const Objective obj_a(a, timer);
  const Objective obj_b(b, timer);
  const std::vector<Move> moves_a = enumerateAllMoves(a);
  const std::vector<Move> moves_b = enumerateAllMoves(b);
  std::vector<double> scores_a(moves_a.size()), scores_b(moves_b.size());
  ScoreMemo memo;

  const MovePredictor pred_a(a, timer, obj_a, nullptr);
  pred_a.scoreBatch(moves_a, scores_a, nullptr, &memo);
  pred_a.scoreBatch(moves_a, scores_a, nullptr, &memo);
  EXPECT_EQ(memo.reused(), moves_a.size());  // nothing changed
  EXPECT_GT(memo.bytes(), 0u);

  const MovePredictor pred_b(b, timer, obj_b, nullptr);
  pred_b.scoreBatch(moves_b, scores_b, nullptr, &memo);
  EXPECT_EQ(memo.reused(), 0u);
  expectBitsEqual(scores_b, coldScores(b, timer, obj_b, nullptr, moves_b),
                  "other design");

  const MovePredictor pred_b3(b, timer, obj_b, nullptr, 3);
  pred_b3.scoreBatch(moves_b, scores_b, nullptr, &memo);
  EXPECT_EQ(memo.reused(), 0u);
  std::vector<double> cold(moves_b.size());
  pred_b3.scoreBatch(moves_b, cold);
  expectBitsEqual(scores_b, cold, "other fallback");
}

TEST(ScoreMemo, FailedBatchLeavesNoStaleEntries) {
  // A batch that throws, on an invalid node or inside the analysis (a
  // move of the source, which has no parent), must not leave entries
  // marked computed: the next batch analyzes everything again.
  sta::Timer timer(sharedTech());
  testgen::TestcaseOptions o;
  o.sinks = 60;
  const network::Design d = testgen::makeTestcase(sharedTech(), "CLS1v1", o);
  const Objective objective(d, timer);
  const MovePredictor predictor(d, timer, objective, nullptr);
  const std::vector<Move> moves = enumerateAllMoves(d);
  std::vector<double> scores(moves.size() + 1);
  ScoreMemo memo;
  predictor.scoreBatch(moves, std::span<double>(scores).first(moves.size()),
                       nullptr, &memo);
  for (const int bad_node : {static_cast<int>(d.tree.numNodes()), 0}) {
    std::vector<Move> batch = moves;
    Move bad;
    bad.node = bad_node;
    bad.delta = {10.0, 0.0};
    batch.push_back(bad);
    EXPECT_THROW(predictor.scoreBatch(batch, scores, nullptr, &memo),
                 std::out_of_range)
        << "node " << bad_node;
    std::vector<double> again(moves.size());
    predictor.scoreBatch(moves, again, nullptr, &memo);
    EXPECT_EQ(memo.reused(), 0u) << "node " << bad_node;
    expectBitsEqual(again, coldScores(d, timer, objective, nullptr, moves),
                    "after failed batch");
  }
}

TEST(GoldenDelta, TinyMoveTinyDelta) {
  geom::Rng rng(31);
  testgen::ArtificialCase ac =
      testgen::makeArtificialCase(sharedTech(), rng, true);
  ac.design.corners = {0};
  sta::Timer timer(sharedTech());
  Move m;
  m.type = MoveType::kSizeDisplace;
  m.node = ac.target;
  m.delta = {0.2, 0.0};  // sub-site nudge
  m.size_step = 0;
  const std::vector<double> delta = goldenDelta(ac.design, timer, m);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_LT(std::abs(delta[0]), 8.0);  // only legalization + jog noise
}

}  // namespace
}  // namespace skewopt::core
