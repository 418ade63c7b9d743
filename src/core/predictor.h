// Delta-latency prediction for local moves (paper Sec. 4.2).
//
// For every candidate move the paper first estimates the new routing with
// two topologies (a FLUTE tree and a single-trunk Steiner tree) and the new
// wire delays with two metrics (Elmore and D2M), updates the driver and its
// resized child through Liberty interpolation, propagates slew with PERI,
// and refreshes gate delays one and two stages downstream. Those four
// analytical delta-latency estimates — plus the fanout count and the
// bounding-box area and aspect ratio of the driven pins — feed a per-corner
// machine-learning model (ANN / SVM-RBF / HSM) that predicts the *actual*
// post-ECO delta-latency the golden timer would report.
//
// MoveAnalyzer produces the analytical estimates and features;
// DeltaLatencyModel owns the trained per-corner regressors;
// MovePredictor combines them into predicted skew-variation changes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/moves.h"
#include "core/objective.h"
#include "ml/ml.h"
#include "network/design.h"
#include "sta/timer.h"

namespace skewopt::support {
class ThreadPool;
}

namespace skewopt::core {

/// Index layout of the four analytical estimators.
///   0: FLUTE x Elmore   1: FLUTE x D2M
///   2: single-trunk x Elmore   3: single-trunk x D2M
inline constexpr std::size_t kNumAnalytic = 4;
const char* analyticName(std::size_t idx);

/// Feature vector layout fed to the ML model (paper Sec. 4.2): the four
/// analytical estimates, fanout-cell count, bounding-box area, aspect.
inline constexpr std::size_t kNumFeatures = kNumAnalytic + 3;

/// One group of sinks shifted together by a move, with its per-corner,
/// per-estimator analytical delta-latency. A move's groups come in a fixed
/// order: the moved node's sinks (primary); its old parent's sinks minus
/// the moved node's (types I/II only when the parent has other children);
/// for type III, the new parent's sinks.
struct ImpactGroup {
  bool primary = false;  ///< the group the ML model corrects
  /// delta[cornerIdx][estimator], ps.
  std::vector<std::array<double, kNumAnalytic>> delta;
};

/// Analytical move analysis against a fixed baseline timing.
class MoveAnalyzer {
 public:
  /// When `baseline` is non-null its timing states are adopted instead of
  /// running a fresh full analysis — callers that already maintain the
  /// design's multi-corner timing (the local optimizer's per-round
  /// IncrementalTimer) pass it here so each round costs one STA, not two.
  MoveAnalyzer(const network::Design& d, const sta::Timer& timer,
               const std::vector<sta::CornerTiming>* baseline = nullptr);

  /// Re-times the baseline after the design changed.
  void refresh();

  /// Adopts an externally computed baseline (must match the design's
  /// active corners) instead of re-analyzing.
  void refresh(const std::vector<sta::CornerTiming>& baseline);

  /// Affected sink groups and their analytical delta estimates.
  std::vector<ImpactGroup> analyze(const Move& m) const;

  /// analyze() into caller-owned storage: fills the first n slots of
  /// `slots` and returns n. `slots` is grown as needed and never shrunk,
  /// so a reused vector makes the call allocation-free once warm. Uses
  /// per-thread scratch; safe to call concurrently from different threads.
  std::size_t analyzeInto(const Move& m, std::vector<ImpactGroup>& slots) const;

  /// The kNumFeatures model inputs of a move at active-corner index ki
  /// (requires the groups from analyze(), to reuse the primary estimates).
  std::array<double, kNumFeatures> features(const Move& m,
                                            const ImpactGroup& primary,
                                            std::size_t ki) const;

  const std::vector<sta::CornerTiming>& baseline() const { return timing_; }
  const network::Design& design() const { return *design_; }
  /// Sinks under each node id, as of the last refresh (the fanout weights).
  const std::vector<std::size_t>& subtreeSinkCounts() const {
    return subtree_sink_count_;
  }

 private:
  void refreshSinkCounts();

  // Corner-batched net estimation: the candidate route is a function of
  // pin positions only, so it is built once, and the RC/NLDM evaluation
  // runs over all active corners as SoA lanes (RcTreeBatch +
  // elmoreMomentsBatch + the cells' corner-major packed tables) instead of
  // once per corner. Each lane is bit-identical to the former per-corner
  // scalar estimate.
  struct BatchDriverSpec;
  struct BatchChildren;
  struct NetEstimatesBatch;
  struct Scratch;
  static Scratch& threadScratch();
  void estimateNetBatch(const BatchDriverSpec& drv,
                        const BatchChildren& children, int route_model,
                        NetEstimatesBatch& est, Scratch& s) const;
  // Gate-delay change one and two stages below `node` when its input slew
  // moves from `in_slew_old` to `in_slew_new` (one lookup per node).
  double downstreamGateDelta(int node, double in_slew_new, double in_slew_old,
                             std::size_t ki, int depth) const;

  const network::Design* design_;
  const sta::Timer* timer_;
  std::vector<sta::CornerTiming> timing_;
  std::vector<std::size_t> subtree_sink_count_;
};

// ---------------------------------------------------------------------------

struct TrainOptions {
  std::size_t cases = 40;           ///< paper: 150 artificial testcases
  std::size_t moves_per_case = 40;  ///< paper: ~450 moves per testcase
  double last_stage_fraction = 0.35;
  std::uint64_t seed = 5;
  enum class Family { kHsm, kAnn, kSvr } family = Family::kHsm;
  ml::MlpOptions mlp;
  ml::SvrOptions svr;
};

/// Per-corner delta-latency regressors trained on artificial testcases.
class DeltaLatencyModel {
 public:
  /// Trains one model per corner id in `corners`. Returns the number of
  /// training samples collected per corner.
  std::size_t train(const tech::TechModel& tech,
                    const std::vector<std::size_t>& corners,
                    const TrainOptions& opts);

  bool trainedFor(std::size_t corner) const;

  /// Corrected delta-latency (ps) at a corner from the feature vector.
  double predict(std::size_t corner,
                 const std::array<double, kNumFeatures>& feat) const;

  /// Training-set evaluation artifacts for the Figure 5 bench: predicted
  /// and golden deltas of a held-out sample set.
  struct Holdout {
    std::vector<double> predicted;
    std::vector<double> golden;
  };
  const Holdout& holdout(std::size_t corner) const;

 private:
  struct PerCorner {
    ml::StandardScaler scaler;
    std::unique_ptr<ml::Regressor> model;
    Holdout holdout;
    /// Residual-correction clamp (training-set residual range): guards
    /// against wild extrapolation on out-of-distribution moves.
    double residual_lo = 0.0, residual_hi = 0.0;
  };
  std::vector<PerCorner> per_corner_;  // indexed by corner id
};

/// Collects (features, golden delta) samples for one design's moves —
/// shared by the trainer and the Figure 5/6 benches.
struct MoveSample {
  Move move;
  std::vector<std::array<double, kNumFeatures>> features;  // per active corner
  std::vector<double> golden_delta;                        // per active corner
};
std::vector<MoveSample> collectMoveSamples(const network::Design& d,
                                           const sta::Timer& timer,
                                           const std::vector<Move>& moves);

/// Golden delta-latency of a move: apply to a copy, retime, and average the
/// latency change over the sinks of the move's primary subtree. One value
/// per active corner.
std::vector<double> goldenDelta(const network::Design& d,
                                const sta::Timer& timer, const Move& m);

// ---------------------------------------------------------------------------

/// Cross-round memo for MovePredictor::scoreBatch. For each candidate it
/// keeps the per-group, per-corner latency shifts the variation kernel
/// consumes: the ML-corrected value of the primary group and the analytic
/// fallback of the others. A later batch reuses them, skipping analysis,
/// features and model inference, while the candidate's read set is bitwise
/// unchanged. The read set is what analyzeInto/features read: the moved
/// node, its parent and the parent's children, its children and
/// grandchildren, and for a reassignment the new parent and its children.
/// Per node the read state is kind, position, cell, parent, children,
/// subtree sink count, and per corner input slew, driver load and input
/// arrival. Each batch diffs that state for every node against a snapshot,
/// so the memo needs no dirty set from the caller. The variation kernel
/// runs for every candidate against the current base, so memoized scores
/// are bit-identical to cold ones. The memo resets itself when the design,
/// corners, timer, model, fallback or node count change. One owner; the
/// memo itself is not thread-safe.
class ScoreMemo {
 public:
  ScoreMemo();
  ~ScoreMemo();
  ScoreMemo(const ScoreMemo&) = delete;
  ScoreMemo& operator=(const ScoreMemo&) = delete;

  /// Candidates of the last batch that reused their memoized values; the
  /// rest were analyzed from scratch.
  std::size_t reused() const;
  /// Heap bytes the memo holds.
  std::size_t bytes() const;

 private:
  friend class MovePredictor;
  struct State;
  std::unique_ptr<State> s_;
};

/// Combines analyzer + model + objective into move scoring.
class MovePredictor {
 public:
  /// `model` may be null: the predictor then falls back to the analytical
  /// estimator `analytic_fallback` (0..3) — this is the paper's Figure 6
  /// comparison axis. A non-null `baseline` is adopted as the current
  /// timing instead of running a full analysis (see MoveAnalyzer).
  MovePredictor(const network::Design& d, const sta::Timer& timer,
                const Objective& objective, const DeltaLatencyModel* model,
                std::size_t analytic_fallback = 0,
                const std::vector<sta::CornerTiming>* baseline = nullptr);

  void refresh();

  /// refresh() adopting an externally computed baseline timing.
  void refresh(const std::vector<sta::CornerTiming>& baseline);

  /// Predicted per-active-corner delta-latency of the move's primary group
  /// (ML-corrected when a model is present).
  std::vector<double> predictedPrimaryDelta(const Move& m) const;

  /// Predicted change of the sum of normalized skew variations (ps;
  /// negative is an improvement).
  double predictedVariationDelta(const Move& m) const;

  /// Scores a whole round's candidate table in one call:
  /// out[i] = predictedVariationDelta(moves[i]). With a pool the moves are
  /// scored on its threads (scoring is const; each thread works in its own
  /// reused scratch); results are identical either way. `out` must have
  /// `moves.size()` slots. With a `memo`, candidates whose read set did not
  /// change since the memo last scored them reuse their group values; the
  /// scores are bit-identical to a call without one. Also feeds the
  /// skewopt_local_score_batch_size histogram.
  void scoreBatch(std::span<const Move> moves, std::span<double> out,
                  support::ThreadPool* pool = nullptr,
                  ScoreMemo* memo = nullptr) const;

  const MoveAnalyzer& analyzer() const { return analyzer_; }

 private:
  struct Scratch;
  static Scratch& threadScratch();
  void rebuildBase();
  /// The kernel's per-group inputs, dval[group * corners + ki]: the model
  /// value for the primary group where trained, else the fallback estimate.
  void groupValues(std::span<const ImpactGroup> groups, const Move& m,
                   double* dval) const;
  /// Predicted variation change of `m` given its group values.
  double variationDelta(const Move& m, const double* dval, Scratch& s) const;
  /// Matches `memo` to this predictor and the current design state, and
  /// maps every move to its memo slot (serial).
  void prepareMemo(std::span<const Move> moves, ScoreMemo::State& st) const;

  const network::Design* design_;
  const sta::Timer* timer_;
  const Objective* objective_;
  const DeltaLatencyModel* model_;
  std::size_t fallback_;
  MoveAnalyzer analyzer_;

  // The baseline, rebuilt by rebuildBase(). Sinks are numbered in a
  // depth-first order of the tree ("slots"), so the sinks under any node
  // are the contiguous slot range [sink_begin_[node], sink_end_[node]).
  std::vector<std::uint32_t> sink_begin_, sink_end_;  // by node id
  std::size_t num_sink_slots_ = 0;
  std::vector<std::uint32_t> slot_pairs_begin_;  // CSR: the pairs touching
  std::vector<std::uint32_t> slot_pairs_;        // each sink slot
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<std::uint32_t> pair_launch_slot_, pair_capture_slot_;
  std::vector<double> base_skew_;    // [pair * corners + ki]
  std::vector<double> base_v_pair_;  // [pair]
};

}  // namespace skewopt::core
