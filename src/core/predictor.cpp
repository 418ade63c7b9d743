#include "core/predictor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "rc/rc.h"
#include "route/route.h"
#include "support/thread_pool.h"
#include "testgen/testgen.h"

namespace skewopt::core {

using network::ClockNode;
using network::ClockTree;
using network::Design;
using network::NodeKind;

const char* analyticName(std::size_t idx) {
  switch (idx) {
    case 0: return "flute+elmore";
    case 1: return "flute+d2m";
    case 2: return "trunk+elmore";
    case 3: return "trunk+d2m";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MoveAnalyzer
// ---------------------------------------------------------------------------

namespace {
double pinCapOf(const Design& d, int id, std::size_t k, int cell_override) {
  const ClockNode& n = d.tree.node(id);
  if (n.kind == NodeKind::Sink) return d.tech->sinkCapFf(k);
  const int cell = (cell_override >= 0) ? cell_override : n.cell;
  return d.tech->cell(static_cast<std::size_t>(cell)).pin_cap_ff[k];
}
}  // namespace

struct MoveAnalyzer::BatchDriverSpec {
  bool is_source = false;
  const tech::Cell* cell = nullptr;  // null iff source
  geom::Point pos;
  double source_slew = 0.0;     // used when is_source
  std::vector<double> in_slew;  // at the driver's input pin, per active corner
};

/// The child pins of one candidate net. Lane-interleaved pin caps:
/// cap[child * lanes + ki].
struct MoveAnalyzer::BatchChildren {
  std::vector<int> id;
  std::vector<geom::Point> pos;
  std::vector<double> cap;

  std::size_t size() const { return id.size(); }
  bool empty() const { return id.empty(); }
  void clear() {
    id.clear();
    pos.clear();
    cap.clear();
  }
  /// Appends child `c` at `p`; `cell_override` >= 0 sizes its pin cap as
  /// that cell instead of its own.
  void add(const Design& d, int c, const geom::Point& p, int cell_override) {
    id.push_back(c);
    pos.push_back(p);
    for (const std::size_t k : d.corners)
      cap.push_back(pinCapOf(d, c, k, cell_override));
  }
};

/// Per-active-corner lanes of one candidate net's estimates. Lane-
/// interleaved child arrays: wire_elm[child * lanes + ki].
struct MoveAnalyzer::NetEstimatesBatch {
  std::size_t lanes = 0;
  std::vector<double> load;        // [ki]
  std::vector<double> gate_delay;  // [ki]
  std::vector<double> out_slew;    // [ki]
  std::vector<double> wire_elm;    // [child * lanes + ki]
  std::vector<double> wire_d2m;    // [child * lanes + ki]
  std::vector<double> in_slew;     // [child * lanes + ki]

  double wire(std::size_t child, std::size_t ki, int met) const {
    const std::size_t idx = child * lanes + ki;
    return met == 0 ? wire_elm[idx] : wire_d2m[idx];
  }
  double childSlew(std::size_t child, std::size_t ki) const {
    return in_slew[child * lanes + ki];
  }
};

/// One thread's analyze() working set. Every member is overwritten before
/// it is read, so the storage carries nothing from one move (or design) to
/// the next but its capacity.
struct MoveAnalyzer::Scratch {
  BatchDriverSpec drv[3];
  BatchChildren kids[4];
  NetEstimatesBatch est[4];
  std::vector<double> down;  // downstream gate-delay delta per child
  // estimateNetBatch internals.
  route::SteinerTree net;
  rc::RcTreeBatch rct;
  rc::MomentsBatch mom;
  std::vector<double> lane, moments_scratch;
};

MoveAnalyzer::Scratch& MoveAnalyzer::threadScratch() {
  thread_local Scratch s;
  return s;
}

MoveAnalyzer::MoveAnalyzer(const Design& d, const sta::Timer& timer,
                           const std::vector<sta::CornerTiming>* baseline)
    : design_(&d), timer_(&timer) {
  if (baseline != nullptr)
    refresh(*baseline);
  else
    refresh();
}

void MoveAnalyzer::refresh() {
  timing_ = timer_->analyzeDesign(*design_);
  refreshSinkCounts();
}

void MoveAnalyzer::refresh(const std::vector<sta::CornerTiming>& baseline) {
  timing_ = baseline;
  refreshSinkCounts();
}

void MoveAnalyzer::refreshSinkCounts() {
  // Subtree sink counts for fanout weighting.
  const ClockTree& tree = design_->tree;
  subtree_sink_count_.assign(tree.numNodes(), 0);
  // Nodes are appended under existing parents, so ids are topologically
  // ordered; accumulate bottom-up.
  for (std::size_t i = tree.numNodes(); i-- > 0;) {
    const int id = static_cast<int>(i);
    if (!tree.isValid(id)) continue;
    const ClockNode& n = tree.node(id);
    if (n.kind == NodeKind::Sink) subtree_sink_count_[i] = 1;
    if (n.parent >= 0)
      subtree_sink_count_[static_cast<std::size_t>(n.parent)] +=
          subtree_sink_count_[i];
  }
}

void MoveAnalyzer::estimateNetBatch(const BatchDriverSpec& drv,
                                    const BatchChildren& children,
                                    int route_model, NetEstimatesBatch& est,
                                    Scratch& s) const {
  const std::size_t nk = design_->corners.size();

  // The route depends only on pin positions — one build serves all corners.
  route::SteinerTree& net = s.net;
  if (route_model == 0)
    route::greedySteinerInto(drv.pos, children.pos, net);
  else
    route::singleTrunkInto(drv.pos, children.pos, net);

  // Shared-topology RC with one lane per corner; RcTreeBatch::addNode
  // appends sequentially, so rc node n == steiner node n.
  rc::RcTreeBatch& rct = s.rct;
  rct.reset(nk);
  s.lane.resize(2 * nk);
  double* res_l = s.lane.data();
  double* cap_l = s.lane.data() + nk;
  for (std::size_t n = 1; n < net.size(); ++n) {
    const double len = net.edgeLength(n);
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const tech::WireParams& w = design_->tech->wire(design_->corners[ki]);
      res_l[ki] = len * w.res_kohm_per_um;
      cap_l[ki] = len * w.cap_ff_per_um / 2.0;
    }
    // Mirrors the scalar builder's rc_of[] semantics: a parent with a
    // higher steiner index is unvisited there (rc_of 0), so the edge hangs
    // off the driving point.
    const std::size_t p = static_cast<std::size_t>(net.parent[n]);
    const std::size_t rp = p < n ? p : 0;
    rct.addNode(rp, res_l, cap_l);
    rct.addCap(rp, cap_l);
  }
  for (std::size_t i = 0; i < children.size(); ++i)
    rct.addCap(net.pin_node[i], &children.cap[i * nk]);

  rc::MomentsBatch& mom = s.mom;
  rc::elmoreMomentsBatch(rct, mom, s.moments_scratch);

  est.lanes = nk;
  est.load.resize(nk);
  rct.totalCapInto(est.load.data());
  est.gate_delay.assign(nk, 0.0);
  est.out_slew.assign(nk, 0.0);
  if (drv.is_source) {
    for (std::size_t ki = 0; ki < nk; ++ki) est.out_slew[ki] = drv.source_slew;
  } else {
    tech::LutHint dh, sh;
    drv.cell->delay_packed.lookupEach(design_->corners, drv.in_slew.data(),
                                      est.load.data(), est.gate_delay.data(),
                                      &dh);
    drv.cell->out_slew_packed.lookupEach(design_->corners, drv.in_slew.data(),
                                         est.load.data(), est.out_slew.data(),
                                         &sh);
  }
  const std::size_t nc = children.size();
  est.wire_elm.resize(nc * nk);
  est.wire_d2m.resize(nc * nk);
  est.in_slew.resize(nc * nk);
  for (std::size_t i = 0; i < nc; ++i) {
    const std::size_t rcn = net.pin_node[i];
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const double m1 = mom.m1[rcn * nk + ki];
      const double elm = -m1;
      est.wire_elm[i * nk + ki] = elm;
      est.wire_d2m[i * nk + ki] =
          rc::d2mFromMoments(m1, mom.m2[rcn * nk + ki]);
      est.in_slew[i * nk + ki] =
          rc::periSlew(est.out_slew[ki], rc::wireSlewFromElmore(elm));
    }
  }
}

double MoveAnalyzer::downstreamGateDelta(int node, double in_slew_new,
                                         double in_slew_old, std::size_t ki,
                                         int depth) const {
  const ClockTree& tree = design_->tree;
  const ClockNode& n = tree.node(node);
  if (n.kind != NodeKind::Buffer) return 0.0;  // sinks: wire handled upstream
  const std::size_t k = design_->corners[ki];
  const tech::Cell& cell =
      design_->tech->cell(static_cast<std::size_t>(n.cell));
  const double load = timing_[ki].driver_load[static_cast<std::size_t>(node)];
  const double gate_old = cell.delay[k].lookup(in_slew_old, load);
  double out = cell.delay[k].lookup(in_slew_new, load) - gate_old;

  if (depth >= 2 || n.children.empty()) return out;

  // Propagate the slew change one level down (wire step slews recovered
  // from the golden analysis since the net itself is untouched).
  const double oslew_old = cell.out_slew[k].lookup(in_slew_old, load);
  const double os_new = cell.out_slew[k].lookup(in_slew_new, load);
  std::size_t total = 0;
  double child_acc = 0.0;
  for (const int c : n.children) {
    const double in_old =
        timing_[ki].in_slew[static_cast<std::size_t>(c)];
    const double step2 =
        std::max(0.0, in_old * in_old - oslew_old * oslew_old);
    const double in_new = std::sqrt(step2 + os_new * os_new);
    const double sub = downstreamGateDelta(c, in_new, in_old, ki, depth + 1);
    const std::size_t wgt =
        std::max<std::size_t>(1, subtree_sink_count_[static_cast<std::size_t>(c)]);
    child_acc += sub * static_cast<double>(wgt);
    total += wgt;
  }
  if (total > 0) out += child_acc / static_cast<double>(total);
  return out;
}

std::vector<ImpactGroup> MoveAnalyzer::analyze(const Move& m) const {
  std::vector<ImpactGroup> groups;
  groups.resize(analyzeInto(m, groups));
  return groups;
}

std::size_t MoveAnalyzer::analyzeInto(const Move& m,
                                      std::vector<ImpactGroup>& slots) const {
  const Design& d = *design_;
  const ClockTree& tree = d.tree;
  const std::size_t nk = d.corners.size();
  Scratch& s = threadScratch();
  if (slots.size() < 3) slots.resize(3);
  auto group = [&](std::size_t i, bool primary) -> ImpactGroup& {
    ImpactGroup& g = slots[i];
    g.primary = primary;
    g.delta.assign(nk, {});
    return g;
  };

  auto weightOf = [&](int id) {
    return static_cast<double>(std::max<std::size_t>(
        1, subtree_sink_count_[static_cast<std::size_t>(id)]));
  };
  // Driver spec of an unchanged node, with its per-corner input slews as
  // lanes.
  auto driverOf = [&](BatchDriverSpec& ds, int id) {
    ds.pos = tree.node(id).pos;
    ds.is_source = tree.node(id).kind == NodeKind::Source;
    ds.in_slew.resize(nk);
    if (ds.is_source) {
      ds.cell = nullptr;
      ds.source_slew = timer_->sourceSlew();
    } else {
      ds.cell = &d.tech->cell(static_cast<std::size_t>(tree.node(id).cell));
      for (std::size_t ki = 0; ki < nk; ++ki)
        ds.in_slew[ki] = timing_[ki].in_slew[static_cast<std::size_t>(id)];
    }
  };

  if (m.type == MoveType::kSizeDisplace ||
      m.type == MoveType::kChildDisplaceSize) {
    const int b = m.node;
    const int p = tree.node(b).parent;
    const geom::Point new_pos{tree.node(b).pos.x + m.delta.x,
                              tree.node(b).pos.y + m.delta.y};
    const int b_cell_new = (m.type == MoveType::kSizeDisplace)
                               ? tree.node(b).cell + m.size_step
                               : tree.node(b).cell;
    const int child_resized =
        (m.type == MoveType::kChildDisplaceSize) ? m.child : -1;
    const int child_cell_new =
        (child_resized >= 0) ? tree.node(child_resized).cell + m.size_step
                             : -1;

    const bool has_siblings = tree.node(p).children.size() > 1;
    ImpactGroup& primary = group(0, true);
    ImpactGroup& sibling = group(1, false);

    BatchDriverSpec& pd = s.drv[0];
    driverOf(pd, p);
    // Children of p: old and new (b moved / resized).
    BatchChildren& pk_old = s.kids[0];
    BatchChildren& pk_new = s.kids[1];
    pk_old.clear();
    pk_new.clear();
    std::size_t b_idx = 0;
    for (std::size_t ci = 0; ci < tree.node(p).children.size(); ++ci) {
      const int c = tree.node(p).children[ci];
      pk_old.add(d, c, tree.node(c).pos, -1);
      if (c == b) {
        b_idx = ci;
        pk_new.add(d, c, new_pos, b_cell_new);
      } else {
        pk_new.add(d, c, tree.node(c).pos, -1);
      }
    }

    // Children of b: old and new (type II resizes one child's pin).
    BatchChildren& bk_old = s.kids[2];
    BatchChildren& bk_new = s.kids[3];
    bk_old.clear();
    bk_new.clear();
    for (const int c : tree.node(b).children) {
      bk_old.add(d, c, tree.node(c).pos, -1);
      bk_new.add(d, c, tree.node(c).pos,
                 c == child_resized ? child_cell_new : -1);
    }

    BatchDriverSpec& bd_old = s.drv[1];
    BatchDriverSpec& bd_new = s.drv[2];
    bd_old.is_source = false;
    bd_old.cell = &d.tech->cell(static_cast<std::size_t>(tree.node(b).cell));
    bd_old.pos = tree.node(b).pos;
    bd_old.in_slew.resize(nk);
    bd_new.is_source = false;
    bd_new.cell = &d.tech->cell(static_cast<std::size_t>(b_cell_new));
    bd_new.pos = new_pos;
    bd_new.in_slew.resize(nk);

    NetEstimatesBatch& p_old = s.est[0];
    NetEstimatesBatch& p_new = s.est[1];
    NetEstimatesBatch& b_old = s.est[2];
    NetEstimatesBatch& b_new = s.est[3];
    for (int rm = 0; rm < 2; ++rm) {
      estimateNetBatch(pd, pk_old, rm, p_old, s);
      estimateNetBatch(pd, pk_new, rm, p_new, s);
      for (std::size_t ki = 0; ki < nk; ++ki) {
        bd_old.in_slew[ki] = p_old.childSlew(b_idx, ki);
        bd_new.in_slew[ki] = p_new.childSlew(b_idx, ki);
      }
      estimateNetBatch(bd_old, bk_old, rm, b_old, s);
      estimateNetBatch(bd_new, bk_new, rm, b_new, s);

      for (std::size_t ki = 0; ki < nk; ++ki) {
        // The downstream gate-delay change depends on the child's slews
        // only, not on the wire metric.
        s.down.assign(bk_old.size(), 0.0);
        for (std::size_t ci = 0; ci < bk_old.size(); ++ci) {
          const int cid = bk_old.id[ci];
          if (tree.node(cid).kind == NodeKind::Buffer)
            s.down[ci] = downstreamGateDelta(cid, b_new.childSlew(ci, ki),
                                             b_old.childSlew(ci, ki), ki, 1);
        }
        for (int met = 0; met < 2; ++met) {
          const std::size_t mi = static_cast<std::size_t>(rm * 2 + met);
          const double d_chain =
              (p_new.gate_delay[ki] - p_old.gate_delay[ki]) +
              (p_new.wire(b_idx, ki, met) - p_old.wire(b_idx, ki, met)) +
              (b_new.gate_delay[ki] - b_old.gate_delay[ki]);
          // Primary: weighted mean over b's children paths.
          double acc = 0.0, wsum = 0.0;
          for (std::size_t ci = 0; ci < bk_old.size(); ++ci) {
            double v = d_chain +
                       (b_new.wire(ci, ki, met) - b_old.wire(ci, ki, met));
            const int cid = bk_old.id[ci];
            if (tree.node(cid).kind == NodeKind::Buffer) v += s.down[ci];
            const double wgt = weightOf(cid);
            acc += v * wgt;
            wsum += wgt;
          }
          primary.delta[ki][mi] = bk_old.empty() ? d_chain : acc / wsum;

          if (has_siblings) {
            double sacc = 0.0, swsum = 0.0;
            for (std::size_t ci = 0; ci < pk_old.size(); ++ci) {
              if (pk_old.id[ci] == b) continue;
              const double v =
                  (p_new.gate_delay[ki] - p_old.gate_delay[ki]) +
                  (p_new.wire(ci, ki, met) - p_old.wire(ci, ki, met));
              const double wgt = weightOf(pk_old.id[ci]);
              sacc += v * wgt;
              swsum += wgt;
            }
            sibling.delta[ki][mi] = swsum > 0 ? sacc / swsum : 0.0;
          }
        }
      }
    }
    return has_siblings ? 2 : 1;
  }

  // ---- Type III: tree surgery -------------------------------------------
  const int b = m.node;
  const int p_old = tree.node(b).parent;
  const int p_new = m.new_parent;

  ImpactGroup& moved = group(0, true);
  ImpactGroup& old_grp = group(1, false);
  ImpactGroup& new_grp = group(2, false);

  BatchDriverSpec& po_d = s.drv[0];
  BatchDriverSpec& pn_d = s.drv[1];
  driverOf(po_d, p_old);
  driverOf(pn_d, p_new);
  auto childSpecs = [&](BatchChildren& cs, int driver, int skip, int extra) {
    cs.clear();
    for (const int c : tree.node(driver).children) {
      if (c == skip) continue;
      cs.add(d, c, tree.node(c).pos, -1);
    }
    if (extra >= 0) cs.add(d, extra, tree.node(extra).pos, -1);
  };
  BatchChildren& po_before = s.kids[0];
  BatchChildren& po_after = s.kids[1];
  BatchChildren& pn_before = s.kids[2];
  BatchChildren& pn_after = s.kids[3];
  childSpecs(po_before, p_old, -1, -1);
  childSpecs(po_after, p_old, b, -1);
  childSpecs(pn_before, p_new, -1, -1);
  childSpecs(pn_after, p_new, -1, b);

  // Index of b in the before/after child lists; po_after is po_before
  // without b, so its child ci sits at ci (+1 past b) in po_before.
  std::size_t b_old_idx = 0;
  for (std::size_t ci = 0; ci < po_before.size(); ++ci)
    if (po_before.id[ci] == b) b_old_idx = ci;
  const std::size_t b_new_idx = pn_after.size() - 1;

  NetEstimatesBatch& po_o = s.est[0];
  NetEstimatesBatch& po_n = s.est[1];
  NetEstimatesBatch& pn_o = s.est[2];
  NetEstimatesBatch& pn_n = s.est[3];
  for (int rm = 0; rm < 2; ++rm) {
    // po_n / pn_o are read only through their (then empty) child lists.
    estimateNetBatch(po_d, po_before, rm, po_o, s);
    if (!po_after.empty()) estimateNetBatch(po_d, po_after, rm, po_n, s);
    if (!pn_before.empty()) estimateNetBatch(pn_d, pn_before, rm, pn_o, s);
    estimateNetBatch(pn_d, pn_after, rm, pn_n, s);

    for (std::size_t ki = 0; ki < nk; ++ki) {
      const double down_b =
          downstreamGateDelta(b, pn_n.childSlew(b_new_idx, ki),
                              po_o.childSlew(b_old_idx, ki), ki, 0);
      for (int met = 0; met < 2; ++met) {
        const std::size_t mi = static_cast<std::size_t>(rm * 2 + met);
        const double in_old =
            timing_[ki].in_arrival[static_cast<std::size_t>(p_old)];
        const double in_new =
            timing_[ki].in_arrival[static_cast<std::size_t>(p_new)];
        const double path_old =
            in_old + po_o.gate_delay[ki] + po_o.wire(b_old_idx, ki, met);
        const double path_new =
            in_new + pn_n.gate_delay[ki] + pn_n.wire(b_new_idx, ki, met);
        double delta_b = path_new - path_old;
        delta_b += down_b;
        moved.delta[ki][mi] = delta_b;

        // Remaining children of the old driver speed up.
        double acc = 0.0, wsum = 0.0;
        for (std::size_t ci = 0; ci < po_after.size(); ++ci) {
          const std::size_t bi = ci < b_old_idx ? ci : ci + 1;
          const double v = (po_n.gate_delay[ki] - po_o.gate_delay[ki]) +
                           (po_n.wire(ci, ki, met) - po_o.wire(bi, ki, met));
          const double wgt = weightOf(po_after.id[ci]);
          acc += v * wgt;
          wsum += wgt;
        }
        old_grp.delta[ki][mi] = wsum > 0 ? acc / wsum : 0.0;

        // Existing children of the new driver slow down.
        acc = 0.0;
        wsum = 0.0;
        for (std::size_t ci = 0; ci < pn_before.size(); ++ci) {
          const double v = (pn_n.gate_delay[ki] - pn_o.gate_delay[ki]) +
                           (pn_n.wire(ci, ki, met) - pn_o.wire(ci, ki, met));
          const double wgt = weightOf(pn_before.id[ci]);
          acc += v * wgt;
          wsum += wgt;
        }
        new_grp.delta[ki][mi] = wsum > 0 ? acc / wsum : 0.0;
      }
    }
  }
  return 3;
}

std::array<double, kNumFeatures> MoveAnalyzer::features(
    const Move& m, const ImpactGroup& primary, std::size_t ki) const {
  const ClockTree& tree = design_->tree;
  std::array<double, kNumFeatures> f{};
  for (std::size_t i = 0; i < kNumAnalytic; ++i) f[i] = primary.delta[ki][i];

  // Bounding box over the perturbed net: driver pin plus fanout cells.
  geom::BBox box;
  double fanout = 0.0;
  if (m.type == MoveType::kReassign) {
    box.add(tree.node(m.new_parent).pos);
    for (const int c : tree.node(m.new_parent).children)
      box.add(tree.node(c).pos);
    box.add(tree.node(m.node).pos);
    fanout =
        static_cast<double>(tree.node(m.new_parent).children.size() + 1);
  } else {
    box.add(geom::Point{tree.node(m.node).pos.x + m.delta.x,
                        tree.node(m.node).pos.y + m.delta.y});
    for (const int c : tree.node(m.node).children)
      box.add(tree.node(c).pos);
    fanout = static_cast<double>(tree.node(m.node).children.size());
  }
  f[kNumAnalytic] = fanout;
  f[kNumAnalytic + 1] = box.rect().area();
  f[kNumAnalytic + 2] = box.rect().aspect();
  return f;
}

// ---------------------------------------------------------------------------
// Golden deltas & sample collection
// ---------------------------------------------------------------------------

std::vector<double> goldenDelta(const Design& d, const sta::Timer& timer,
                                const Move& m) {
  const std::vector<int> sinks = subtreeSinks(d.tree, m.node);
  std::vector<sta::CornerTiming> before = timer.analyzeDesign(d);
  Design copy = d;
  applyMove(copy, m);
  std::vector<sta::CornerTiming> after = timer.analyzeDesign(copy);
  std::vector<double> out(d.corners.size(), 0.0);
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
    double acc = 0.0;
    for (const int s : sinks)
      acc += after[ki].arrival[static_cast<std::size_t>(s)] -
             before[ki].arrival[static_cast<std::size_t>(s)];
    out[ki] = sinks.empty() ? 0.0 : acc / static_cast<double>(sinks.size());
  }
  return out;
}

std::vector<MoveSample> collectMoveSamples(const Design& d,
                                           const sta::Timer& timer,
                                           const std::vector<Move>& moves) {
  MoveAnalyzer analyzer(d, timer);
  const std::vector<sta::CornerTiming>& before = analyzer.baseline();
  std::vector<MoveSample> samples;
  samples.reserve(moves.size());
  for (const Move& m : moves) {
    MoveSample s;
    s.move = m;
    const std::vector<ImpactGroup> groups = analyzer.analyze(m);
    const ImpactGroup* primary = nullptr;
    for (const ImpactGroup& g : groups)
      if (g.primary) primary = &g;
    if (primary == nullptr) continue;
    for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
      s.features.push_back(analyzer.features(m, *primary, ki));

    const std::vector<int> sinks = subtreeSinks(d.tree, m.node);
    Design copy = d;
    applyMove(copy, m);
    const std::vector<sta::CornerTiming> after = timer.analyzeDesign(copy);
    s.golden_delta.assign(d.corners.size(), 0.0);
    for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
      double acc = 0.0;
      for (const int snk : sinks)
        acc += after[ki].arrival[static_cast<std::size_t>(snk)] -
               before[ki].arrival[static_cast<std::size_t>(snk)];
      s.golden_delta[ki] =
          sinks.empty() ? 0.0 : acc / static_cast<double>(sinks.size());
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

// ---------------------------------------------------------------------------
// DeltaLatencyModel
// ---------------------------------------------------------------------------

std::size_t DeltaLatencyModel::train(const tech::TechModel& tech,
                                     const std::vector<std::size_t>& corners,
                                     const TrainOptions& opts) {
  per_corner_.clear();
  per_corner_.resize(tech.numCorners());

  sta::Timer timer(tech);
  geom::Rng rng(opts.seed);

  // Collect (features, golden) per corner across artificial testcases.
  struct Raw {
    std::vector<std::array<double, kNumFeatures>> x;
    std::vector<double> y;
  };
  std::vector<Raw> raw(tech.numCorners());

  for (std::size_t c = 0; c < opts.cases; ++c) {
    const bool last_stage = rng.uniform() < opts.last_stage_fraction;
    testgen::ArtificialCase ac =
        testgen::makeArtificialCase(tech, rng, last_stage);
    ac.design.corners = corners;
    std::vector<Move> moves = enumerateMoves(ac.design, ac.target);
    // Deterministic subsample.
    while (moves.size() > opts.moves_per_case)
      moves.erase(moves.begin() + static_cast<long>(rng.index(moves.size())));
    const std::vector<MoveSample> samples =
        collectMoveSamples(ac.design, timer, moves);
    for (const MoveSample& s : samples) {
      for (std::size_t ki = 0; ki < corners.size(); ++ki) {
        raw[corners[ki]].x.push_back(s.features[ki]);
        raw[corners[ki]].y.push_back(s.golden_delta[ki]);
      }
    }
  }

  std::size_t per_corner_samples = 0;
  for (const std::size_t k : corners) {
    Raw& r = raw[k];
    if (r.x.size() < 10) continue;
    per_corner_samples = r.x.size();

    // Hold out a deterministic 15% slice for the Figure 5 artifacts.
    const std::size_t nhold = std::max<std::size_t>(1, r.x.size() / 7);
    ml::Dataset train;
    train.x = ml::Matrix(r.x.size() - nhold, kNumFeatures);
    std::vector<std::array<double, kNumFeatures>> hold_x;
    std::vector<double> hold_y;
    std::size_t w = 0;
    for (std::size_t i = 0; i < r.x.size(); ++i) {
      if (i % 7 == 3 && hold_x.size() < nhold) {
        hold_x.push_back(r.x[i]);
        hold_y.push_back(r.y[i]);
        continue;
      }
      for (std::size_t j = 0; j < kNumFeatures; ++j)
        train.x.at(w, j) = r.x[i][j];
      train.y.push_back(r.y[i]);
      ++w;
    }
    // `w` rows actually written (holdout may be short).
    if (w < train.x.rows()) {
      ml::Matrix trimmed(w, kNumFeatures);
      for (std::size_t i = 0; i < w; ++i)
        for (std::size_t j = 0; j < kNumFeatures; ++j)
          trimmed.at(i, j) = train.x.at(i, j);
      train.x = std::move(trimmed);
    }

    PerCorner& pc = per_corner_[k];
    pc.scaler.fit(train.x);
    ml::Dataset scaled;
    scaled.x = pc.scaler.transform(train.x);
    // Residual learning: the model corrects the discrepancy between the
    // first analytical estimate and the golden delta (the paper: "we
    // construct machine learning-based models to minimize such
    // discrepancy"). Predicting the residual instead of the absolute delta
    // guarantees the model is never worse than analytical when the
    // residual is unlearnable.
    scaled.y = train.y;
    for (std::size_t i = 0; i < scaled.y.size(); ++i)
      scaled.y[i] -= train.x.at(i, 0);
    pc.residual_lo = *std::min_element(scaled.y.begin(), scaled.y.end());
    pc.residual_hi = *std::max_element(scaled.y.begin(), scaled.y.end());
    switch (opts.family) {
      case TrainOptions::Family::kAnn:
        pc.model = std::make_unique<ml::MlpRegressor>(opts.mlp);
        break;
      case TrainOptions::Family::kSvr:
        pc.model = std::make_unique<ml::SvrRbf>(opts.svr);
        break;
      case TrainOptions::Family::kHsm: {
        ml::HsmOptions h;
        h.mlp = opts.mlp;
        h.svr = opts.svr;
        pc.model = std::make_unique<ml::HybridSurrogate>(h);
        break;
      }
    }
    pc.model->fit(scaled);

    for (std::size_t i = 0; i < hold_x.size(); ++i) {
      pc.holdout.predicted.push_back(predict(k, hold_x[i]));
      pc.holdout.golden.push_back(hold_y[i]);
    }
  }
  return per_corner_samples;
}

bool DeltaLatencyModel::trainedFor(std::size_t corner) const {
  return corner < per_corner_.size() &&
         per_corner_[corner].model != nullptr;
}

double DeltaLatencyModel::predict(
    std::size_t corner, const std::array<double, kNumFeatures>& feat) const {
  const PerCorner& pc = per_corner_[corner];
  if (pc.model == nullptr)
    throw std::logic_error("DeltaLatencyModel: corner not trained");
  std::array<double, kNumFeatures> scaled;
  pc.scaler.transformRow(feat.data(), scaled.data());
  const double residual = std::clamp(pc.model->predict(scaled.data()),
                                     pc.residual_lo, pc.residual_hi);
  return feat[0] + residual;
}

const DeltaLatencyModel::Holdout& DeltaLatencyModel::holdout(
    std::size_t corner) const {
  return per_corner_[corner].holdout;
}

// ---------------------------------------------------------------------------
// MovePredictor
// ---------------------------------------------------------------------------

/// One thread's scoring working set: the analyzer's impact groups, their
/// kernel inputs, and the dense variation bookkeeping. A sink slot's delta
/// is valid only while its stamp equals `epoch`, so bumping the epoch per
/// move clears every slot in O(1), whatever design the storage last served.
/// The affected-pair bitmap is cleared per move (one bit per pair) and read
/// back in ascending pair index without a sort.
struct MovePredictor::Scratch {
  std::vector<ImpactGroup> groups;
  std::vector<double> values;             // [group * corners + ki]
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> sink_stamp;  // [slot]
  std::vector<double> sink_delta;         // [slot * corners + ki]
  std::vector<std::uint64_t> pair_bits;   // affected pairs, one bit each
  std::vector<double> skew;               // [ki]

  /// Sizes the storage for a design and starts a move's fresh epoch.
  void startMove(std::size_t slots, std::size_t npairs, std::size_t nk) {
    if (sink_stamp.size() < slots) sink_stamp.resize(slots, 0);
    if (sink_delta.size() < slots * nk) sink_delta.resize(slots * nk);
    pair_bits.assign((npairs + 63) / 64, 0);
    if (++epoch == 0) {  // wrapped: no stamp may alias the new epoch
      std::fill(sink_stamp.begin(), sink_stamp.end(), 0);
      epoch = 1;
    }
    skew.resize(nk);
  }
};

MovePredictor::Scratch& MovePredictor::threadScratch() {
  thread_local Scratch s;
  return s;
}

MovePredictor::MovePredictor(const Design& d, const sta::Timer& timer,
                             const Objective& objective,
                             const DeltaLatencyModel* model,
                             std::size_t analytic_fallback,
                             const std::vector<sta::CornerTiming>* baseline)
    : design_(&d), timer_(&timer), objective_(&objective), model_(model),
      fallback_(analytic_fallback), analyzer_(d, timer, baseline) {
  rebuildBase();
}

void MovePredictor::refresh() {
  analyzer_.refresh();
  rebuildBase();
}

void MovePredictor::refresh(const std::vector<sta::CornerTiming>& baseline) {
  analyzer_.refresh(baseline);
  rebuildBase();
}

void MovePredictor::rebuildBase() {
  const ClockTree& tree = design_->tree;
  const std::size_t nk = design_->corners.size();
  const std::size_t npairs = design_->pairs.size();
  VariationReport base =
      objective_->evaluateFromTimings(*design_, analyzer_.baseline());

  // Depth-first preorder from the root: a sink's slot is its rank among
  // the sinks in that order, and every subtree's sinks are contiguous.
  std::vector<std::uint32_t> slot_of(tree.numNodes(), kNoSlot);
  std::vector<int> preorder, stack{tree.root()};
  sink_begin_.assign(tree.numNodes(), 0);
  sink_end_.assign(tree.numNodes(), 0);
  std::uint32_t next_slot = 0;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    preorder.push_back(v);
    const ClockNode& n = tree.node(v);
    sink_begin_[static_cast<std::size_t>(v)] = next_slot;
    if (n.kind == NodeKind::Sink) {
      slot_of[static_cast<std::size_t>(v)] = next_slot++;
      continue;
    }
    for (auto c = n.children.rbegin(); c != n.children.rend(); ++c)
      stack.push_back(*c);
  }
  num_sink_slots_ = next_slot;
  // Reverse preorder visits children before parents: a subtree's range
  // ends where its last child's ends.
  for (auto v = preorder.rbegin(); v != preorder.rend(); ++v) {
    const std::size_t i = static_cast<std::size_t>(*v);
    const ClockNode& n = tree.node(*v);
    sink_end_[i] = n.kind == NodeKind::Sink ? sink_begin_[i] + 1
                   : n.children.empty()
                       ? sink_begin_[i]
                       : sink_end_[static_cast<std::size_t>(n.children.back())];
  }

  // Pairs touching each slot (CSR, ascending pair index), and each pair's
  // endpoint slots.
  pair_launch_slot_.assign(npairs, kNoSlot);
  pair_capture_slot_.assign(npairs, kNoSlot);
  slot_pairs_begin_.assign(num_sink_slots_ + 1, 0);
  auto slotOf = [&](int sink) {
    return sink >= 0 && static_cast<std::size_t>(sink) < slot_of.size()
               ? slot_of[static_cast<std::size_t>(sink)]
               : kNoSlot;
  };
  auto endpoints = [&](std::size_t pi) {
    return std::array{pair_launch_slot_[pi], pair_capture_slot_[pi]};
  };
  for (std::size_t pi = 0; pi < npairs; ++pi) {
    pair_launch_slot_[pi] = slotOf(design_->pairs[pi].launch);
    pair_capture_slot_[pi] = slotOf(design_->pairs[pi].capture);
    for (const std::uint32_t s : endpoints(pi))
      if (s != kNoSlot) ++slot_pairs_begin_[s + 1];
  }
  for (std::size_t s = 0; s < num_sink_slots_; ++s)
    slot_pairs_begin_[s + 1] += slot_pairs_begin_[s];
  slot_pairs_.assign(slot_pairs_begin_.back(), 0);
  std::vector<std::uint32_t> fill(slot_pairs_begin_.begin(),
                                  slot_pairs_begin_.end() - 1);
  for (std::size_t pi = 0; pi < npairs; ++pi)
    for (const std::uint32_t s : endpoints(pi))
      if (s != kNoSlot) slot_pairs_[fill[s]++] = static_cast<std::uint32_t>(pi);

  base_skew_.resize(npairs * nk);
  for (std::size_t pi = 0; pi < npairs; ++pi)
    for (std::size_t ki = 0; ki < nk; ++ki)
      base_skew_[pi * nk + ki] = base.skew_ps[ki][pi];
  base_v_pair_ = std::move(base.v_pair_ps);
}

std::vector<double> MovePredictor::predictedPrimaryDelta(
    const Move& m) const {
  const std::vector<ImpactGroup> groups = analyzer_.analyze(m);
  const ImpactGroup* primary = nullptr;
  for (const ImpactGroup& g : groups)
    if (g.primary) primary = &g;
  std::vector<double> out(design_->corners.size(), 0.0);
  if (primary == nullptr) return out;
  for (std::size_t ki = 0; ki < design_->corners.size(); ++ki) {
    const std::size_t k = design_->corners[ki];
    if (model_ != nullptr && model_->trainedFor(k)) {
      out[ki] = model_->predict(k, analyzer_.features(m, *primary, ki));
    } else {
      out[ki] = primary->delta[ki][fallback_];
    }
  }
  return out;
}

void MovePredictor::groupValues(std::span<const ImpactGroup> groups,
                                const Move& m, double* dval) const {
  const std::size_t nk = design_->corners.size();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const std::size_t k = design_->corners[ki];
      if (groups[g].primary && model_ != nullptr && model_->trainedFor(k))
        dval[g * nk + ki] =
            model_->predict(k, analyzer_.features(m, groups[g], ki));
      else
        dval[g * nk + ki] = groups[g].delta[ki][fallback_];
    }
  }
}

double MovePredictor::variationDelta(const Move& m, const double* dval,
                                     Scratch& s) const {
  const ClockTree& tree = design_->tree;
  const std::size_t nk = design_->corners.size();
  s.startMove(num_sink_slots_, design_->pairs.size(), nk);
  const std::uint32_t epoch = s.epoch;

  // Per-sink latency delta at each corner, accumulated in group order from
  // 0.0; every pair touching a shifted sink is marked affected.
  auto shift = [&](const double* v, std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t slot = lo; slot < hi; ++slot) {
      double* acc = &s.sink_delta[std::size_t{slot} * nk];
      if (s.sink_stamp[slot] != epoch) {
        s.sink_stamp[slot] = epoch;
        for (std::size_t ki = 0; ki < nk; ++ki) acc[ki] = 0.0;
      }
      for (std::size_t ki = 0; ki < nk; ++ki) acc[ki] += v[ki];
      for (std::uint32_t j = slot_pairs_begin_[slot];
           j < slot_pairs_begin_[slot + 1]; ++j) {
        const std::uint32_t pi = slot_pairs_[j];
        s.pair_bits[pi >> 6] |= std::uint64_t{1} << (pi & 63);
      }
    }
  };
  // The sinks of each group, in ImpactGroup order: {root, excluded subtree}.
  const int b = m.node;
  const int p = tree.node(b).parent;
  const std::array<std::array<int, 2>, 3> groups{
      {{b, -1}, {p, b}, {m.new_parent, -1}}};
  const std::size_t ng = m.type == MoveType::kReassign        ? 3
                         : tree.node(p).children.size() > 1 ? 2
                                                             : 1;
  for (std::size_t g = 0; g < ng; ++g) {
    const auto [root, exclude] = groups[g];
    // The group's sinks: the root's slot range minus the excluded node's.
    const std::uint32_t lo = sink_begin_[static_cast<std::size_t>(root)];
    const std::uint32_t hi = sink_end_[static_cast<std::size_t>(root)];
    std::uint32_t cut_lo = hi, cut_hi = hi;
    if (exclude >= 0) {
      cut_lo = std::max(lo, sink_begin_[static_cast<std::size_t>(exclude)]);
      cut_hi = std::min(hi, sink_end_[static_cast<std::size_t>(exclude)]);
      if (cut_lo >= cut_hi) cut_lo = cut_hi = hi;
    }
    shift(dval + g * nk, lo, cut_lo);
    shift(dval + g * nk, cut_hi, hi);
  }

  // Sum over the affected pairs in ascending pair index.
  double delta_sum = 0.0;
  for (std::size_t w = 0; w < s.pair_bits.size(); ++w) {
    for (std::uint64_t bits = s.pair_bits[w]; bits != 0; bits &= bits - 1) {
      const std::size_t pi =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const std::uint32_t ls = pair_launch_slot_[pi];
      const std::uint32_t cs = pair_capture_slot_[pi];
      const bool l_moved = ls != kNoSlot && s.sink_stamp[ls] == epoch;
      const bool c_moved = cs != kNoSlot && s.sink_stamp[cs] == epoch;
      for (std::size_t ki = 0; ki < nk; ++ki) {
        double v = base_skew_[pi * nk + ki];
        if (l_moved) v += s.sink_delta[std::size_t{ls} * nk + ki];
        if (c_moved) v -= s.sink_delta[std::size_t{cs} * nk + ki];
        s.skew[ki] = v;
      }
      delta_sum += objective_->pairV(s.skew) - base_v_pair_[pi];
    }
  }
  return delta_sum;
}

double MovePredictor::predictedVariationDelta(const Move& m) const {
  Scratch& s = threadScratch();
  const std::size_t n = analyzer_.analyzeInto(m, s.groups);
  s.values.resize(n * design_->corners.size());
  groupValues(std::span<const ImpactGroup>(s.groups.data(), n), m,
              s.values.data());
  return variationDelta(m, s.values.data(), s);
}

// ---------------------------------------------------------------------------
// ScoreMemo
// ---------------------------------------------------------------------------

struct ScoreMemo::State {
  // What the memoized values depend on besides the read set.
  const Design* design = nullptr;
  const tech::TechModel* tech = nullptr;
  const sta::Timer* timer = nullptr;
  const DeltaLatencyModel* model = nullptr;
  std::size_t fallback = 0;
  std::vector<std::size_t> corners;
  std::size_t nodes = 0;

  std::uint32_t gen = 0;  // batch generation, 1 for the first batch

  // Each node's read state as of the last batch, and the generation of the
  // batch that last saw it change.
  struct NodeState {
    bool valid = false;
    NodeKind kind = NodeKind::Buffer;
    int cell = -1;
    int parent = -1;
    geom::Point pos;
    std::size_t sinks = 0;
    std::vector<int> children;
  };
  std::vector<NodeState> node;
  std::vector<double> timing;  // [(node * corners + ki) * 3 + field]
  std::vector<std::uint32_t> changed;  // [node]
  // Read-set generations of this batch, computed once per node: as the
  // moved node (itself, parent, siblings, children, grandchildren) and as
  // a reassignment's new parent (itself, children).
  std::vector<std::uint32_t> moved_gen, moved_stamp;
  std::vector<std::uint32_t> target_gen, target_stamp;

  // A memoized candidate. The moved node is implied by its block; the group
  // roots follow from the move and the tree. Type III values hold three
  // groups, types I/II two (the second unused without siblings).
  struct Entry {
    double dx = 0.0, dy = 0.0;
    int other = -1;          // type II: the resized child; III: new parent
    std::uint32_t gen = 0;   // batch whose design state the values are of
    std::uint32_t off = 0;   // into the block's values
    std::uint8_t type = 0;
    int step = 0;
  };
  // A node's candidates in the order of the last batch, and their values.
  struct Block {
    std::vector<Entry> entries;
    std::vector<double> values;
  };
  std::vector<Block> blocks;           // [node]
  std::vector<std::uint32_t> count;    // [node] scratch, zero between batches
  std::vector<int> touched;            // nodes with candidates, this batch
  std::vector<int> prev_touched;       // ... and the last
  std::vector<std::uint32_t> entry_of;  // [move] its entry in its block
  std::size_t reused = 0;  // in the last batch

  static Entry keyOf(const Move& m) {
    Entry e;
    e.dx = m.delta.x;
    e.dy = m.delta.y;
    e.other = m.type == MoveType::kChildDisplaceSize ? m.child
              : m.type == MoveType::kReassign        ? m.new_parent
                                                     : -1;
    e.type = static_cast<std::uint8_t>(m.type);
    e.step = m.size_step;
    return e;
  }
  static bool sameKey(const Entry& a, const Entry& b) {
    return a.type == b.type && a.step == b.step && a.other == b.other &&
           std::bit_cast<std::uint64_t>(a.dx) ==
               std::bit_cast<std::uint64_t>(b.dx) &&
           std::bit_cast<std::uint64_t>(a.dy) ==
               std::bit_cast<std::uint64_t>(b.dy);
  }
  std::size_t stride(const Entry& e) const {
    return (e.type == static_cast<std::uint8_t>(MoveType::kReassign) ? 3 : 2) *
           corners.size();
  }
};

ScoreMemo::ScoreMemo() : s_(std::make_unique<State>()) {}
ScoreMemo::~ScoreMemo() = default;
std::size_t ScoreMemo::reused() const { return s_->reused; }

std::size_t ScoreMemo::bytes() const {
  const State& st = *s_;
  auto heap = [](const auto& v) { return v.capacity() * sizeof(*v.data()); };
  std::size_t n = sizeof(State) + heap(st.corners) + heap(st.node) +
                  heap(st.timing) + heap(st.changed) + heap(st.moved_gen) +
                  heap(st.moved_stamp) + heap(st.target_gen) +
                  heap(st.target_stamp) + heap(st.blocks) + heap(st.count) +
                  heap(st.touched) + heap(st.prev_touched) +
                  heap(st.entry_of);
  for (const State::NodeState& ns : st.node) n += heap(ns.children);
  for (const State::Block& b : st.blocks)
    n += heap(b.entries) + heap(b.values);
  return n;
}

void MovePredictor::prepareMemo(std::span<const Move> moves,
                                ScoreMemo::State& st) const {
  using State = ScoreMemo::State;
  const Design& d = *design_;
  const ClockTree& tree = d.tree;
  const std::size_t nk = d.corners.size();
  const std::size_t nn = tree.numNodes();
  if (st.design != design_ || st.tech != d.tech || st.timer != timer_ ||
      st.model != model_ || st.fallback != fallback_ ||
      st.corners != d.corners || st.nodes != nn ||
      st.gen == ~std::uint32_t{0}) {
    st = State{};
    st.design = design_;
    st.tech = d.tech;
    st.timer = timer_;
    st.model = model_;
    st.fallback = fallback_;
    st.corners = d.corners;
    st.nodes = nn;
    st.node.resize(nn);
    st.timing.resize(nn * nk * 3);
    st.changed.assign(nn, 0);
    st.moved_gen.assign(nn, 0);
    st.moved_stamp.assign(nn, 0);
    st.target_gen.assign(nn, 0);
    st.target_stamp.assign(nn, 0);
    st.blocks.resize(nn);
    st.count.assign(nn, 0);
  }
  const std::uint32_t gen = ++st.gen;

  // Diff every node's read state against the snapshot; a node that differs
  // takes this generation.
  const std::vector<sta::CornerTiming>& timing = analyzer_.baseline();
  const std::vector<std::size_t>& sinks = analyzer_.subtreeSinkCounts();
  auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (std::size_t v = 0; v < nn; ++v) {
    State::NodeState& ns = st.node[v];
    if (!tree.isValid(static_cast<int>(v))) {  // removed: no state to read
      if (gen == 1 || ns.valid) st.changed[v] = gen;
      ns = State::NodeState{};
      continue;
    }
    const ClockNode& n = tree.node(static_cast<int>(v));
    bool changed = gen == 1 || !ns.valid || ns.kind != n.kind ||
                   ns.cell != n.cell || ns.parent != n.parent ||
                   !same(ns.pos.x, n.pos.x) || !same(ns.pos.y, n.pos.y) ||
                   ns.sinks != sinks[v] || ns.children != n.children;
    if (changed) {
      ns.valid = true;
      ns.kind = n.kind;
      ns.cell = n.cell;
      ns.parent = n.parent;
      ns.pos = n.pos;
      ns.sinks = sinks[v];
      ns.children = n.children;
    }
    double* snap = &st.timing[v * nk * 3];
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const double cur[3] = {timing[ki].in_slew[v], timing[ki].driver_load[v],
                             timing[ki].in_arrival[v]};
      for (std::size_t f = 0; f < 3; ++f) {
        if (!same(snap[ki * 3 + f], cur[f])) {
          snap[ki * 3 + f] = cur[f];
          changed = true;
        }
      }
    }
    if (changed) st.changed[v] = gen;
  }

  auto latest = [&](std::uint32_t g, int v) {
    return std::max(g, st.changed[static_cast<std::size_t>(v)]);
  };
  auto movedGen = [&](int b) {
    const ClockNode& n = tree.node(b);
    const std::size_t bi = static_cast<std::size_t>(b);
    if (st.moved_stamp[bi] == gen) return st.moved_gen[bi];
    std::uint32_t g = latest(0, b);
    if (n.parent >= 0) {
      g = latest(g, n.parent);
      for (const int c : tree.node(n.parent).children) g = latest(g, c);
    }
    for (const int c : n.children) {
      g = latest(g, c);
      for (const int gc : tree.node(c).children) g = latest(g, gc);
    }
    st.moved_stamp[bi] = gen;
    return st.moved_gen[bi] = g;
  };
  auto targetGen = [&](int q) {
    const ClockNode& n = tree.node(q);
    const std::size_t qi = static_cast<std::size_t>(q);
    if (st.target_stamp[qi] == gen) return st.target_gen[qi];
    std::uint32_t g = latest(0, q);
    for (const int c : n.children) g = latest(g, c);
    st.target_stamp[qi] = gen;
    return st.target_gen[qi] = g;
  };

  // Size each node's block to its candidate count: a node's j-th candidate
  // is matched with the j-th entry of its block.
  st.prev_touched.swap(st.touched);
  st.touched.clear();
  for (const Move& m : moves) {
    if (!tree.isValid(m.node) ||
        (m.type == MoveType::kReassign && !tree.isValid(m.new_parent))) {
      st = State{};  // leave no half-counted batch behind
      throw std::out_of_range("ScoreMemo: move " + std::to_string(m.node) +
                              " names an invalid node");
    }
    if (st.count[static_cast<std::size_t>(m.node)]++ == 0)
      st.touched.push_back(m.node);
  }
  for (const int v : st.prev_touched)
    if (st.count[static_cast<std::size_t>(v)] == 0)
      st.blocks[static_cast<std::size_t>(v)] = State::Block{};
  for (const int v : st.touched)
    st.blocks[static_cast<std::size_t>(v)].entries.resize(
        st.count[static_cast<std::size_t>(v)]);
  // Walking the moves backwards, a node's count steps down through its
  // candidates' positions and ends at zero, ready for the next batch. An
  // equal key with an unchanged read set reuses the entry; anything else
  // (including a new, zero-generation entry) is recomputed.
  st.entry_of.resize(moves.size());
  for (std::size_t i = moves.size(); i-- > 0;) {
    const Move& m = moves[i];
    const std::uint32_t j = --st.count[static_cast<std::size_t>(m.node)];
    State::Entry& e = st.blocks[static_cast<std::size_t>(m.node)].entries[j];
    std::uint32_t read_gen = movedGen(m.node);
    if (m.type == MoveType::kReassign)
      read_gen = std::max(read_gen, targetGen(m.new_parent));
    const State::Entry key = State::keyOf(m);
    if (!State::sameKey(e, key) || read_gen > e.gen) {
      e = key;
      e.gen = gen;
    }
    st.entry_of[i] = j;
  }

  // Lay each touched block's values out in entry order. Reused values
  // keep their place unless an earlier entry changed its stride.
  st.reused = 0;
  for (const int v : st.touched) {
    State::Block& blk = st.blocks[static_cast<std::size_t>(v)];
    std::size_t total = 0;
    bool shifted = false;
    for (const State::Entry& e : blk.entries) {
      if (e.gen != gen) {
        ++st.reused;
        shifted = shifted || e.off != total;
      }
      total += st.stride(e);
    }
    if (shifted) {
      std::vector<double> values(total);
      std::size_t off = 0;
      for (const State::Entry& e : blk.entries) {
        if (e.gen != gen)
          std::copy_n(blk.values.begin() + static_cast<std::ptrdiff_t>(e.off),
                      st.stride(e),
                      values.begin() + static_cast<std::ptrdiff_t>(off));
        off += st.stride(e);
      }
      blk.values.swap(values);
    } else {
      blk.values.resize(total);
    }
    std::size_t off = 0;
    for (State::Entry& e : blk.entries) {
      e.off = static_cast<std::uint32_t>(off);
      off += st.stride(e);
    }
  }
}

void MovePredictor::scoreBatch(std::span<const Move> moves,
                               std::span<double> out,
                               support::ThreadPool* pool,
                               ScoreMemo* memo) const {
  // Driven only by the candidate count — deterministic for a given
  // optimization, so serial and parallel snapshots stay identical. A round
  // scores 10^4-10^5 candidates, hence bounds up to 2^16.
  static obs::Histogram& sizes = obs::MetricsRegistry::global().histogram(
      "skewopt_local_score_batch_size",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
       2048.0, 4096.0, 8192.0, 16384.0, 32768.0, 65536.0},
      "Candidate moves scored per MovePredictor::scoreBatch call");
  sizes.observe(static_cast<double>(moves.size()));
  ScoreMemo::State* st = memo != nullptr ? memo->s_.get() : nullptr;
  if (st != nullptr) prepareMemo(moves, *st);
  // With a memo, each index reads or writes only its own entry's values.
  auto score = [&](std::size_t i) {
    const Move& m = moves[i];
    if (st == nullptr) {
      out[i] = predictedVariationDelta(m);
      return;
    }
    ScoreMemo::State::Block& blk = st->blocks[static_cast<std::size_t>(m.node)];
    const ScoreMemo::State::Entry& e = blk.entries[st->entry_of[i]];
    double* dval = blk.values.data() + e.off;
    Scratch& s = threadScratch();
    if (e.gen == st->gen) {
      const std::size_t n = analyzer_.analyzeInto(m, s.groups);
      groupValues(std::span<const ImpactGroup>(s.groups.data(), n), m, dval);
    }
    out[i] = variationDelta(m, dval, s);
  };
  try {
    if (pool != nullptr && moves.size() > 1) {
      pool->parallelFor(moves.size(), score);
    } else {
      for (std::size_t i = 0; i < moves.size(); ++i) score(i);
    }
  } catch (...) {
    // Entries of this batch may be marked computed without their values.
    if (st != nullptr) *st = ScoreMemo::State{};
    throw;
  }
}

}  // namespace skewopt::core
