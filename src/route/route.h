// Rectilinear routing topologies for clock nets.
//
// Three route generators, mirroring the paper's usage:
//  * greedySteiner()  — a FLUTE-class rectilinear Steiner heuristic (greedy
//                       point-to-segment attachment with trunk sharing). The
//                       delta-latency predictor calls this its "FLUTE tree".
//  * singleTrunk()    — the classical single-trunk Steiner tree (median
//                       trunk, per-pin stubs), the predictor's second
//                       topology estimate.
//  * ecoRoute()       — the "golden" router standing in for the commercial
//                       P&R tool's ECO routing. It is the greedy Steiner
//                       heuristic plus deterministic, congestion-like jog
//                       detours, so predicted and actual routes genuinely
//                       disagree — the gap the paper's ML model learns.
//
// Also provides U-shaped detour polylines used by the LP-guided ECO when an
// arc needs more wirelength than the straight run (paper Sec. 4.1).
#pragma once

#include <cstddef>
#include <vector>

#include "geom/geom.h"

namespace skewopt::route {

/// A routed tree. Node 0 is the driver pin. Every other node connects to
/// its parent through a rectilinear edge; `extra` adds snaking wirelength
/// (jogs/detours) on top of the Manhattan span of the edge.
struct SteinerTree {
  std::vector<geom::Point> nodes;
  std::vector<int> parent;       ///< parent[0] == -1
  std::vector<double> extra;     ///< extra routed length per edge (um)
  std::vector<std::size_t> pin_node;  ///< sink pin i -> node index

  std::size_t size() const { return nodes.size(); }

  double edgeLength(std::size_t n) const {
    return parent[n] < 0
               ? 0.0
               : geom::manhattan(nodes[n],
                                 nodes[static_cast<std::size_t>(parent[n])]) +
                     extra[n];
  }

  /// Total routed wirelength in um.
  double wirelength() const;

  /// Routed length from the driver to sink pin `i` along the tree.
  double pathLength(std::size_t pin) const;
};

/// Greedy rectilinear Steiner heuristic: pins attach, nearest-first, to the
/// closest point of any already-routed segment through an L-shaped
/// connection. Produces trunk-sharing topologies within a few percent of
/// RSMT length for clock-net fanouts.
SteinerTree greedySteiner(const geom::Point& driver,
                          const std::vector<geom::Point>& pins);

/// Single-trunk Steiner tree: a vertical trunk at the median pin x spanning
/// the pins' y-range; each pin (and the driver) connects with a horizontal
/// stub.
SteinerTree singleTrunk(const geom::Point& driver,
                        const std::vector<geom::Point>& pins);

/// greedySteiner() / singleTrunk() written into `out`, reusing its storage
/// and per-thread working space: a warm call allocates nothing.
void greedySteinerInto(const geom::Point& driver,
                       const std::vector<geom::Point>& pins, SteinerTree& out);
void singleTrunkInto(const geom::Point& driver,
                     const std::vector<geom::Point>& pins, SteinerTree& out);

/// Golden ECO route: greedy Steiner with deterministic pseudo-random jogs
/// (up to `jog_factor` fractional extra length per edge) derived from the
/// pin coordinates, standing in for real-router detours. The same placement
/// always yields the same route.
SteinerTree ecoRoute(const geom::Point& driver,
                     const std::vector<geom::Point>& pins,
                     double jog_factor = 0.08);

/// A rectilinear polyline from `a` to `b` whose total length is
/// max(manhattan(a,b), total_len), realized as a "U" detour perpendicular
/// to the dominant direction when extra length is needed.
std::vector<geom::Point> uShapePath(const geom::Point& a, const geom::Point& b,
                                    double total_len);

/// Total L1 length of a polyline.
double polylineLength(const std::vector<geom::Point>& path);

/// Point at arc-length `dist` along a polyline (clamped to its ends).
geom::Point pointAlongPath(const std::vector<geom::Point>& path, double dist);

}  // namespace skewopt::route
