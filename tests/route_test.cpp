#include "route/route.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace skewopt::route {
namespace {

using geom::Point;

double hpwl(const Point& driver, const std::vector<Point>& pins) {
  geom::BBox b;
  b.add(driver);
  for (const Point& p : pins) b.add(p);
  return b.halfPerimeter();
}

// Prim MST wirelength over driver + pins (upper bound for any good RSMT).
double mstLength(const Point& driver, const std::vector<Point>& pins) {
  std::vector<Point> pts = pins;
  pts.push_back(driver);
  std::vector<char> in(pts.size(), 0);
  std::vector<double> dist(pts.size(), 1e18);
  in[pts.size() - 1] = 1;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i)
    dist[i] = geom::manhattan(pts[i], pts.back());
  double total = 0.0;
  for (std::size_t it = 0; it + 1 < pts.size(); ++it) {
    std::size_t best = 0;
    double bd = 1e18;
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (!in[i] && dist[i] < bd) {
        bd = dist[i];
        best = i;
      }
    in[best] = 1;
    total += bd;
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (!in[i])
        dist[i] = std::min(dist[i], geom::manhattan(pts[i], pts[best]));
  }
  return total;
}

TEST(GreedySteiner, SinglePinIsLShape) {
  const SteinerTree t = greedySteiner({0, 0}, {{10, 5}});
  EXPECT_DOUBLE_EQ(t.wirelength(), 15.0);
  ASSERT_EQ(t.pin_node.size(), 1u);
  EXPECT_DOUBLE_EQ(t.pathLength(0), 15.0);
}

TEST(GreedySteiner, CollinearPinsShareTrunk) {
  const SteinerTree t = greedySteiner({0, 0}, {{10, 0}, {20, 0}, {5, 0}});
  EXPECT_DOUBLE_EQ(t.wirelength(), 20.0);  // one straight trunk
}

TEST(GreedySteiner, SharesTrunkBetterThanStar) {
  // Two pins far right, close together: a star would pay twice.
  const SteinerTree t = greedySteiner({0, 0}, {{100, 2}, {100, -2}});
  EXPECT_LT(t.wirelength(), 150.0);   // star = 204
  EXPECT_GE(t.wirelength(), 104.0);   // RSMT = 104
}

TEST(GreedySteiner, StructureInvariants) {
  geom::Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Point> pins;
    const std::size_t n = 2 + rng.index(15);
    for (std::size_t i = 0; i < n; ++i)
      pins.push_back(rng.pointIn(geom::Rect{0, 0, 300, 300}));
    const Point drv = rng.pointIn(geom::Rect{0, 0, 300, 300});
    const SteinerTree t = greedySteiner(drv, pins);
    ASSERT_EQ(t.pin_node.size(), pins.size());
    EXPECT_EQ(t.parent[0], -1);
    for (std::size_t i = 0; i < pins.size(); ++i) {
      EXPECT_EQ(t.nodes[t.pin_node[i]].x, pins[i].x);
      EXPECT_EQ(t.nodes[t.pin_node[i]].y, pins[i].y);
      EXPECT_GE(t.pathLength(i) + 1e-9, geom::manhattan(drv, pins[i]));
    }
    // All edges axis-aligned.
    for (std::size_t nidx = 1; nidx < t.size(); ++nidx) {
      const Point& a = t.nodes[nidx];
      const Point& b = t.nodes[static_cast<std::size_t>(t.parent[nidx])];
      EXPECT_TRUE(a.x == b.x || a.y == b.y);
    }
    // Competitive wirelength: within 10% of the MST upper bound and at
    // least half the HPWL lower bound.
    EXPECT_LE(t.wirelength(), 1.10 * mstLength(drv, pins) + 1e-9);
    EXPECT_GE(t.wirelength() * 2.0 + 1e-9, hpwl(drv, pins));
  }
}

TEST(SingleTrunk, BasicShape) {
  const SteinerTree t = singleTrunk({0, 0}, {{10, 10}, {-10, 20}, {4, 30}});
  ASSERT_EQ(t.pin_node.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_GE(t.pathLength(i) + 1e-9,
              geom::manhattan({0, 0}, t.nodes[t.pin_node[i]]));
  EXPECT_EQ(t.parent[0], -1);
}

TEST(SingleTrunk, TrunkAtMedianX) {
  const SteinerTree t = singleTrunk({0, 0}, {{10, 5}, {20, 10}, {30, 15}});
  // Wirelength accounts for trunk span + stubs; must beat the star.
  double star = 0.0;
  for (const Point& p : std::vector<Point>{{10, 5}, {20, 10}, {30, 15}})
    star += geom::manhattan({0, 0}, p);
  EXPECT_LT(t.wirelength(), star);
}

TEST(SingleTrunk, HandlesCoincidentYs) {
  const SteinerTree t = singleTrunk({0, 0}, {{5, 3}, {9, 3}, {-4, 3}});
  ASSERT_EQ(t.pin_node.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_GT(t.pathLength(i), 0.0);
}

void expectSameTree(const SteinerTree& a, const SteinerTree& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a.nodes[n].x, b.nodes[n].x);
    EXPECT_EQ(a.nodes[n].y, b.nodes[n].y);
    EXPECT_EQ(a.parent[n], b.parent[n]);
    EXPECT_EQ(a.extra[n], b.extra[n]);
  }
  EXPECT_EQ(a.pin_node, b.pin_node);
}

TEST(SteinerInto, ReusedTreeMatchesFreshBuild) {
  // The into-forms rebuild a tree in place: what a larger (or smaller) net
  // left in the tree must not leak into the next one.
  geom::Rng rng(33);
  SteinerTree greedy, trunk;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Point> pins(rng.index(trial % 2 == 0 ? 24 : 4));
    for (Point& p : pins) p = rng.pointIn(geom::Rect{0, 0, 200, 200});
    const Point drv = rng.pointIn(geom::Rect{0, 0, 200, 200});
    greedySteinerInto(drv, pins, greedy);
    singleTrunkInto(drv, pins, trunk);
    expectSameTree(greedy, greedySteiner(drv, pins));
    expectSameTree(trunk, singleTrunk(drv, pins));
  }
}

TEST(EcoRoute, DeterministicForSamePlacement) {
  std::vector<Point> pins = {{10, 40}, {80, 20}, {35, 77}};
  const SteinerTree a = ecoRoute({5, 5}, pins);
  const SteinerTree b = ecoRoute({5, 5}, pins);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a.wirelength(), b.wirelength());
}

TEST(EcoRoute, JogsBoundedByFactor) {
  // Detours = systematic congestion share (bounded by the fanout/aspect
  // model, < ~0.35 of wirelength) + random jogs up to jog_factor.
  std::vector<Point> pins = {{10, 40}, {80, 20}, {35, 77}, {60, 60}};
  const SteinerTree ideal = ecoRoute({5, 5}, pins, 0.0);
  const SteinerTree jogged = ecoRoute({5, 5}, pins, 0.10);
  EXPECT_GE(jogged.wirelength() + 1e-9, ideal.wirelength());
  EXPECT_LE(jogged.wirelength(), ideal.wirelength() * (1.35 + 0.10) + 1e-9);
}

TEST(EcoRoute, SystematicDetourGrowsWithFanout) {
  geom::Rng rng(8);
  std::vector<Point> few, many;
  for (int i = 0; i < 3; ++i)
    few.push_back(rng.pointIn(geom::Rect{0, 0, 200, 200}));
  many = few;
  for (int i = 0; i < 25; ++i)
    many.push_back(rng.pointIn(geom::Rect{0, 0, 200, 200}));
  auto detour_share = [](const SteinerTree& t) {
    double extra = 0.0;
    for (const double e : t.extra) extra += e;
    return extra / t.wirelength();
  };
  // Same jog factor: the high-fanout net detours a larger share.
  const double share_few = detour_share(ecoRoute({100, 100}, few, 0.05));
  const double share_many = detour_share(ecoRoute({100, 100}, many, 0.05));
  EXPECT_GT(share_many, share_few);
}

TEST(EcoRoute, DiffersFromPredictorEstimate) {
  // The golden router deliberately deviates from the plain greedy order —
  // the paper's ML model exists to absorb exactly this gap.
  geom::Rng rng(4);
  int diffs = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Point> pins;
    for (int i = 0; i < 8; ++i)
      pins.push_back(rng.pointIn(geom::Rect{0, 0, 200, 200}));
    const Point drv{100, 100};
    if (std::abs(ecoRoute(drv, pins).wirelength() -
                 greedySteiner(drv, pins).wirelength()) > 1e-6)
      ++diffs;
  }
  EXPECT_GT(diffs, 10);
}

TEST(UShape, NoDetourWhenLengthFits) {
  const auto path = uShapePath({0, 0}, {10, 5}, 10.0);
  EXPECT_DOUBLE_EQ(polylineLength(path), 15.0);  // direct L
}

TEST(UShape, ExactDetourLength) {
  for (double want : {20.0, 31.5, 80.0}) {
    const auto path = uShapePath({0, 0}, {10, 5}, want);
    EXPECT_NEAR(polylineLength(path), want, 1e-9) << want;
    EXPECT_EQ(path.front().x, 0.0);
    EXPECT_EQ(path.back().x, 10.0);
    EXPECT_EQ(path.back().y, 5.0);
  }
}

TEST(UShape, DegenerateSamePoint) {
  const auto path = uShapePath({3, 3}, {3, 3}, 12.0);
  EXPECT_NEAR(polylineLength(path), 12.0, 1e-9);
}

TEST(UShape, VerticalDominant) {
  const auto path = uShapePath({0, 0}, {2, 50}, 80.0);
  EXPECT_NEAR(polylineLength(path), 80.0, 1e-9);
}

TEST(PointAlongPath, WalksSegments) {
  const std::vector<Point> path = {{0, 0}, {10, 0}, {10, 10}};
  EXPECT_EQ(pointAlongPath(path, 0.0).x, 0.0);
  EXPECT_DOUBLE_EQ(pointAlongPath(path, 5.0).x, 5.0);
  EXPECT_DOUBLE_EQ(pointAlongPath(path, 15.0).y, 5.0);
  EXPECT_DOUBLE_EQ(pointAlongPath(path, 99.0).y, 10.0);  // clamped to end
}

// Property: U-shape detour landing points stay near the segment's bbox.
class UShapeProp : public ::testing::TestWithParam<int> {};
TEST_P(UShapeProp, LengthAlwaysExact) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  for (int i = 0; i < 50; ++i) {
    const Point a = rng.pointIn(geom::Rect{0, 0, 500, 500});
    const Point b = rng.pointIn(geom::Rect{0, 0, 500, 500});
    const double direct = geom::manhattan(a, b);
    const double want = direct + rng.uniform(0.0, 300.0);
    const auto path = uShapePath(a, b, want);
    EXPECT_NEAR(polylineLength(path), std::max(want, direct), 1e-6);
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, UShapeProp, ::testing::Range(0, 6));

}  // namespace
}  // namespace skewopt::route
