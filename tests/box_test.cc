#include "core/box.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/rng.h"

namespace sthist {
namespace {

TEST(BoxTest, CubeConstruction) {
  Box b = Box::Cube(3, 0.0, 10.0);
  EXPECT_EQ(b.dim(), 3u);
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_DOUBLE_EQ(b.lo(d), 0.0);
    EXPECT_DOUBLE_EQ(b.hi(d), 10.0);
    EXPECT_DOUBLE_EQ(b.Extent(d), 10.0);
  }
  EXPECT_DOUBLE_EQ(b.Volume(), 1000.0);
}

TEST(BoxTest, VolumeOfDegenerateBoxIsZero) {
  Box b({0.0, 1.0}, {5.0, 1.0});
  EXPECT_DOUBLE_EQ(b.Volume(), 0.0);
}

TEST(BoxTest, ContainsPointClosedIntervals) {
  Box b({0.0, 0.0}, {1.0, 1.0});
  EXPECT_TRUE(b.ContainsPoint(Point{0.0, 0.0}));
  EXPECT_TRUE(b.ContainsPoint(Point{1.0, 1.0}));
  EXPECT_TRUE(b.ContainsPoint(Point{0.5, 0.5}));
  EXPECT_FALSE(b.ContainsPoint(Point{1.0001, 0.5}));
  EXPECT_FALSE(b.ContainsPoint(Point{0.5, -0.0001}));
}

TEST(BoxTest, ContainsBoxAllowsTouchingBoundaries) {
  Box outer({0.0, 0.0}, {10.0, 10.0});
  Box inner({0.0, 2.0}, {10.0, 3.0});
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
  EXPECT_TRUE(outer.Contains(outer));
}

TEST(BoxTest, IntersectsIsOpenOverlap) {
  Box a({0.0, 0.0}, {1.0, 1.0});
  Box touching({1.0, 0.0}, {2.0, 1.0});
  Box overlapping({0.5, 0.5}, {2.0, 2.0});
  Box disjoint({3.0, 3.0}, {4.0, 4.0});
  EXPECT_FALSE(a.Intersects(touching)) << "shared face is not an overlap";
  EXPECT_TRUE(a.Intersects(overlapping));
  EXPECT_FALSE(a.Intersects(disjoint));
}

TEST(BoxTest, IntersectionGeometry) {
  Box a({0.0, 0.0}, {4.0, 4.0});
  Box b({2.0, 1.0}, {6.0, 3.0});
  Box i = a.Intersection(b);
  EXPECT_EQ(i, Box({2.0, 1.0}, {4.0, 3.0}));
  EXPECT_DOUBLE_EQ(a.IntersectionVolume(b), 4.0);
}

TEST(BoxTest, IntersectionOfDisjointBoxesIsDegenerate) {
  Box a({0.0, 0.0}, {1.0, 1.0});
  Box b({2.0, 2.0}, {3.0, 3.0});
  EXPECT_DOUBLE_EQ(a.Intersection(b).Volume(), 0.0);
  EXPECT_DOUBLE_EQ(a.IntersectionVolume(b), 0.0);
}

TEST(BoxTest, EnclosureCoversBoth) {
  Box a({0.0, 5.0}, {1.0, 6.0});
  Box b({3.0, 0.0}, {4.0, 1.0});
  Box e = Box::Enclosure(a, b);
  EXPECT_TRUE(e.Contains(a));
  EXPECT_TRUE(e.Contains(b));
  EXPECT_EQ(e, Box({0.0, 0.0}, {4.0, 6.0}));
}

TEST(BoxTest, ExtendToContainGrowsInPlace) {
  Box a({0.0, 0.0}, {1.0, 1.0});
  a.ExtendToContain(Box({-1.0, 0.5}, {0.5, 3.0}));
  EXPECT_EQ(a, Box({-1.0, 0.0}, {1.0, 3.0}));
}

TEST(BoxTest, ApproxEquals) {
  Box a({0.0, 0.0}, {1.0, 1.0});
  Box b({0.0, 1e-12}, {1.0, 1.0});
  EXPECT_TRUE(a.ApproxEquals(b, 1e-9));
  EXPECT_FALSE(a.ApproxEquals(b, 1e-15));
  EXPECT_FALSE(a.ApproxEquals(Box::Cube(3, 0.0, 1.0), 1.0));
}

TEST(BoxTest, ToStringMentionsEveryDimension) {
  Box b({0.0, 2.0}, {1.0, 5.0});
  EXPECT_EQ(b.ToString(), "[0,1]x[2,5]");
}

// A box owns its bounds: copies are independent, a copy may change
// dimension, and a moved-from box is empty.
TEST(BoxTest, CopiesOwnTheirBoundsAndMovesLeaveEmpty) {
  Box a({0.0, 2.0}, {1.0, 5.0});
  Box b = a;
  b.set_hi(1, 9.0);
  EXPECT_EQ(a.hi(1), 5.0);
  EXPECT_EQ(b.lo_data()[1], 2.0);
  EXPECT_EQ(b.hi_data()[1], 9.0);
  EXPECT_FALSE(a == b);

  Box c = Box::Cube(3, 0.0, 1.0);
  c = a;
  EXPECT_EQ(c.dim(), 2u);
  EXPECT_TRUE(c == a);
  const Box& same = c;
  c = same;
  EXPECT_TRUE(c == a);

  Box d = std::move(c);
  EXPECT_TRUE(d == a);
  EXPECT_EQ(c.dim(), 0u);  // NOLINT(bugprone-use-after-move)
  c = d;
  EXPECT_TRUE(c == a);
  EXPECT_FALSE(Box() == a);
  EXPECT_TRUE(Box() == Box());
}

// Property sweep: intersection volume is symmetric, bounded by each operand's
// volume, and consistent with Intersects.
class BoxPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoxPropertyTest, IntersectionVolumeInvariants) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    size_t dim = 1 + rng.Index(5);
    std::vector<double> alo(dim), ahi(dim), blo(dim), bhi(dim);
    for (size_t d = 0; d < dim; ++d) {
      double a1 = rng.Uniform(-10, 10), a2 = rng.Uniform(-10, 10);
      double b1 = rng.Uniform(-10, 10), b2 = rng.Uniform(-10, 10);
      alo[d] = std::min(a1, a2);
      ahi[d] = std::max(a1, a2);
      blo[d] = std::min(b1, b2);
      bhi[d] = std::max(b1, b2);
    }
    Box a(alo, ahi), b(blo, bhi);
    double vab = a.IntersectionVolume(b);
    double vba = b.IntersectionVolume(a);
    EXPECT_DOUBLE_EQ(vab, vba);
    EXPECT_LE(vab, a.Volume() + 1e-12);
    EXPECT_LE(vab, b.Volume() + 1e-12);
    EXPECT_EQ(vab > 0.0, a.Intersects(b));
    // Intersection box volume agrees with IntersectionVolume.
    EXPECT_NEAR(a.Intersection(b).Volume(), vab, 1e-9);
    // Enclosure contains both.
    Box e = Box::Enclosure(a, b);
    EXPECT_TRUE(e.Contains(a));
    EXPECT_TRUE(e.Contains(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sthist
