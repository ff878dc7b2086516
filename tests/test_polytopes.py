from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from conftest import p1_fan, p1xp1_fan_r2, p2_fan, f1_fan
from gkzfrac import exact_linalg as xl
from gkzfrac import polytopes as pt
from gkzfrac.errors import DimensionMismatch, OriginNotInterior


def in_hull(points, q):
    """Oracle: q is a convex combination of points.  By Caratheodory it is
    one of at most len(q) + 1 affinely independent points, whose weights
    are then the unique solution of the barycentric system."""
    for size in range(1, len(q) + 2):
        for subset in combinations(points, size):
            weights = xl.solve_unique(
                [(1,) * size] + [tuple(p[k] for p in subset)
                                 for k in range(len(q))],
                (1,) + tuple(q))
            if weights is not None and all(w >= 0 for w in weights):
                return True
    return False


def brute_force_vertices(points):
    """Oracle: p is a vertex iff it is not a convex combination of the rest."""
    points = pt._dedupe(points)
    return sorted(p for p in points
                  if not in_hull([q for q in points if q != p], p))


# --- convex_hull ----------------------------------------------------------------

def test_hull_segment():
    h = pt.convex_hull([(0,), (1,), (-1,)])
    assert set(h.vertices) == {(-1,), (1,)}


def test_hull_triangle_with_interior_origin():
    points = [(0, 0), (1, 0), (0, 1), (-1, -1)]
    h = pt.convex_hull(points)
    assert sorted(h.vertices) == brute_force_vertices(points)
    assert set(h.vertices) == {(1, 0), (0, 1), (-1, -1)}


def test_hull_single_point():
    h = pt.convex_hull([(2, 3)])
    assert h.vertices == ((2, 3),)
    assert h.dim == 0


def test_hull_matches_oracle_random():
    import random
    rng = random.Random(11)
    for _ in range(20):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6)]
        h = pt.convex_hull(pts)
        assert sorted(h.vertices) == brute_force_vertices(pts)


def test_hull_rank_five():
    units = [tuple(int(i == k) for i in range(5)) for k in range(5)]
    cross = pt.convex_hull(units + [tuple(-x for x in u) for u in units])
    assert len(cross.vertices) == 10 and len(cross.facets) == 32
    assert pt.is_reflexive(cross)
    cube = pt.polar_dual(cross)
    assert set(cube.vertices) == set(product((-1, 1), repeat=5))
    segment = pt.convex_hull([(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
    assert segment.dim == 1
    assert set(segment.vertices) == {(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)}


def test_hull_degenerate_segment_in_plane():
    h = pt.convex_hull([(0, 0), (1, 1), (2, 2)])
    assert set(h.vertices) == {(0, 0), (2, 2)}
    assert h.dim == 1


DEGENERATE = {
    "point": [(2, -1)],
    "segment in the plane": [(0, 0), (1, 1), (3, 3), (2, 2)],
    "triangle in space": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)],
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_contains_equals_the_oracle(name):
    points = DEGENERATE[name]
    h = pt.convex_hull(points)
    assert h.dim < h.rank == len(h.equations) + h.dim
    halves = [Fraction(k, 2) for k in range(-2, 6)]
    inside = 0
    for q in product(halves, repeat=h.rank):
        assert h.contains(q) == in_hull(points, q), q
        inside += h.contains(q)
    assert inside == {"point": 1, "segment in the plane": 6,
                      "triangle in space": 6}[name]
    assert all(h.contains(p) for p in points)


# --- minkowski_sum ----------------------------------------------------------------

def test_minkowski_unit_square():
    a = pt.convex_hull([(0, 0), (1, 0)])
    b = pt.convex_hull([(0, 0), (0, 1)])
    s = pt.minkowski_sum(a, b)
    assert set(s.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_minkowski_origin_identity():
    p = pt.convex_hull([(1, 0), (0, 1), (-1, -1)])
    origin = pt.convex_hull([(0, 0)])
    assert pt.minkowski_sum(p, origin) == p


def test_minkowski_p1xp1_partition():
    n1 = pt.convex_hull([(0, 0), (1, 0), (-1, 0)])
    n2 = pt.convex_hull([(0, 0), (0, 1), (0, -1)])
    s = pt.minkowski_sum(n1, n2)
    # oracle: enumerate vertex sums and re-hull
    sums = [tuple(a + b for a, b in zip(u, v))
            for u in n1.vertices for v in n2.vertices]
    assert sorted(s.vertices) == brute_force_vertices(sums)
    assert set(s.vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_minkowski_rank_mismatch():
    with pytest.raises(DimensionMismatch):
        pt.minkowski_sum(pt.convex_hull([(0,)]), pt.convex_hull([(0, 0)]))


def test_minkowski_commutative_associative():
    a = pt.convex_hull([(0, 0), (1, 0), (-1, 0)])
    b = pt.convex_hull([(0, 0), (0, 1)])
    c = pt.convex_hull([(1, 1), (-1, -1)])
    for x, y in permutations([a, b], 2):
        assert pt.minkowski_sum(x, y) == pt.minkowski_sum(y, x)
    assert (pt.minkowski_sum(pt.minkowski_sum(a, b), c)
            == pt.minkowski_sum(a, pt.minkowski_sum(b, c)))


# --- polar_dual ------------------------------------------------------------------

def test_polar_square_is_diamond():
    square = pt.convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    dual = pt.polar_dual(square)
    assert set(dual.vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_polar_triangle_exact():
    tri = pt.convex_hull([(1, 0), (0, 1), (-1, -1)])
    dual = pt.polar_dual(tri)
    assert set(dual.vertices) == {(2, -1), (-1, 2), (-1, -1)}


def test_polar_segment_self_dual():
    seg = pt.convex_hull([(1,), (-1,)])
    assert pt.polar_dual(seg) == seg


def test_polar_requires_interior_origin():
    with pytest.raises(OriginNotInterior):
        pt.polar_dual(pt.convex_hull([(0, 0), (1, 0), (0, 1)]))


# --- is_reflexive ------------------------------------------------------------------

def test_reflexive_segment():
    assert pt.is_reflexive(pt.convex_hull([(1,), (-1,)]))


def test_not_reflexive_wide_segment():
    assert not pt.is_reflexive(pt.convex_hull([(2,), (-2,)]))


def test_reflexive_triangle():
    tri = pt.convex_hull([(1, 0), (0, 1), (-1, -1)])
    assert pt.is_reflexive(tri)
    assert pt.polar_dual(pt.polar_dual(tri)) == tri


# --- dual_nef_partition -------------------------------------------------------------

def test_dual_partition_p1():
    nablas = pt.dual_nef_partition(p1_fan())
    assert len(nablas) == 1
    assert set(nablas[0].vertices) == {(-1,), (1,)}


def test_dual_partition_p1xp1():
    nablas = pt.dual_nef_partition(p1xp1_fan_r2())
    assert set(nablas[0].vertices) == {(1, 0), (-1, 0)}
    assert set(nablas[1].vertices) == {(0, 1), (0, -1)}


def test_dual_partition_p2():
    nablas = pt.dual_nef_partition(p2_fan())
    assert set(nablas[0].vertices) == {(1, 0), (0, 1), (-1, -1)}


def test_dual_partition_roundtrip_corpus(corpus_fan):
    nablas = pt.dual_nef_partition(corpus_fan)
    nabla = nablas[0]
    for q in nablas[1:]:
        nabla = pt.minkowski_sum(nabla, q)
    assert pt.is_reflexive(nabla)
    assert pt.polar_dual(pt.polar_dual(nabla)) == nabla
    # the dual body contains every section polytope
    dual = pt.polar_dual(nabla)
    for k in range(corpus_fan.r):
        delta = pt.section_polytope(corpus_fan, k)
        for v in delta.vertices:
            assert dual.contains(v)


def test_section_polytope_p2_anticanonical():
    delta = pt.section_polytope(p2_fan(), 0)
    assert set(delta.vertices) == {(2, -1), (-1, 2), (-1, -1)}


def test_section_polytope_f1():
    delta = pt.section_polytope(f1_fan(), 0)
    assert all(isinstance(x, int) for v in delta.vertices for x in v)
    assert (0, 0) not in delta.vertices
    assert delta.contains((0, 0))
