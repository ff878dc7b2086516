"""Lattice polytope operations for nef-partition duality.

Facets and vertices come from the extreme rays of a homogenized cone
(``exact_linalg.hull_facets``), in any ambient rank.  Polytopes of lower
dimension than their ambient space are allowed and carry the equations of
their affine hull.
"""

from fractions import Fraction
from functools import cached_property

from . import exact_linalg as xl
from .errors import DimensionMismatch, NotReflexive, OriginNotInterior


class LatticePolytope:
    """Convex hull of finitely many points, stored by its exact vertex set.

    ``equations`` and ``facets`` list pairs (a, c) meaning a.x == c and
    a.x <= c with primitive integer a; together they cut out the polytope,
    of any dimension.  A polytope is an immutable value, so its polar
    ``dual`` is formed once and kept.
    """

    def __init__(self, rank, vertices, dim, facets, equations):
        self.rank = rank
        self.vertices = vertices
        self.dim = dim
        self.facets = facets
        self.equations = equations

    def __eq__(self, other):
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        return self.rank == other.rank and set(self.vertices) == set(other.vertices)

    def __hash__(self):
        return hash((self.rank, frozenset(self.vertices)))

    def is_lattice(self):
        return all(Fraction(x).denominator == 1 for v in self.vertices for x in v)

    def contains(self, point):
        """Exact membership test, degenerate polytopes included."""
        return (all(xl.dot(a, point) == c for a, c in self.equations)
                and all(xl.dot(a, point) <= c for a, c in self.facets))

    def has_interior_origin(self):
        if self.dim != self.rank:
            return False
        origin = (0,) * self.rank
        return all(xl.dot(a, origin) < c for a, c in self.facets)

    @cached_property
    def dual(self):
        return polar_dual(self)


def _dedupe(points):
    seen, out = set(), []
    for p in points:
        t = tuple(Fraction(x) for x in p)
        t = tuple(int(x) if x.denominator == 1 else x for x in t)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def convex_hull(points):
    """Convex hull with minimal vertex set, from ``xl.hull_facets``.

    Accepts integer or rational points; a point is a vertex when the facets
    it lies on have rank equal to the hull's dimension.
    """
    points = _dedupe(points)
    if not points:
        raise DimensionMismatch("convex_hull: no points")
    rank = len(points[0])
    if any(len(p) != rank for p in points):
        raise DimensionMismatch("convex_hull: mixed ambient ranks")
    equations, facets = xl.hull_facets(points)
    dim = rank - len(equations)
    vertices = []
    for p in points:
        active = [a for a, c in facets if xl.dot(a, p) == c]
        if len(active) >= dim and xl.rank(active) == dim:
            vertices.append(p)
    return LatticePolytope(rank, tuple(sorted(vertices)), dim, tuple(facets),
                           tuple(equations))


def minkowski_sum(p, q):
    """Hull of pairwise vertex sums."""
    if p.rank != q.rank:
        raise DimensionMismatch(f"minkowski_sum: rank {p.rank} vs {q.rank}")
    sums = [xl.vec_add(u, v) for u in p.vertices for v in q.vertices]
    return convex_hull(sums)


def polar_dual(p):
    """The polytope {y : <y, x> >= -1 for all x in p}.

    Requires the origin strictly inside p; vertices of the dual are read off
    the facets of p and may be rational.
    """
    if p.dim != p.rank or not p.has_interior_origin():
        raise OriginNotInterior("polar dual needs the origin strictly inside")
    dual_vertices = []
    for a, c in p.facets:
        dual_vertices.append(tuple(Fraction(-ai, c) for ai in a))
    return convex_hull(dual_vertices)


def is_reflexive(p):
    """Lattice polytope with interior origin whose polar dual is again one."""
    if p.dim != p.rank or not p.has_interior_origin() or not p.is_lattice():
        return False
    return p.dual.is_lattice() and p.dual.dual == p


def section_polytope(fan, block):
    """Lattice polytope of sections of the block's nef divisor sum.

    Cut out by <m, ray> >= -1 for rays in the block and >= 0 for the rest.
    """
    # vertices x / t from the rays with t > 0 of the homogenized cone
    rows = [tuple(ray) + (int(fan.block_of_ray[i_ray] == block),)
            for i_ray, ray in enumerate(fan.rays)]
    rows.append((0,) * fan.rank + (1,))
    verts = sorted(tuple(Fraction(x, r[-1]) for x in r[:-1])
                   for r in xl.extreme_rays(rows, fan.rank + 1) if r[-1] > 0)
    if not verts:
        raise NotReflexive(f"section polytope of block {block} is empty")
    out = []
    for v in verts:
        if any(Fraction(x).denominator != 1 for x in v):
            raise NotReflexive(
                f"section polytope of block {block} has non-lattice vertex {v}")
        out.append(tuple(int(x) for x in v))
    return convex_hull(out)


class DualNefPartition(tuple):
    """The polytopes conv({0} u I_k) of the partner partition, in block
    order, with their Minkowski sum ``nabla`` and the section polytopes
    ``sections`` of the input blocks."""

    def __new__(cls, nablas, nabla, sections):
        self = super().__new__(cls, nablas)
        self.nabla, self.sections = nabla, sections
        return self


def dual_nef_partition(fan):
    """The polytopes conv({0} u I_k) of the partner partition, with checks.

    Verifies that their Minkowski sum is reflexive and that its polar dual is
    the hull of the section polytopes of the input partition; failure of
    either check signals an invalid nef-partition.
    """
    nablas = []
    for k in range(fan.r):
        pts = [(0,) * fan.rank] + [fan.rays[i] for i in fan.blocks[k]]
        nablas.append(convex_hull(pts))
    nabla = nablas[0]
    for q in nablas[1:]:
        nabla = minkowski_sum(nabla, q)
    if not is_reflexive(nabla):
        raise NotReflexive("Minkowski sum of the partner polytopes is not reflexive")
    deltas = tuple(section_polytope(fan, k) for k in range(fan.r))
    hull_deltas = convex_hull([v for d in deltas for v in d.vertices])
    if nabla.dual != hull_deltas:
        raise NotReflexive(
            "polar dual of the Minkowski sum differs from the hull of the "
            "section polytopes")
    return DualNefPartition(nablas, nabla, deltas)
