"""One cone object: ``toric.ConeDescription(dim, inequalities)``.

The builders it replaced are kept verbatim below as references, each
building the old cone object that kept whatever rows it was built from:
the Kahler cone from the primitive collections, the secondary cone of a
triangulation from its covectors and a Groebner chamber from the exponent
differences of a reduced basis.  So is the fan walk before it reused the
chambers its probes found.
"""

import random
from fractions import Fraction

import pytest

from test_exact_linalg import (ENGINE_INSTANCES, SQUARE8, TRIANGLE9,
                               cone_shape, cyclic_surface,
                               dual_cone_extreme_rays, fm_feasible,
                               has_interior_point, random_row_cases)
from gkzfrac import checks, gkz
from gkzfrac import exact_linalg as xl
from gkzfrac import triangulations as tr
from gkzfrac.errors import EmptyInterior, NonTermination, NotRegular
from gkzfrac.toric import ConeDescription
from gkzfrac.triangulations import (FAN_CHAMBER_CAP, PointConfiguration,
                                    _facets, toric_groebner_basis)


class OldCone:
    """The cone object the old builders returned: their rows as given."""

    def __init__(self, dim, inequalities, rays):
        self.dim = dim
        self.inequalities = inequalities
        self.rays = rays

    def contains(self, y, strict=False):
        if strict:
            return all(xl.dot(g, y) > 0 for g in self.inequalities)
        return all(xl.dot(g, y) >= 0 for g in self.inequalities)


def old_kahler_cone(coords, collections):
    """The old ``toric.kahler_cone``: one primitive row per collection, in
    collection order, repeats dropped."""
    gens = []
    seen = set()
    for pc in collections:
        g = xl.primitive_vector(coords(pc.ell_ext))
        if g not in seen:
            seen.add(g)
            gens.append(g)
    dim = len(gens[0])
    rays = xl.extreme_rays(gens, dim)
    if not rays:
        raise EmptyInterior("no extreme rays: ample cone is empty")
    candidate = tuple(sum(col) for col in zip(*rays))
    if not all(xl.dot(g, candidate) > 0 for g in gens):
        raise EmptyInterior("dual of the curve cone has empty interior")
    return OldCone(dim=dim, inequalities=tuple(gens), rays=tuple(rays))


def old_secondary_cone(sys, pc, tri):
    """The old ``triangulations.secondary_cone``: one sorted primitive row
    per (simplex, outside point) covector, repeats dropped."""
    npts = len(pc.points)
    covectors = set()
    for s in tri.simplices:
        mat = tuple(zip(*(pc.points[i] for i in s)))
        for outside in range(npts):
            if outside in s:
                continue
            coeffs = xl.solve_unique(mat, pc.points[outside])
            lam = [Fraction(0)] * npts
            lam[outside] = Fraction(1)
            for i, c in zip(s, coeffs):
                lam[i] -= c
            lam = xl.primitive_vector(xl.integer_scaled(lam)[0])
            assert sys.in_kernel(lam)
            covectors.add(lam)
    ineqs = set()
    for lam in sorted(covectors):
        coords = sys.basis_coords(lam)
        ineqs.add(xl.primitive_vector(coords))
    ineqs = tuple(sorted(ineqs))
    dim = len(sys.basis)
    strict_rows = [(tuple(-Fraction(x) for x in g), Fraction(0), True)
                   for g in ineqs]
    if not fm_feasible(strict_rows, dim):
        raise NotRegular("triangulation admits no strictly convex weight")
    rays = xl.extreme_rays(ineqs, dim)
    return OldCone(dim=dim, inequalities=ineqs, rays=tuple(rays))


def old_groebner_chamber(sys, direction):
    """The old ``groebner_fan`` chamber: one sorted primitive row per
    binomial of the reduced basis, repeats dropped."""
    omega = sys.lift_weight_class(direction)
    ideal = toric_groebner_basis(sys, omega)
    ineqs = set()
    for u, v in ideal.generators:
        diff = tuple(a - b for a, b in zip(u, v))
        ineqs.add(xl.primitive_vector(sys.basis_coords(diff)))
    ineqs = tuple(sorted(ineqs))
    dim = len(sys.basis)
    rays = xl.extreme_rays(ineqs, dim)
    return OldCone(dim=dim, inequalities=ineqs, rays=tuple(rays))


def walk_without_reuse(chamber_of, start):
    """The old ``triangulations.walk_fan``: a probe whose chamber lacks a
    facet ray is thrown away, and its chamber asked for again later."""
    label, cone = chamber_of(start)
    assert cone.contains(start, strict=True), "start direction lies on a wall"
    chambers = [(cone, label)]

    def cross(rays, normal):
        """The chamber across a facet, or None when it is already found."""
        probes = [xl.primitive_vector(
            tuple(2 * 4 ** k * sum(r[i] for r in rays) - n
                  for i, n in enumerate(normal))) for k in range(12)]
        known = [c for c, _ in chambers if all(r in c.rays for r in rays)]
        if any(c.contains(p, strict=True) for p in probes for c in known):
            return None
        for probe in probes:
            try:
                label, chamber = chamber_of(probe)
            except NotRegular:
                continue
            if (chamber.contains(probe, strict=True)
                    and all(r in chamber.rays for r in rays)):
                return chamber, label
        raise NonTermination("could not step across a chamber wall")

    def visit(chamber):
        for rays, normal in _facets(chamber):
            found = cross(rays, normal)
            if found is not None:
                chambers.append(found)
                if len(chambers) > FAN_CHAMBER_CAP:
                    raise NonTermination(
                        f"fan walk passed {FAN_CHAMBER_CAP} chambers "
                        "(cap FAN_CHAMBER_CAP)")
                visit(found[0])

    visit(cone)
    return chambers


def key(cone):
    return cone.inequalities, cone.rays


def tight_facets(old):
    """The old rows, made primitive, that are tight on rays of rank
    dim - 1, sorted."""
    return tuple(sorted(
        g for g in old.inequalities
        if xl.rank([r for r in old.rays if xl.dot(g, r) == 0]) == old.dim - 1))


def assert_matches_old(old, new):
    assert new.dim == old.dim
    assert new.rays == old.rays
    assert new.inequalities == tight_facets(old)


# --- canonical form ----------------------------------------------------------------

def decorated(rng, rows):
    """The same cone written differently: rows permuted, repeated, scaled
    by positive integers, given as Fractions, padded with zero rows and
    positive combinations of two rows."""
    out = []
    for g in rows:
        for _ in range(rng.randint(1, 2)):
            c, d = rng.randint(1, 4), rng.randint(1, 3)
            out.append(tuple(Fraction(c * x, d) for x in g)
                       if rng.random() < 0.5 else xl.vec_scale(c, g))
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        out.append(xl.vec_add(xl.vec_scale(rng.randint(1, 3), a), b))
    out.append((0,) * len(rows[0]))
    rng.shuffle(out)
    return out


def engine_cones(name):
    """The Kahler cone and the secondary cone of T_max of an instance."""
    sys = checks.Instance(ENGINE_INSTANCES[name](), order=1).sys
    return [sys.kahler, tr.secondary_cone(sys, sys.points, sys.tmax)]


def test_random_rows_give_the_reference_cone_or_empty_interior():
    """Every shape of random rows: a pointed full-dimensional cone keeps the
    reference enumerator's rays and exactly its tight rows; every other
    shape raises EmptyInterior."""
    shapes = set()
    for rows, dim in random_row_cases():
        shape = cone_shape(rows, dim)
        shapes.add(shape)
        if shape != "pointed":
            with pytest.raises(EmptyInterior):
                ConeDescription(dim, rows)
            continue
        cone = ConeDescription(dim, rows)
        old = OldCone(dim, tuple({xl.primitive_vector(xl.integer_scaled(g)[0])
                                  for g in rows if any(g)}),
                      tuple(dual_cone_extreme_rays(rows, dim)))
        assert_matches_old(old, cone)
    assert shapes == {"pointed", "flat", "zero", "line", "lineality",
                      "full_line"}


@pytest.mark.parametrize("name", sorted(ENGINE_INSTANCES))
def test_canonical_form(name):
    rng = random.Random(name)
    for cone in engine_cones(name):
        for _ in range(5):
            again = ConeDescription(cone.dim,
                                    decorated(rng, list(cone.inequalities)))
            assert key(again) == key(cone)


@pytest.mark.parametrize("dim, rows", [
    (2, [(1, 0), (-1, 0), (0, 1)]),             # flat: a half-line
    (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]),  # flat
    (1, [(0,)]),                                # the whole line
    (2, [(1, 0), (2, 0)]),                      # a half-plane
    (3, [(1, 0, 0), (0, 1, 0)]),                # a lineality line
    (1, [(1,), (-1,)]),                         # {0}
    (2, [(1, 0), (0, 1), (-1, -1)]),            # {0}
])
def test_empty_interior(dim, rows):
    with pytest.raises(EmptyInterior):
        ConeDescription(dim, rows)


# --- against the old builders -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ENGINE_INSTANCES))
def test_cones_match_the_old_builders(name):
    """The Kahler cone, the secondary cone of T_max and, up to rank 3,
    every chamber of both fans: the old builder's rays, and its rows that
    are tight on rays of rank dim - 1."""
    sys = checks.Instance(ENGINE_INSTANCES[name](), order=1).sys
    pc = sys.points
    pairs = [(old_kahler_cone(sys.basis_coords, sys.collections), sys.kahler),
             (old_secondary_cone(sys, pc, sys.tmax),
              tr.secondary_cone(sys, pc, sys.tmax))]
    if len(sys.basis) <= 3:
        pairs += [(old_secondary_cone(sys, pc, t), cone)
                  for cone, t in tr.secondary_fan(sys)]
        pairs += [(old_groebner_chamber(sys, tuple(map(sum, zip(*cone.rays)))),
                   cone) for cone, _ in tr.groebner_fan(sys)]
    for old, new in pairs:
        assert_matches_old(old, new)
    # the secondary cone of T_max is the Kahler cone
    assert key(pairs[0][1]) == key(pairs[1][1])


@pytest.mark.parametrize("rays, facets", [(SQUARE8, 8), (TRIANGLE9, 9)])
def test_many_ray_kahler_cones_match_the_old_builder(rays, facets):
    sys = gkz.build_system(cyclic_surface(rays, "surface"))
    old = old_kahler_cone(sys.basis_coords, sys.collections)
    assert_matches_old(old, sys.kahler)
    assert len(old.inequalities) > len(sys.kahler.inequalities) == facets


# --- the walk reuses the chambers its probes found ----------------------------------

RANK_LE_4 = sorted(name for name, build in ENGINE_INSTANCES.items()
                   if len(gkz.build_system(build()).basis) <= 4)


def walk(fan, sys):
    """The fan's chambers in walk order, or the error that ended the walk."""
    try:
        return fan(sys)
    except NonTermination as exc:
        return str(exc)


def chamber_keys(chambers):
    """Each chamber's facets and rays and its label, a triangulation by its
    simplices."""
    if isinstance(chambers, str):
        return chambers
    return [(key(cone), getattr(label, "simplices", label))
            for cone, label in chambers]


@pytest.mark.parametrize("name", RANK_LE_4)
def test_walk_equals_the_walk_without_reuse(name, monkeypatch):
    """Same chambers in the same order as the walk that threw its probes'
    chambers away, with no more chamber probes.  A triangulation's weight
    is the probe that first found it, so it may differ, but it still
    induces the triangulation."""
    sys = gkz.build_system(ENGINE_INSTANCES[name]())
    sys.lattice_ideal  # certified before counting: its subdivision is no probe
    calls = {"regular_subdivision": 0, "toric_groebner_basis": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(tr, fn_name, counted(getattr(tr, fn_name)))
    fans = [walk(tr.secondary_fan, sys), walk(tr.groebner_fan, sys)]
    reuse = dict(calls)
    monkeypatch.setattr(tr, "walk_fan", walk_without_reuse)
    calls.update(dict.fromkeys(calls, 0))
    assert [chamber_keys(f) for f in fans] == [
        chamber_keys(walk(tr.secondary_fan, sys)),
        chamber_keys(walk(tr.groebner_fan, sys))]
    assert all(reuse[k] <= calls[k] for k in calls), (reuse, calls)
    monkeypatch.undo()
    pc = PointConfiguration.from_system(sys)
    for _, t in fans[0]:
        assert tr.regular_subdivision(pc, t.weight).simplex_set() == \
            t.simplex_set()
    if name == "random7_1":
        # one Buchberger run per chamber probe; 150 Groebner chambers
        assert len(fans[1]) == 150
        assert (reuse["toric_groebner_basis"],
                calls["toric_groebner_basis"]) == (174, 249)


def checked_by_fourier_motzkin(built):
    """A ``ConeDescription`` that asks plain Fourier-Motzkin first: the cone
    must build exactly when some point lies strictly inside every row.
    Each cone built is appended to ``built``."""
    def compared(dim, rows):
        interior = has_interior_point(rows, dim)
        try:
            cone = ConeDescription(dim, rows)
        except EmptyInterior:
            assert not interior, rows
            raise
        assert interior, rows
        built.append(cone)
        return cone
    return compared


@pytest.mark.parametrize("name", sorted(ENGINE_INSTANCES))
def test_secondary_fan_cones_agree_with_fourier_motzkin(name, monkeypatch):
    """Every ``secondary_cone`` call of the secondary-fan walk builds its
    cone, and plain Fourier-Motzkin finds a strictly convex weight for
    each."""
    sys = gkz.build_system(ENGINE_INSTANCES[name]())
    built = []
    monkeypatch.setattr(tr, "ConeDescription", checked_by_fourier_motzkin(built))
    chambers = tr.secondary_fan(sys)
    assert len(built) >= len(chambers) > 1


def test_not_regular_agrees_with_fourier_motzkin(monkeypatch):
    """A triangulation of P1's three points that is not regular: neither
    finds a strictly convex weight, and ``NotRegular`` carries the
    constructor's message."""
    sys = gkz.build_system(ENGINE_INSTANCES["p1"]())
    pc = PointConfiguration.from_system(sys)
    bogus = tr.Triangulation(simplices=((0, 1), (1, 2)))
    monkeypatch.setattr(tr, "ConeDescription", checked_by_fourier_motzkin([]))
    with pytest.raises(NotRegular,
                       match="^cone is not pointed and full-dimensional$"):
        tr.secondary_cone(sys, pc, bogus)
