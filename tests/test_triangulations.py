import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import CORPUS, f1_fan, p1_fan, p1xp1_fan_r2, p2_fan
from test_exact_linalg import ENGINE_INSTANCES
from gkzfrac import gkz, toric, triangulations as tr
from gkzfrac import exact_linalg as xl
from gkzfrac.errors import DegenerateSimplex, NonTermination, NotRegular


def system(fan_maker):
    return gkz.build_system(fan_maker())


def tmax(sys):
    return tr.maximal_triangulation(sys, sys.fan)


# --- maximal triangulation -------------------------------------------------------

def test_tmax_p1():
    sys = system(p1_fan)
    tri = tmax(sys)
    assert tri.simplices == ((0, 1), (0, 2))


def test_tmax_p2():
    sys = system(p2_fan)
    tri = tmax(sys)
    assert tri.simplices == ((0, 1, 2), (0, 1, 3), (0, 2, 3))


def test_tmax_p1xp1():
    sys = system(p1xp1_fan_r2)
    tri = tmax(sys)
    assert len(tri.simplices) == 4
    for s in tri.simplices:
        assert len(s) == 4
        assert 0 in s and 3 in s  # both auxiliary points


def test_tmax_contains_aux(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    tri = tmax(sys)
    aux = set(sys.aux_positions())
    for s in tri.simplices:
        assert aux <= set(s)


# --- normalized volume --------------------------------------------------------------

@pytest.mark.parametrize("name,expected", [
    ("p1", 2), ("p2", 3), ("p1xp1", 4), ("p1xp1_r1", 4), ("f1", 4),
])
def test_volume(name, expected):
    sys = gkz.build_system(CORPUS[name]())
    pc = tr.PointConfiguration.from_system(sys)
    assert tr.normalized_volume(pc, tmax(sys)) == expected
    assert expected == len(sys.fan.max_cones)


def test_volume_equals_ring_dimension(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    pc = tr.PointConfiguration.from_system(sys)
    assert tr.normalized_volume(pc, tmax(sys)) == ring.dim


# --- regular subdivisions -------------------------------------------------------------

def test_subdivision_p1_ample_weight():
    sys = system(p1_fan)
    pc = tr.PointConfiguration.from_system(sys)
    result = tr.regular_subdivision(pc, (0, 1, 1))
    assert isinstance(result, tr.Triangulation)
    assert result.simplex_set() == tmax(sys).simplex_set()


def test_subdivision_p1_other_chamber():
    sys = system(p1_fan)
    pc = tr.PointConfiguration.from_system(sys)
    result = tr.regular_subdivision(pc, (1, 0, 0))
    assert isinstance(result, tr.Triangulation)
    assert result.simplices == ((1, 2),)
    assert tr.nonvertex_points(pc, result) == [0]


def test_subdivision_zero_weight():
    sys = system(p1_fan)
    pc = tr.PointConfiguration.from_system(sys)
    result = tr.regular_subdivision(pc, (0, 0, 0))
    assert isinstance(result, tr.Subdivision)
    assert result.cells == ((0, 1, 2),)


def test_ample_weight_induces_tmax(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    pc = tr.PointConfiguration.from_system(sys)
    omega = gkz.default_weight(sys)
    result = tr.regular_subdivision(pc, omega)
    assert isinstance(result, tr.Triangulation)
    assert result.simplex_set() == tmax(sys).simplex_set()


def subset_regular_subdivision(pc, omega):
    """The loop of the old ``regular_subdivision``, kept verbatim: one
    ``solve_unique`` per m-subset of the points."""
    omega = tuple(Fraction(w) for w in omega)
    m = pc.dim
    npts = len(pc.points)
    cells = {}
    for subset in combinations(range(npts), m):
        mat = tuple(pc.points[i] for i in subset)
        rhs = tuple(omega[i] for i in subset)
        u = xl.solve_unique(mat, rhs)
        if u is None:
            continue
        values = [xl.dot(u, p) for p in pc.points]
        if any(v > w for v, w in zip(values, omega)):
            continue
        cell = tuple(i for i in range(npts) if values[i] == omega[i])
        cells[cell] = u
    ordered = tuple(sorted(cells))
    if all(len(c) == m for c in ordered):
        return tr.Triangulation(simplices=ordered, weight=omega)
    return tr.Subdivision(cells=ordered, weight=omega)


def probe_weights(sys, pc, seed):
    """Seeded weights, integer and rational, and wall weights: 0, the lift
    of each Kahler ray and of each pair sum of them, each also shifted by a
    seeded linear function of the points (which moves no cell)."""
    rng = random.Random(seed)
    npts = len(pc.points)
    weights = [(0,) * npts]
    for _ in range(8):
        weights.append(tuple(rng.randint(-3, 6) for _ in range(npts)))
        weights.append(tuple(Fraction(rng.randint(-6, 12), rng.randint(1, 3))
                             for _ in range(npts)))
    rays = sys.kahler.rays
    walls = [sys.lift_weight_class(r) for r in rays]
    walls += [sys.lift_weight_class(xl.vec_add(a, b))
              for a, b in combinations(rays, 2)]
    for omega in walls:
        u = tuple(rng.randint(-2, 2) for _ in range(pc.dim))
        weights.append(omega)
        weights.append(tuple(w + xl.dot(u, p)
                             for w, p in zip(omega, pc.points)))
    return weights


@pytest.mark.parametrize("name", sorted(ENGINE_INSTANCES))
def test_regular_subdivision_equals_the_subset_search(name):
    """The cells read from the extreme rays are the cells of the subset
    search, on seeded and wall weights, with both outcomes occurring."""
    sys = gkz.build_system(ENGINE_INSTANCES[name]())
    pc = tr.PointConfiguration.from_system(sys)
    kinds = set()
    for omega in probe_weights(sys, pc, seed=len(name)):
        result = tr.regular_subdivision(pc, omega)
        expected = subset_regular_subdivision(pc, omega)
        assert type(result) is type(expected), omega
        assert vars(result) == vars(expected), omega
        kinds.add(type(result))
    assert kinds == {tr.Triangulation, tr.Subdivision}


# --- secondary cones ---------------------------------------------------------------------

def test_secondary_cone_p1_tmax():
    sys = system(p1_fan)
    pc = tr.PointConfiguration.from_system(sys)
    cone = tr.secondary_cone(sys, pc, tmax(sys))
    assert cone.inequalities == ((1,),)
    assert cone.rays == ((1,),)


def test_secondary_cone_p1_other():
    sys = system(p1_fan)
    pc = tr.PointConfiguration.from_system(sys)
    other = tr.regular_subdivision(pc, (1, 0, 0))
    cone = tr.secondary_cone(sys, pc, other)
    assert cone.rays == ((-1,),)


def test_secondary_cone_p2():
    sys = system(p2_fan)
    pc = tr.PointConfiguration.from_system(sys)
    cone = tr.secondary_cone(sys, pc, tmax(sys))
    assert cone.rays == ((1,),)


def test_secondary_cone_contains_kahler(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    pc = tr.PointConfiguration.from_system(sys)
    cone = tr.secondary_cone(sys, pc, tmax(sys))
    for ray in sys.kahler.rays:
        assert cone.contains(ray)


def test_secondary_cone_not_regular():
    sys = system(p1_fan)
    pc = tr.PointConfiguration.from_system(sys)
    bogus = tr.Triangulation(simplices=((0, 1), (1, 2)))
    with pytest.raises(NotRegular):
        tr.secondary_cone(sys, pc, bogus)


def test_nonvertex_clause_vacuous_for_tmax(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    pc = tr.PointConfiguration.from_system(sys)
    assert tr.nonvertex_points(pc, tmax(sys)) == []


def test_volume_rejects_degenerate_simplex():
    sys = system(p2_fan)
    pc = tr.PointConfiguration.from_system(sys)
    # points 1 and 2 together with the midpoint-carrier 0 are dependent
    # only if repeated; force degeneracy by repeating an index
    bogus = tr.Triangulation(simplices=((0, 1, 1),))
    with pytest.raises(DegenerateSimplex):
        tr.normalized_volume(pc, bogus)


# --- binomial Groebner bases -----------------------------------------------------------------

def test_gb_p1():
    sys = system(p1_fan)
    omega = gkz.default_weight(sys)
    ideal = tr.toric_groebner_basis(sys, omega)
    assert ideal.generators == (((0, 1, 1), (2, 0, 0)),)
    assert ideal.leading_exponents() == [(0, 1, 1)]


def test_gb_p2():
    sys = system(p2_fan)
    ideal = tr.toric_groebner_basis(sys, gkz.default_weight(sys))
    assert ideal.generators == (((0, 1, 1, 1), (3, 0, 0, 0)),)


def test_gb_p1xp1():
    sys = system(p1xp1_fan_r2)
    ideal = tr.toric_groebner_basis(sys, gkz.default_weight(sys))
    assert set(ideal.leading_exponents()) == {
        (0, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1)}
    assert len(ideal.generators) == 2


def test_gb_f1():
    sys = system(f1_fan)
    ideal = tr.toric_groebner_basis(sys, gkz.default_weight(sys))
    gens = set(ideal.generators)
    assert ((0, 1, 0, 1, 0), (1, 0, 1, 0, 0)) in gens
    assert ((0, 0, 1, 0, 1), (2, 0, 0, 0, 0)) in gens
    assert len(gens) == 2


def test_gb_matches_primitive_collections(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    omega = gkz.default_weight(sys)
    ideal = tr.toric_groebner_basis(sys, omega)
    candidates = tr.primitive_collection_binomials(sys, omega)
    assert sorted(ideal.generators) == sorted(candidates)


def test_minimal_gb_check(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    omega = gkz.default_weight(sys)
    assert tr.minimal_gb_is_primitive_collections(sys, omega)


def test_leading_term_is_collection_side(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    omega = gkz.default_weight(sys)
    for pc in sys.collections:
        assert xl.dot(omega, pc.ell_ext) > 0


class FractionTermOrder:
    """The term order the integer one replaced, kept as the reference: the
    rows stay as given (Fractions for a weight order) and every comparison
    rebuilds both keys as dot products."""

    def __init__(self, rows):
        self.rows = rows

    def key(self, mono):
        return tuple(xl.dot(row, mono) for row in self.rows)

    def greater(self, a, b):
        return self.key(a) > self.key(b)


def weights_with_denominators(sys):
    """The default weight, a third of it, and a third of it plus half the
    last (block indicator) row of the lifted matrix: a non-integral lift of
    the same class, so every weight is ample."""
    omega = gkz.default_weight(sys)
    third = tuple(Fraction(w, 3) for w in omega)
    lift = tuple(w + Fraction(x, 2) for w, x in zip(third, sys.a_ext[-1]))
    assert any(x.denominator % 2 == 0 for x in lift)
    return [omega, third, lift]


@pytest.mark.parametrize("name", sorted(ENGINE_INSTANCES))
def test_integer_term_orders_equal_the_fraction_rows(name, monkeypatch):
    """Saturation, Buchberger, the reduced basis and the collection
    binomials come out the same under the Fraction-row reference order."""
    fan = ENGINE_INSTANCES[name]()
    weights = weights_with_denominators(gkz.build_system(fan))

    def results():
        # a fresh system, so its saturation runs under the order in force
        sys = gkz.build_system(fan)
        gens = [xl.split_positive_negative(b) for b in sys.basis]
        out = [tr.lattice_ideal_generators(sys)]
        for omega in weights:
            ideal = tr.toric_groebner_basis(sys, omega)
            out.append((tr.buchberger(gens, tr.weight_order(omega, sys.nvars)),
                        ideal.generators, ideal.weight,
                        tr.primitive_collection_binomials(sys, omega)))
        return out

    monkeypatch.setattr(tr, "TermOrder", FractionTermOrder)
    assert isinstance(tr.weight_order(weights[2], len(weights[2])),
                      FractionTermOrder)
    expected = results()
    monkeypatch.undo()
    assert results() == expected


def test_groebner_fan_saturates_once_per_system(monkeypatch):
    """The lattice ideal does not depend on the weight: one saturation
    (one grevlex basis per variable) serves every chamber probe of the
    walk, and a second walk on the same system saturates nothing."""
    sys = system(f1_fan)
    calls = {"lattice_ideal_generators": 0, "buchberger": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(tr, name, counted(getattr(tr, name)))

    def walk():
        return [(cone.rays, cone.inequalities, label)
                for cone, label in tr.groebner_fan(sys)]

    chambers = walk()
    assert len(chambers) == 7
    # 8 chamber probes, each one basis from the 5-variable saturation; a
    # ninth probe lands in a chamber an earlier probe found
    assert calls == {"lattice_ideal_generators": 1, "buchberger": 13}
    assert walk() == chambers
    assert calls == {"lattice_ideal_generators": 1, "buchberger": 21}


def test_buchberger_reduces_spair_disjoint_supports():
    sys = system(p1xp1_fan_r2)
    omega = gkz.default_weight(sys)
    order = tr.weight_order(omega, sys.nvars)
    gens = [xl.split_positive_negative(b) for b in sys.basis]
    basis = tr.buchberger(gens, order)
    assert len(basis) == 2


# --- full fan enumeration -------------------------------------------------------------

# The rank-1 branch and the planar circle walk that ``tr.walk_fan`` replaced,
# kept verbatim as the reference for every instance of rank <= 2.

def _cross(u, w):
    return u[0] * w[1] - u[1] * w[0]


def _rot_ccw(v):
    return (-v[1], v[0])


def _ccw_ray(cone_rays):
    """The counterclockwise boundary ray of a 2d pointed cone."""
    u, w = cone_rays
    return w if _cross(u, w) > 0 else u


def _cw_ray(cone_rays):
    u, w = cone_rays
    return u if _cross(u, w) > 0 else w


def _walk_plane_fan(sys, chamber_of, start):
    """Enumerate a complete fan of pointed 2d cones by walking the circle.

    ``chamber_of(direction)`` returns (label, ConeDescription) for a
    direction strictly inside a maximal cone; the walk starts at ``start``
    and steps just past the counterclockwise boundary of each chamber.
    """
    chambers = []
    label, cone = chamber_of(start)
    assert cone.contains(start, strict=True), "start direction lies on a wall"
    first = cone
    guard = 0
    while True:
        guard += 1
        if guard > 200:
            raise NonTermination("fan walk did not close up")
        chambers.append((cone, label))
        boundary = _ccw_ray(cone.rays)
        scale = 2
        while True:
            probe = xl.primitive_vector(
                tuple(scale * b + p
                      for b, p in zip(boundary, _rot_ccw(boundary))))
            try:
                next_label, next_cone = chamber_of(probe)
            except NotRegular:
                next_cone = None
            if (next_cone is not None
                    and next_cone.contains(probe, strict=True)
                    and _cw_ray(next_cone.rays) == boundary):
                break
            scale *= 4
            if scale > 4 ** 12:
                raise NonTermination("could not step across a chamber wall")
        if next_cone.rays == first.rays:
            break
        label, cone = next_label, next_cone
    return chambers


def _rank_one_chambers(sys, chamber_of):
    out = []
    for direction in ((1,), (-1,)):
        label, cone = chamber_of(direction)
        out.append((cone, label))
    return out


def reference_walk(chamber_of, start):
    """The old dispatch: the rank-1 branch, else the circle walk from
    ``start``."""
    if len(start) == 1:
        return _rank_one_chambers(None, chamber_of)
    return _walk_plane_fan(None, chamber_of, start)


def chamber_keys(chambers):
    """Rays, inequalities and label of each chamber, in walk order; a
    triangulation label is its simplices and weight."""
    return [(cone.dim, cone.rays, cone.inequalities,
             (label.simplices, label.weight)
             if isinstance(label, tr.Triangulation) else label)
            for cone, label in chambers]


RANK_LE_2 = sorted(name for name, build in ENGINE_INSTANCES.items()
                   if len(gkz.build_system(build()).basis) <= 2)


def test_rank_le_2_instances_are_the_corpus_and_two_surfaces():
    assert RANK_LE_2 == sorted(list(CORPUS) + ["random2024_1", "random2_42"])


@pytest.mark.parametrize("name", RANK_LE_2)
def test_facet_walk_equals_the_circle_walk(name, monkeypatch):
    """Same chambers, labels and order as the planar walk and the rank-1
    branch, and never more chamber probes."""
    sys = gkz.build_system(ENGINE_INSTANCES[name]())
    calls = {"regular_subdivision": 0, "toric_groebner_basis": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(tr, fn_name, counted(getattr(tr, fn_name)))
    walked = [chamber_keys(tr.secondary_fan(sys)),
              chamber_keys(tr.groebner_fan(sys))]
    walk_calls = dict(calls)
    monkeypatch.setattr(tr, "walk_fan", reference_walk)
    calls.update(dict.fromkeys(calls, 0))
    assert walked == [chamber_keys(tr.secondary_fan(sys)),
                      chamber_keys(tr.groebner_fan(sys))]
    assert all(walk_calls[k] <= calls[k] for k in calls), (walk_calls, calls)


def chambers_tile_circle(chambers):
    """Consecutive chambers share a wall and the chain closes up."""
    if len(chambers) == 2 and all(c.dim == 1 for c, _ in chambers):
        return {c.rays for c, _ in chambers} == {((1,),), ((-1,),)}
    for (cone, _), (nxt, _) in zip(chambers, chambers[1:] + chambers[:1]):
        if _ccw_ray(cone.rays) != _cw_ray(nxt.rays):
            return False
    return True


def closes_up(chambers):
    """Across every facet of every chamber lies exactly one other chamber
    holding all the facet's rays, on the far side of the facet."""
    for cone, _ in chambers:
        for rays, normal in tr._facets(cone):
            across = [other for other, _ in chambers
                      if other is not cone
                      and all(r in other.rays for r in rays)]
            if len(across) != 1 or not any(
                    xl.dot(normal, r) < 0 for r in across[0].rays):
                return False
    return True


def refines(groebner, secondary):
    """Every Groebner chamber lies in a secondary chamber."""
    for gcone, _ in groebner:
        inside = tuple(map(sum, zip(*gcone.rays)))
        if not any(all(scone.contains(r) for r in gcone.rays)
                   and scone.contains(inside, strict=True)
                   for scone, _ in secondary):
            return False
    return True


def kahler_chamber(sys, chambers):
    interior = tuple(sum(col) for col in zip(*sys.kahler.rays))
    hits = [(cone, label) for cone, label in chambers
            if cone.contains(interior, strict=True)]
    assert len(hits) == 1
    return hits[0]


def test_secondary_fan_rank_one():
    sys = system(p1_fan)
    chambers = tr.secondary_fan(sys)
    assert len(chambers) == 2
    assert chambers_tile_circle(chambers)
    cone, t = kahler_chamber(sys, chambers)
    assert t.simplex_set() == tmax(sys).simplex_set()
    other = next(t2 for c2, t2 in chambers if c2.rays != cone.rays)
    assert other.simplices == ((1, 2),)


def test_secondary_fan_p1xp1_quadrants():
    sys = system(p1xp1_fan_r2)
    chambers = tr.secondary_fan(sys)
    assert len(chambers) == 4
    assert chambers_tile_circle(chambers)
    ray_sets = {c.rays for c, _ in chambers}
    assert ray_sets == {((0, 1), (1, 0)), ((-1, 0), (0, 1)),
                        ((-1, 0), (0, -1)), ((0, -1), (1, 0))}
    _, t = kahler_chamber(sys, chambers)
    assert t.simplex_set() == tmax(sys).simplex_set()


def test_groebner_fan_strictly_refines_on_f1():
    sys = system(f1_fan)
    secondary = tr.secondary_fan(sys)
    groebner = tr.groebner_fan(sys)
    assert len(secondary) == 4
    assert len(groebner) == 7
    assert chambers_tile_circle(secondary)
    assert chambers_tile_circle(groebner)


def test_groebner_refines_secondary(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    assert refines(tr.groebner_fan(sys), tr.secondary_fan(sys))


def test_groebner_fan_matches_secondary_for_product():
    sys = system(p1xp1_fan_r2)
    sec_rays = {c.rays for c, _ in tr.secondary_fan(sys)}
    gro_rays = {c.rays for c, _ in tr.groebner_fan(sys)}
    assert sec_rays == gro_rays


def test_kahler_chamber_leading_terms_are_stanley_reisner(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    if len(sys.basis) > 2:
        return
    chambers = tr.groebner_fan(sys)
    _, leading = kahler_chamber(sys, chambers)
    sr = set()
    for pc in sys.collections:
        indicator = [0] * sys.nvars
        for i_ray in pc.rays:
            indicator[sys.fan.j_position_of_ray(i_ray)] = 1
        sr.add(tuple(indicator))
    assert set(leading) == sr


def test_leading_term_ideal_oracle():
    sys = system(f1_fan)
    inside_kahler = sys.lift_weight_class((1, 1))
    also_kahler = sys.lift_weight_class((2, 3))
    opposite = sys.lift_weight_class((-1, -1))

    def leading(omega):
        return set(tr.toric_groebner_basis(sys, omega).leading_exponents())
    assert leading(inside_kahler) == leading(also_kahler)
    assert leading(inside_kahler) != leading(opposite)


def synthetic_chamber_of(cones):
    """``chamber_of`` over a given complete fan, a list of ray tuples: the
    label is the cone's index, and a direction on a wall raises
    NotRegular."""
    dim = len(cones[0][0])
    chambers = [toric.ConeDescription(dim, xl.extreme_rays(rays, dim))
                for rays in cones]

    def chamber_of(direction):
        for label, cone in enumerate(chambers):
            if cone.contains(direction, strict=True):
                return label, cone
        raise NotRegular(f"{direction} lies on a wall")
    return chamber_of


def test_walk_steps_past_a_thin_chamber():
    """The scale-2 probe across the last wall lands in the first chamber,
    which lacks the wall's ray: the walk probes closer and finds the thin
    chamber in between."""
    cones = [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)),
             ((0, -1), (3, -1)), ((3, -1), (1, 0))]
    chambers = tr.walk_fan(synthetic_chamber_of(cones), (1, 1))
    assert [label for _, label in chambers] == [0, 1, 2, 3, 4]
    assert closes_up(chambers)


def test_walk_crosses_facets_with_more_rays_than_a_simplex():
    """The fan over the facets of the 4-cube: each chamber has 8 rays and 6
    facets of 4 rays each."""
    vertices = list(product((1, -1), repeat=4))
    cones = [tuple(v for v in vertices if v[i] == sign)
             for i in range(4) for sign in (1, -1)]
    chambers = tr.walk_fan(synthetic_chamber_of(cones), (1, 0, 0, 0))
    assert sorted(label for _, label in chambers) == list(range(8))
    assert chambers[0][1] == 0
    assert all(len(rays) == 4 for cone, _ in chambers
               for rays, _ in tr._facets(cone))
    assert closes_up(chambers)


def test_p1_cubed_fans():
    """P1^3 has rank 3: the same walk gives both fans of the one-block and
    the three-block partition, each closed up, the Groebner fan refining the
    secondary fan, the walk starting at the ample chamber of tmax."""
    from gkzfrac.toric import make_fan
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1)]
    cones = [[i, j, k] for i in (0, 1) for j in (2, 3) for k in (4, 5)]
    for blocks, count in (([[0, 1, 2, 3, 4, 5]], 4),
                          ([[0, 1], [2, 3], [4, 5]], 8)):
        sys = gkz.build_system(make_fan(3, rays, cones, blocks,
                                        name="p1cubed"))
        assert len(sys.basis) == 3
        secondary = tr.secondary_fan(sys)
        groebner = tr.groebner_fan(sys)
        assert (len(secondary), len(groebner)) == (count, count)
        assert closes_up(secondary) and closes_up(groebner)
        assert refines(groebner, secondary)
        _, t = kahler_chamber(sys, secondary)
        assert t.simplex_set() == tmax(sys).simplex_set()
        assert secondary[0][1] is t


def test_rank_four_secondary_fan():
    sys = gkz.build_system(ENGINE_INSTANCES["random7_1"]())
    assert len(sys.basis) == 4
    secondary = tr.secondary_fan(sys)
    assert len(secondary) == 32
    assert closes_up(secondary)
    assert len({cone.rays for cone, _ in secondary}) == 32
    _, t = kahler_chamber(sys, secondary)
    assert t.simplex_set() == tmax(sys).simplex_set()


def test_rank_four_groebner_fan():
    sys = gkz.build_system(ENGINE_INSTANCES["random7_1"]())
    assert len(sys.basis) == 4
    groebner = tr.groebner_fan(sys)
    assert len(groebner) == 150 < tr.FAN_CHAMBER_CAP
    assert closes_up(groebner)
    secondary = tr.secondary_fan(sys)
    assert len(secondary) == 32
    assert refines(groebner, secondary)
