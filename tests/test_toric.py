import random
from itertools import combinations

import pytest

from conftest import f1_fan, p1_fan, p1xp1_fan_r2, p2_fan
from test_exact_linalg import ENGINE_INSTANCES
from test_ring_table import INSTANCES
from gkzfrac import exact_linalg as xl
from gkzfrac import gkz, toric
from gkzfrac.errors import (NotComplete, NotInKernel, NotSmooth,
                            RayNotPrimitive, SemanticError)


def ring_of(fan):
    return toric.cohomology_ring(fan, toric.primitive_collections(fan))


def sr_of(fan):
    return toric.stanley_reisner_ideal(toric.primitive_collections(fan))


def coords_in_basis(basis, v):
    """Reference for ``GkzSystem.basis_coords``: the coordinates of a lattice
    vector in the basis by one ``solve_unique`` (a full ``rref``) per
    vector, the route the system's one integer inverse replaced."""
    bmat = tuple(zip(*basis))
    sol = xl.solve_unique(bmat, v)
    assert sol is not None and all(c.denominator == 1 for c in sol), \
        f"{v} is not an integer combination of the basis"
    return tuple(int(c) for c in sol)


def kahler_of(fan):
    basis = xl.kernel_basis(toric.a_ext_matrix(fan))
    return toric.kahler_cone(lambda v: coords_in_basis(basis, v),
                             toric.primitive_collections(fan))


# --- construction and validation --------------------------------------------------

def test_make_fan_rejects_overlap():
    with pytest.raises(SemanticError):
        toric.make_fan(1, [(1,), (-1,)], [[0], [1]], [[0, 1], [1]])


def test_validate_p2_passes():
    report = toric.validate_fan(p2_fan())
    assert {"primitivity", "smoothness", "completeness"} <= set(
        report.as_dict())


def test_validate_corpus(corpus_fan):
    toric.validate_fan(corpus_fan)


def test_validate_not_smooth():
    fan = toric.make_fan(2, [(1, 0), (1, 2), (-1, -1)],
                         [[0, 1], [1, 2], [0, 2]], [[0, 1, 2]])
    with pytest.raises(NotSmooth):
        toric.validate_fan(fan)


def test_validate_not_complete():
    fan = toric.make_fan(2, [(1, 0), (0, 1), (-1, -1)],
                         [[0, 1], [1, 2]], [[0, 1, 2]])
    with pytest.raises(NotComplete):
        toric.validate_fan(fan)


def test_validate_ray_not_primitive():
    fan = toric.make_fan(2, [(2, 0), (0, 1), (-1, -1)],
                         [[0, 1], [1, 2], [0, 2]], [[0, 1, 2]])
    with pytest.raises(RayNotPrimitive):
        toric.validate_fan(fan)


@pytest.mark.parametrize("extra", [(1, 1), (1, 0)], ids=["inside", "copy"])
def test_validate_ray_in_no_maximal_cone(extra):
    """P2's three cones with a fourth ray that spans none: one inside a
    cone, one a copy of ray 0."""
    fan = toric.make_fan(2, [(1, 0), (0, 1), (-1, -1), extra],
                         [[0, 1], [1, 2], [2, 0]], [[0, 1, 2, 3]])
    with pytest.raises(SemanticError) as err:
        toric.validate_fan(fan)
    assert str(err.value) == f"ray 3 = {extra} lies in no maximal cone"


@pytest.mark.parametrize("rank", [0, -1])
def test_validate_rank_below_one_raises(rank):
    """No nonzero direction exists to sample, so completeness fails at
    once instead of drawing directions forever."""
    with pytest.raises(NotComplete) as err:
        toric.validate_fan(toric.make_fan(rank, [], [], []))
    assert str(err.value) == f"rank {rank} leaves no direction to cover"


# --- matrices ----------------------------------------------------------------------

def test_a_ext_p1():
    assert toric.a_ext_matrix(p1_fan()) == ((0, 1, -1), (1, 1, 1))


def test_a_matrix_p2():
    assert toric.a_matrix(p2_fan()) == ((1, 0, -1), (0, 1, -1))


def test_a_ext_p1xp1_r2():
    a = toric.a_ext_matrix(p1xp1_fan_r2())
    assert len(a) == 4 and len(a[0]) == 6
    assert a == ((0, 1, -1, 0, 0, 0),
                 (0, 0, 0, 0, 1, -1),
                 (1, 1, 1, 0, 0, 0),
                 (0, 0, 0, 1, 1, 1))


# --- primitive collections -----------------------------------------------------------

def test_collections_p1():
    pcs = toric.primitive_collections(p1_fan())
    assert len(pcs) == 1
    pc = pcs[0]
    assert pc.rays == frozenset({0, 1})
    assert pc.sigma == frozenset()
    assert pc.c0 == (2,)
    assert pc.ell_ext == (-2, 1, 1)
    assert pc.ell == (1, 1)


def test_collections_p2():
    pcs = toric.primitive_collections(p2_fan())
    assert len(pcs) == 1
    assert pcs[0].ell_ext == (-3, 1, 1, 1)
    assert pcs[0].ell == (1, 1, 1)


def test_collections_p1xp1():
    pcs = toric.primitive_collections(p1xp1_fan_r2())
    assert len(pcs) == 2
    exts = {pc.ell_ext for pc in pcs}
    assert exts == {(-2, 1, 1, 0, 0, 0), (0, 0, 0, -2, 1, 1)}


def test_collections_f1():
    pcs = toric.primitive_collections(f1_fan())
    assert len(pcs) == 2
    exts = {pc.ell_ext for pc in pcs}
    assert exts == {(-1, 1, -1, 1, 0), (-2, 0, 1, 0, 1)}


def _all_minimal_nonfaces(fan):
    """Reference: walk every subset of the rays, with no size bound."""
    def is_face(subset):
        return any(subset <= cone for cone in fan.max_cones)
    return {s for size in range(1, fan.p + 1)
            for s in map(frozenset, combinations(range(fan.p), size))
            if not is_face(s) and all(is_face(s - {x}) for x in s)}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_collections_size_bound_loses_nothing(name):
    fan = INSTANCES[name]()
    found = [pc.rays for pc in toric.primitive_collections(fan)]
    assert len(found) == len(set(found))
    assert set(found) == _all_minimal_nonfaces(fan)


def test_collections_structure_corpus(corpus_fan):
    a_ext = toric.a_ext_matrix(corpus_fan)
    for pc in toric.primitive_collections(corpus_fan):
        assert xl.vec_is_zero(xl.mat_vec(a_ext, pc.ell_ext))
        assert all(c >= 0 for c in pc.c0)
        assert not (pc.rays & pc.sigma)
        plus, _minus = xl.split_positive_negative(pc.ell_ext)
        expected = [0] * (corpus_fan.p + corpus_fan.r)
        for i_ray in pc.rays:
            expected[corpus_fan.j_position_of_ray(i_ray)] = 1
        assert plus == tuple(expected)


# --- cones ---------------------------------------------------------------------------

def mori_generators(fan):
    """Relation vectors of the primitive collections: generators of NE(X)."""
    return [pc.ell for pc in toric.primitive_collections(fan)]


def test_mori_p2():
    assert mori_generators(p2_fan()) == [(1, 1, 1)]


def test_mori_p1():
    assert mori_generators(p1_fan()) == [(1, 1)]


def test_mori_p1xp1():
    assert len(mori_generators(p1xp1_fan_r2())) == 2


def test_mori_lifted_generators(corpus_fan):
    ray_positions = [corpus_fan.j_position_of_ray(i)
                     for i in range(corpus_fan.p)]
    for pc in toric.primitive_collections(corpus_fan):
        assert tuple(pc.ell_ext[pos] for pos in ray_positions) == pc.ell


def test_kahler_p2():
    cone = kahler_of(p2_fan())
    assert cone.dim == 1
    assert cone.rays == ((1,),)


def test_kahler_p1xp1():
    cone = kahler_of(p1xp1_fan_r2())
    assert cone.dim == 2
    assert set(cone.rays) == {(1, 0), (0, 1)}


def test_kahler_p1():
    cone = kahler_of(p1_fan())
    assert cone.rays == ((1,),)


def test_kahler_interior_positive(corpus_fan):
    cone = kahler_of(corpus_fan)
    basis = xl.kernel_basis(toric.a_ext_matrix(corpus_fan))
    interior = tuple(sum(col) for col in zip(*cone.rays))
    for pc in toric.primitive_collections(corpus_fan):
        coords = coords_in_basis(basis, pc.ell_ext)
        assert xl.dot(interior, coords) > 0


# --- the coordinate map of the relation lattice ------------------------------------

@pytest.mark.parametrize("name", sorted(ENGINE_INSTANCES))
def test_basis_coords_equal_the_solve_per_vector(name):
    fan = ENGINE_INSTANCES[name]()
    sys = gkz.build_system(fan)
    rng = random.Random(name)
    k = len(sys.basis)
    for _ in range(200):
        m = tuple(rng.randint(-6, 6) for _ in range(k))
        ell = sys.from_basis_coords(m)
        got = sys.basis_coords(ell)
        assert got == coords_in_basis(sys.basis, ell) == m
        assert all(type(x) is int for x in got)
        # one unit off the lattice: every column of a_ext is nonzero
        j = rng.randrange(sys.nvars)
        off = tuple(x + (i == j) for i, x in enumerate(ell))
        # the system raises the typed error, which python -O keeps
        with pytest.raises(NotInKernel) as exc:
            sys.basis_coords(off)
        assert str(exc.value) == f"{off} is not a relation of the configuration"
        with pytest.raises(AssertionError) as exc:
            coords_in_basis(sys.basis, off)
        assert str(exc.value).startswith(
            f"{off} is not an integer combination of the basis")
    reference = kahler_of(fan)
    assert sys.kahler.inequalities == reference.inequalities
    assert sys.kahler.rays == reference.rays


# --- Stanley-Reisner -----------------------------------------------------------------

def test_sr_p2():
    assert sr_of(p2_fan()) == [(0, 1, 2)]


def test_sr_p1xp1():
    assert sr_of(p1xp1_fan_r2()) == [(0, 1), (2, 3)]


def test_sr_p1():
    assert sr_of(p1_fan()) == [(0, 1)]


# --- cohomology ring -----------------------------------------------------------------

def test_ring_p1():
    ring = ring_of(p1_fan())
    assert ring.dim == 2
    d1 = ring.divisor_class(0, 1)
    d2 = ring.divisor_class(0, 2)
    assert d1 == d2
    assert (d1 * d1).is_zero()
    assert ring.integral(d1) == 1


def test_ring_p2():
    ring = ring_of(p2_fan())
    assert ring.dim == 3
    h = ring.generator(0)
    assert not (h * h).is_zero()
    assert (h * h * h).is_zero()
    assert ring.integral(h * h) == 1


def test_ring_p1xp1():
    ring = ring_of(p1xp1_fan_r2())
    assert ring.dim == 4
    h1 = ring.generator(0)
    h2 = ring.generator(2)
    assert (h1 * h1).is_zero()
    assert (h2 * h2).is_zero()
    assert ring.integral(h1 * h2) == 1


def test_ring_f1():
    ring = ring_of(f1_fan())
    assert ring.dim == 4
    # the fiber class squares to zero, the section class does not
    fiber = ring.generator(0)
    assert (fiber * fiber).is_zero()


def test_ring_dim_equals_max_cones(corpus_fan):
    ring = ring_of(corpus_fan)
    assert ring.dim == len(corpus_fan.max_cones)
    top = [d for d in ring.basis_degrees if d == corpus_fan.rank]
    assert len(top) == 1


def test_ring_nilpotency(corpus_fan):
    ring = ring_of(corpus_fan)
    n = corpus_fan.rank
    product = ring.one()
    for _ in range(n + 1):
        product = product * ring.generator(0)
    assert product.is_zero()


def test_block_divisor_definition(corpus_fan):
    ring = ring_of(corpus_fan)
    for i in range(corpus_fan.r):
        total = ring.divisor_class(i, 0)
        for j in range(1, len(corpus_fan.blocks[i]) + 1):
            total = total + ring.divisor_class(i, j)
        assert total.is_zero()
