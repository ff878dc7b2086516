"""The structure-constant ring against the monomial presentation.

The ring multiplies coordinate vectors through a table of basis products and
evaluates product-form coefficients through nilpotent divisor matrices.  Both
are checked here against the slower routes they replaced: reducing monomial
products through ``class_from_poly``, and building each slot factor of the
coefficient out of ``CohClass`` arithmetic with an explicit nilpotent inverse.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import CORPUS
from test_random_fans import random_smooth_surface_fan
from test_threefold import threefold
from gkzfrac import gkz, series as se, toric
from gkzfrac import exact_linalg as xl


def _seeded_surface(seed, extra_rays):
    rng = random.Random(seed)
    while True:
        result = random_smooth_surface_fan(rng, extra_rays)
        if result is not None:
            rays, cones = result
            return toric.make_fan(2, rays, cones, [list(range(len(rays)))],
                                  name=f"surface{seed}")


INSTANCES = {name: build for name, build in CORPUS.items()}
INSTANCES["p1p1p1_r1"] = lambda: threefold([[0, 1, 2, 3, 4, 5]], "r1")
INSTANCES["p1p1p1_r3"] = lambda: threefold([[0, 1], [2, 3], [4, 5]], "r3")
INSTANCES["surface5"] = lambda: _seeded_surface(5, 2)
INSTANCES["surface8"] = lambda: _seeded_surface(8, 3)


@pytest.fixture(params=sorted(INSTANCES))
def instance(request):
    fan = INSTANCES[request.param]()
    return fan, toric.cohomology_ring(fan, toric.primitive_collections(fan))


def _basis_class(ring, k):
    return toric.CohClass(ring, [int(i == k) for i in range(ring.dim)])


def test_table_matches_monomial_reduction(instance):
    _fan, ring = instance
    for a, ma in enumerate(ring.basis_monomials):
        for b, mb in enumerate(ring.basis_monomials):
            expo = tuple(x + y for x, y in zip(ma, mb))
            expected = ring.class_from_poly({expo: Fraction(1)})
            assert _basis_class(ring, a) * _basis_class(ring, b) == expected


def test_table_commutative_and_associative(instance):
    _fan, ring = instance
    basis = [_basis_class(ring, k) for k in range(ring.dim)]
    for x, y in product(basis, repeat=2):
        assert x * y == y * x
    for x, y, z in product(basis, repeat=3):
        assert (x * y) * z == x * (y * z)


def _dense(ring, columns):
    m = [[Fraction(0)] * ring.dim for _ in range(ring.dim)]
    for b, column in enumerate(columns):
        for k, c in column:
            m[k][b] = c
    return m


def test_divisor_matrices_nilpotent(instance):
    fan, ring = instance
    for i, j in fan.j_indices():
        scale, columns = ring.divisor_matrix(i, j)
        m = _dense(ring, columns)
        power = m
        for _ in range(fan.rank):
            power = xl.mat_mul(power, m)
        assert not any(any(row) for row in power), (i, j)
        # the matrix multiplies by the divisor class
        cls = ring.divisor_class(i, j)
        for b in range(ring.dim):
            column = tuple(Fraction(row[b], scale) for row in m)
            assert (cls * _basis_class(ring, b)).coords == column


def _inverse(ring, cls, top):
    s = cls.scalar_part()
    nil = cls - s * ring.one()
    out, power = ring.one(), ring.one()
    for k in range(1, top + 1):
        power = power * nil
        out = out + Fraction(-1) ** k / Fraction(s) ** k * power
    return out * (Fraction(1) / s)


def _reference_o_class(sys, ring, ell):
    """Product form through CohClass arithmetic, one factor per slot."""
    alpha = gkz.canonical_alpha(sys)
    out = ring.one()
    for (i, j) in sys.j_indices():
        pos = sys.j_position(i, j)
        d = ring.divisor_class(i, j)
        a, c = alpha[pos], ell[pos]
        for k in range(-c):
            out = out * (d + (a - k) * ring.one())
        for m in range(1, c + 1):
            out = out * _inverse(ring, d + (a + m) * ring.one(), sys.n)
    return out


def test_o_class_matches_product_form_on_the_box(instance):
    fan, ring = instance
    sys = gkz.build_system(fan)
    k = len(sys.basis)
    rows = []
    for j in range(k):
        rows.append((tuple(1 if i == j else 0 for i in range(k)), 2))
        rows.append((tuple(-1 if i == j else 0 for i in range(k)), 2))
    off_cone = 0
    for coords in xl.lattice_points(rows, k):
        ell = sys.from_basis_coords(coords)
        value = se.o_class(sys, ring, ell)
        assert value == _reference_o_class(sys, ring, ell), ell
        if not se.in_mori_cone(sys, ell):
            off_cone += 1
            assert value.is_zero(), ell
    assert off_cone > 0


def test_pair_with_dual_index_equals_unit_functional():
    fan = CORPUS["f1"]()
    sys = gkz.build_system(fan)
    ring = toric.cohomology_ring(fan, sys.collections)
    b = se.b_series(sys, ring, se.default_weight(sys), 4)
    for h in range(ring.dim):
        unit = tuple(Fraction(int(i == h)) for i in range(ring.dim))
        assert se.pair_with_dual(b, h).terms == se.pair_with_dual(b, unit).terms
