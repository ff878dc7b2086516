"""The structure-constant ring against the monomial presentation.

The ring multiplies coordinate vectors through a table of basis products and
evaluates product-form coefficients through nilpotent divisor matrices.  Both
are checked here against the slower routes they replaced: reducing monomial
products through ``class_from_poly``, and building each slot factor of the
coefficient out of ``CohClass`` arithmetic with an explicit nilpotent inverse.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from conftest import CORPUS, divisor_classes
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
# each instance's own truncation order: the corpus at the acceptance order,
# the threefolds and surfaces at their benchmark orders
REFERENCE_ORDERS = dict.fromkeys(CORPUS, 8) | {
    "p1p1p1_r1": 4, "p1p1p1_r3": 4, "surface5": 5, "surface8": 5}


def cyclic_surface(rays, name, partition=None):
    """Surface fan whose maximal cones join consecutive rays; one block
    unless a partition is given."""
    n = len(rays)
    return toric.make_fan(2, rays, [[i, (i + 1) % n] for i in range(n)],
                          partition or [list(range(n))], name=name)


SQUARE8 = [(1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
           (1, 0)]
TRIANGLE9 = [(1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0), (-1, -1), (0, -1),
             (1, -1), (2, -1)]
P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
P3_CONES = [list(c) for c in combinations(range(4), 3)]
P2XP1_RAYS = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
P2XP1_CONES = [[i, j, k] for i, j in combinations(range(3), 2) for k in (3, 4)]
# larger rings, built but not run through check-all: the 8-ray square and
# the 9-ray triangle, and P^3 and P2xP1 under each of their partitions
RING_ONLY = {
    "square8": lambda: cyclic_surface(SQUARE8, "square8"),
    "triangle9": lambda: cyclic_surface(TRIANGLE9, "triangle9"),
    "p3_r1": lambda: toric.make_fan(3, P3_RAYS, P3_CONES, [[0, 1, 2, 3]],
                                    name="p3_r1"),
    "p3_r2": lambda: toric.make_fan(3, P3_RAYS, P3_CONES, [[0, 1], [2, 3]],
                                    name="p3_r2"),
    "p3_r4": lambda: toric.make_fan(3, P3_RAYS, P3_CONES,
                                    [[0], [1], [2], [3]], name="p3_r4"),
    "p2xp1_r1": lambda: toric.make_fan(3, P2XP1_RAYS, P2XP1_CONES,
                                       [[0, 1, 2, 3, 4]], name="p2xp1_r1"),
    "p2xp1_r2": lambda: toric.make_fan(3, P2XP1_RAYS, P2XP1_CONES,
                                       [[0, 1, 2], [3, 4]], name="p2xp1_r2"),
}


class _GreedyRing:
    """The ring construction the single echelon form replaced, kept verbatim:
    a Fraction echelon of the relations, a greedy earliest-first basis
    search, and one ``solve_unique`` per reduced monomial."""

    def __init__(self, fan, collections):
        self.p = fan.p
        self.top = fan.rank
        self._sr = toric.stanley_reisner_ideal(collections)
        self._linear = [tuple(ray[k] for ray in fan.rays)
                        for k in range(fan.rank)]
        self._echelon = {}     # degree -> list of (pivot_col, row vector)
        self._basis = {}       # degree -> list of exponent tuples
        self._mons = {}        # degree -> ordered monomial list
        self._mon_pos = {}     # degree -> {expo: column}
        self._solve_mat = {}   # degree -> rows of the basis-residue matrix
        self._build()
        self.basis_monomials = []
        self.basis_degrees = []
        for d in range(self.top + 1):
            for m in self._basis[d]:
                self.basis_monomials.append(m)
                self.basis_degrees.append(d)

    def _build(self):
        for d in range(self.top + 1):
            mons = toric._monomials_of_degree(self.p, d)
            mons.sort(key=toric._monomial_key)
            pos = {m: i for i, m in enumerate(mons)}
            self._mons[d] = mons
            self._mon_pos[d] = pos
            rows = []
            for s in self._sr:
                k = len(s)
                if k > d:
                    continue
                base = [0] * self.p
                for i in s:
                    base[i] += 1
                for mu in toric._monomials_of_degree(self.p, d - k):
                    expo = tuple(b + m for b, m in zip(base, mu))
                    vec = [Fraction(0)] * len(mons)
                    vec[pos[expo]] = Fraction(1)
                    rows.append(vec)
            if d >= 1:
                for lam in self._linear:
                    for mu in toric._monomials_of_degree(self.p, d - 1):
                        vec = [Fraction(0)] * len(mons)
                        for var, c in enumerate(lam):
                            if c:
                                expo = list(mu)
                                expo[var] += 1
                                vec[pos[tuple(expo)]] += Fraction(c)
                        rows.append(vec)
            echelon = []
            for vec in rows:
                self._reduce_vec(vec, echelon)
                piv = next((i for i, x in enumerate(vec) if x != 0), None)
                if piv is not None:
                    inv = Fraction(1) / vec[piv]
                    echelon.append((piv, [x * inv for x in vec]))
            echelon.sort(key=lambda t: t[0])
            self._echelon[d] = echelon
            basis = []
            chosen = list(echelon)
            candidates = [m for m in mons if all(e <= 1 for e in m)]
            candidates += [m for m in mons if any(e > 1 for e in m)]
            for m in candidates:
                vec = [Fraction(0)] * len(mons)
                vec[pos[m]] = Fraction(1)
                self._reduce_vec(vec, chosen)
                piv = next((i for i, x in enumerate(vec) if x != 0), None)
                if piv is not None:
                    inv = Fraction(1) / vec[piv]
                    chosen.append((piv, [x * inv for x in vec]))
                    chosen.sort(key=lambda t: t[0])
                    basis.append(m)
            assert all(all(e <= 1 for e in m) for m in basis), \
                "square-free monomials do not span; input fan not smooth projective?"
            self._basis[d] = basis
            resid = []
            for m in basis:
                bvec = [Fraction(0)] * len(mons)
                bvec[pos[m]] = Fraction(1)
                self._reduce_vec(bvec, echelon)
                resid.append(bvec)
            self._solve_mat[d] = [tuple(col) for col in zip(*resid)] if resid else []

    @staticmethod
    def _reduce_vec(vec, echelon):
        for piv, row in echelon:
            if vec[piv] != 0:
                c = vec[piv]
                for i in range(piv, len(vec)):
                    if row[i]:
                        vec[i] -= c * row[i]

    def reduce_monomial(self, expo):
        """Coordinates of a monomial over the selected basis of its degree."""
        d = sum(expo)
        if d > self.top:
            return {}
        mons, pos = self._mons[d], self._mon_pos[d]
        vec = [Fraction(0)] * len(mons)
        vec[pos[tuple(expo)]] = Fraction(1)
        self._reduce_vec(vec, self._echelon[d])
        if not self._basis[d]:
            assert all(x == 0 for x in vec)
            return {}
        sol = xl.solve_unique(self._solve_mat[d], tuple(vec))
        assert sol is not None, "monomial not expressible over the chosen basis"
        return {m: c for m, c in zip(self._basis[d], sol) if c != 0}


SEEDED_SURFACES = {f"surface{seed}": (seed, 1 + seed % 3) for seed in range(24)}


@pytest.mark.parametrize("name", sorted(INSTANCES) + sorted(SEEDED_SURFACES)
                         + sorted(RING_ONLY))
def test_ring_matches_the_greedy_fraction_construction(name):
    if name in INSTANCES:
        fan = INSTANCES[name]()
    elif name in RING_ONLY:
        fan = RING_ONLY[name]()
    else:
        fan = _seeded_surface(*SEEDED_SURFACES[name])
    collections = toric.primitive_collections(fan)
    ring = toric.cohomology_ring(fan, collections)
    ref = _GreedyRing(fan, collections)
    assert ring.basis_monomials == ref.basis_monomials
    assert ring.basis_degrees == ref.basis_degrees
    for d in range(fan.rank + 2):
        for expo in toric._monomials_of_degree(fan.p, d):
            expected = ref.reduce_monomial(expo)
            assert ring.reduce_monomial(expo).coords == tuple(
                expected.get(m, 0) for m in ring.basis_monomials), expo


def test_p1p1p1_eliminates_only_the_live_monomials(monkeypatch):
    """The Stanley-Reisner monomials never enter the elimination: in degree
    3, 18 of the 56 monomials are divisible by a generator, and the rows
    are the 3 linear relations times the 18 live monomials of degree 2 (a
    relation times one of the 3 dead ones would be a zero row)."""
    fan = INSTANCES["p1p1p1_r1"]()
    collections = toric.primitive_collections(fan)
    generators = toric.stanley_reisner_ideal(collections)
    shapes = []
    original = xl.echelon

    def recorded(m):
        shapes.append((len(m), {len(row) for row in m}))
        return original(m)

    monkeypatch.setattr(xl, "echelon", recorded)
    toric.cohomology_ring(fan, collections)
    cubics = toric._monomials_of_degree(fan.p, 3)
    live = [m for m in cubics
            if not any(all(m[v] for v in s) for s in generators)]
    assert (len(cubics), len(live)) == (56, 38)
    quadrics = toric._monomials_of_degree(fan.p, 2)
    live = [m for m in quadrics
            if not any(all(m[v] for v in s) for s in generators)]
    assert (len(quadrics), len(live)) == (21, 18)
    assert 54 == fan.rank * len(live)
    assert shapes == [(0, set()), (3, {6}), (18, {18}), (54, {38})]


@pytest.fixture(params=sorted(INSTANCES))
def instance(request):
    fan = INSTANCES[request.param]()
    return fan, toric.cohomology_ring(fan, toric.primitive_collections(fan))


def _basis_class(ring, k):
    return toric.CohClass(ring, [int(i == k) for i in range(ring.dim)])


def test_class_fields_are_canonical(instance):
    _fan, ring = instance
    rest = (0,) * (ring.dim - 1)
    half = toric.CohClass(ring, (6,) + rest, -12)
    assert (half.nums, half.den) == ((-1,) + rest, 2)
    zero = toric.CohClass(ring, (0,) * ring.dim, 7)
    assert (zero.nums, zero.den) == ((0,) * ring.dim, 1)
    assert zero == ring.zero() and zero.is_zero()
    assert (ring.one().nums, ring.one().den) == ((1,) + rest, 1)


def test_coords_is_a_read_only_fraction_view(instance):
    _fan, ring = instance
    cls = toric.CohClass(ring, range(1, ring.dim + 1), 4)
    assert cls.coords == tuple(Fraction(k, 4) for k in range(1, ring.dim + 1))
    assert all(type(c) is Fraction for c in cls.coords)
    with pytest.raises(AttributeError):
        cls.coords = ring.one().coords


def _fraction_product(ring, x, y):
    """Coordinates of x * y from the normal forms of the basis products."""
    out = [Fraction(0)] * ring.dim
    for (ma, a), (mb, b) in product(zip(ring.basis_monomials, x),
                                    zip(ring.basis_monomials, y)):
        if a and b:
            expo = tuple(p + q for p, q in zip(ma, mb))
            for k, c in enumerate(ring.reduce_monomial(expo).coords):
                out[k] += a * b * c
    return tuple(out)


def test_class_arithmetic_equals_fraction_tuples(instance):
    _fan, ring = instance
    rng = random.Random(ring.dim)

    def seeded():
        nums = [rng.choice((0, rng.randint(-9, 9))) for _ in range(ring.dim)]
        return toric.CohClass(ring, nums, rng.randint(1, 12))

    def canonical(cls):
        return cls.den > 0 and gcd(cls.den, *cls.nums) == 1

    for _ in range(12):
        a, b = seeded(), seeded()
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        x, y = a.coords, b.coords
        cases = [(a + b, tuple(p + q for p, q in zip(x, y))),
                 (a - b, tuple(p - q for p, q in zip(x, y))),
                 (c * a, tuple(c * p for p in x)),
                 (a * c, tuple(c * p for p in x)),
                 (a * b, _fraction_product(ring, x, y))]
        for got, expected in cases:
            assert got.coords == expected and canonical(got)
        k = rng.randint(2, 5)
        assert a == toric.CohClass(ring, [k * n for n in a.nums], k * a.den)
        assert (a == b) == (x == y)
        assert (a - a).is_zero() and a - a == ring.zero()


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


def scalar_part(cls):
    """Coefficient of the unit basis element."""
    return cls.coords[0]


def _inverse(ring, cls, top):
    s = scalar_part(cls)
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


def _box(sys, bound=2):
    """The relations with basis coordinates in [-bound, bound]."""
    return [sys.from_basis_coords(coords)
            for coords in product(range(-bound, bound + 1),
                                  repeat=len(sys.basis))]


def test_o_class_matches_product_form_on_the_box(instance):
    fan, ring = instance
    sys = gkz.build_system(fan)
    off_cone = 0
    for ell in _box(sys):
        value = se.o_class(sys, ring, ell)
        assert value == _reference_o_class(sys, ring, ell), ell
        if not se.in_mori_cone(sys, ell):
            off_cone += 1
            assert value.is_zero(), ell
    assert off_cone > 0


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warmed"])
@pytest.mark.parametrize("name", ["p1xp1", "p1xp1_r1"])
def test_o_class_matches_product_form_on_the_order_12_slab(name, warm):
    # the slot factors the box sweep left in the ring give the same classes
    fan = INSTANCES[name]()
    ring = toric.cohomology_ring(fan, toric.primitive_collections(fan))
    sys = gkz.build_system(fan)
    if warm:
        for ell in _box(sys):
            se.o_class(sys, ring, ell)
    slab = se.mori_slab(sys, gkz.default_weight(sys), 12)
    nonzero = 0
    for ell in slab:
        value = se.o_class(sys, ring, ell)
        assert value == _reference_o_class(sys, ring, ell), ell
        nonzero += not value.is_zero()
    assert nonzero > len(slab) // 2


@pytest.mark.parametrize("name,points,factors", [("p1p1p1_r1", 98, 25),
                                                 ("surface8", 399, 33)])
def test_o_class_builds_no_raising_factor_off_the_cone(name, points,
                                                       factors):
    """Off the curve cone the lowering factors, applied before any raising
    one, kill the vector: over the whole off-cone sweep on a fresh ring
    every class is zero and no factor with c > 0 is built."""
    fan = INSTANCES[name]()
    ring = toric.cohomology_ring(fan, toric.primitive_collections(fan))
    sys = gkz.build_system(fan)
    off_cone = 0
    for coords in product(range(-2, 3), repeat=len(sys.basis)):
        if se.coords_in_mori_cone(sys, coords):
            continue
        ell = sys.from_basis_coords(coords)
        assert se.o_class(sys, ring, ell).is_zero(), ell
        off_cone += 1
    assert off_cone == points
    built = [c for (_i, _j, _a, c) in ring._slot_factors]
    assert len(built) == factors
    assert max(built) == 0


def _log_expanded_b_series(sys, ring, omega, order):
    """The B-series with x^D expanded term by term: every nonzero product
    class times every log class, as one cohomology-valued series."""
    logs = se.log_part(ring, divisor_classes(sys, ring), sys.n)
    s = se.LogSeries(alpha=sys.alpha, weight=gkz.check_weight(sys, omega),
                     order=order)
    for ell in se.mori_slab(sys, omega, order):
        base = se.o_class(sys, ring, ell)
        if base.is_zero():
            continue
        for m, cls in logs:
            total = base * cls
            if not total.is_zero():
                s.terms[(ell, m)] = total
    return s


def _split_by_coordinate(ring, b):
    """Scalar series of each coordinate of a cohomology-valued series."""
    out = [se.LogSeries(alpha=b.alpha, weight=b.weight, order=b.order,
                        shifts=b.shifts) for _ in range(ring.dim)]
    for (ell, logdeg), cls in b.terms.items():
        for s, c in zip(out, cls.coords):
            s.add_term(ell, logdeg, c)
    return out


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pair_with_dual_matches_per_functional_walk(name):
    # expanding x^D only while pairing gives the split of the expanded series
    fan = INSTANCES[name]()
    sys = gkz.build_system(fan)
    ring = toric.cohomology_ring(fan, sys.collections)
    omega = gkz.default_weight(sys)
    b = se.b_series(sys, ring, omega, 4)
    pairings = se.pair_with_dual(
        ring, b, divisor_classes(sys, ring)).components()
    expected = _split_by_coordinate(
        ring, _log_expanded_b_series(sys, ring, omega, 4))
    assert len(pairings) == ring.dim
    for s, ref in zip(pairings, expected):
        assert s.terms == ref.terms
        assert list(s.terms) == list(ref.terms)
        assert (s.alpha, s.weight, s.order, s.shifts) == \
            (ref.alpha, ref.weight, ref.order, ref.shifts)
