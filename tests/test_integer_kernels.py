"""The integer kernels against the Fraction code they replaced.

The x^D expansion acts by integer multiplier matrices, fan validation and
primitive relations read each maximal cone through its integer inverse, and
chart coordinates go through the system's one coordinate map.  The routes
they replaced are kept here as references: the class-product ``log_part``
and ``pair_with_dual``, the solve-per-direction completeness loop, the
solve-per-cone relation coefficients and the solve-per-key
``chart_coordinates``.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

import pytest

from conftest import divisor_classes, lattice_log_classes, slot_log_pairings
from test_exact_linalg import ENGINE_INSTANCES
from test_ring_table import INSTANCES
from gkzfrac import checks, toric
from gkzfrac import degeneracy as dg
from gkzfrac import exact_linalg as xl
from gkzfrac import series as se
from gkzfrac.errors import (NotComplete, NotInKernel, NotSmooth,
                            NotUnimodular, RayNotPrimitive)


# --- the references ---------------------------------------------------------------

def reference_log_part(ring, classes, top):
    out = []
    for m in se._log_multidegrees(len(classes), top):
        factors = [classes[j] for j, e in enumerate(m) for _ in range(e)]
        cls = factors[0] if factors else ring.one()
        for f in factors[1:]:
            cls = cls * f
            if cls.is_zero():
                break
        if cls.is_zero():
            continue
        denom = 1
        for e in m:
            denom *= factorial(e)
        out.append((m, Fraction(1, denom) * cls))
    return out


def reference_pair_with_dual(ring, b, classes):
    logs = reference_log_part(ring, classes, ring.top)
    out = b.replace(terms={})
    one = ring.one().coords
    for (ell, _), base in b.terms.items():
        unit = base.coords == one
        for m, cls in logs:
            if unit:
                prod = cls
            elif any(m):
                prod = base * cls
            else:
                prod = base
            if any(prod.coords):
                out.terms[(ell, m)] = prod.coords
    return out


def reference_chart_coordinates(chart, ell):
    cols = tuple(zip(*chart.basis_vectors))
    sol = xl.solve_unique(cols, ell)
    assert sol is not None and all(c.denominator == 1 for c in sol), \
        f"{ell} is not an integer combination of the basis"
    return tuple(int(c) for c in sol)


def reference_chart_pairings(sys, ring, chart, b):
    return reference_pair_with_dual(ring, b,
                                    dg._dual_divisor_classes(sys, ring, chart))


def _cone_coefficients(fan, cone_rays, v):
    cols = tuple(zip(*(fan.rays[i] for i in cone_rays)))
    return xl.solve_unique(cols, v)


def reference_validate_fan(fan):
    report = toric.ValidationReport()
    for idx, ray in enumerate(fan.rays):
        if xl.vec_is_zero(ray):
            raise RayNotPrimitive(f"ray {idx} is zero")
        g = 0
        for x in ray:
            g = gcd(g, abs(x))
        if g != 1:
            raise RayNotPrimitive(f"ray {idx} = {ray} has entry gcd {g}")
    report.add("primitivity", f"{fan.p} rays primitive")
    reference_smoothness(fan)
    report.add("smoothness", f"{len(fan.max_cones)} maximal cones unimodular")
    report.add("simpliciality", "all maximal cones simplicial")
    reference_check_complete(fan)
    report.add("completeness", "ridges paired and sampled directions covered")
    return report


def reference_smoothness(fan):
    for cone in fan.max_cones:
        if len(cone) != fan.rank:
            raise NotSmooth(
                f"cone {sorted(cone)} has {len(cone)} rays, expected {fan.rank}")
        d = xl.det([fan.rays[i] for i in sorted(cone)])
        if d == 0:
            raise NotSmooth(f"cone {sorted(cone)} is degenerate")
        if abs(d) != 1:
            raise NotSmooth(f"cone {sorted(cone)} has determinant {d}")


def reference_check_complete(fan):
    n = fan.rank
    if n == 1:
        rays = set(fan.rays)
        if rays != {(1,), (-1,)} or len(fan.max_cones) != 2:
            raise NotComplete("rank-1 fan must consist of both half-lines")
        return
    ridges = {}
    for cone in fan.max_cones:
        for ridge in combinations(sorted(cone), n - 1):
            ridges[ridge] = ridges.get(ridge, 0) + 1
    for ridge, count in sorted(ridges.items()):
        if count != 2:
            raise NotComplete(
                f"ridge {list(ridge)} lies in {count} maximal cones, expected 2")
    rng = random.Random(914)
    accepted = 0
    while accepted < 40:
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if xl.vec_is_zero(v):
            continue
        interior, boundary = 0, False
        for cone in fan.max_cones:
            coeffs = _cone_coefficients(fan, sorted(cone), v)
            if coeffs is None or any(c < 0 for c in coeffs):
                continue
            if any(c == 0 for c in coeffs):
                boundary = True
                break
            interior += 1
        if boundary:
            continue
        if interior == 0:
            raise NotComplete(f"direction {v} lies in no maximal cone")
        if interior > 1:
            raise NotComplete(f"direction {v} lies in {interior} maximal cones")
        accepted += 1


def reference_primitive_collections(fan):
    out = []
    indices = range(fan.p)
    for size in range(2, fan.rank + 2):
        for combo in combinations(indices, size):
            s = frozenset(combo)
            if toric._is_face(fan, s):
                continue
            if not all(toric._is_face(fan, s - {x}) for x in s):
                continue
            out.append(reference_build_collection(fan, s))
    out.sort(key=lambda pc: (len(pc.rays), sorted(pc.rays)))
    return out


def reference_build_collection(fan, collection):
    total = (0,) * fan.rank
    for i in collection:
        total = xl.vec_add(total, fan.rays[i])
    sigma, coeffs = frozenset(), {}
    if not xl.vec_is_zero(total):
        for cone in fan.max_cones:
            sol = _cone_coefficients(fan, sorted(cone), total)
            if sol is not None and all(c >= 0 for c in sol):
                rays_sorted = sorted(cone)
                sigma = frozenset(i for i, c in zip(rays_sorted, sol) if c > 0)
                coeffs = {i: c for i, c in zip(rays_sorted, sol) if c > 0}
                break
        else:
            raise NotComplete(f"sum of collection {sorted(collection)} "
                              "lies in no maximal cone")
        assert all(c.denominator == 1 for c in coeffs.values()), \
            "non-integer relation coefficients contradict smoothness"
        coeffs = {i: int(c) for i, c in coeffs.items()}
    assert not (collection & sigma), \
        "collection meets the carrier cone, contradicting smoothness"
    block_of = fan.block_of_ray
    c0 = []
    for k in range(fan.r):
        count = sum(1 for i in collection if block_of[i] == k)
        drop = sum(c for i, c in coeffs.items() if block_of[i] == k)
        c0.append(count - drop)
    assert all(c >= 0 for c in c0), \
        (f"auxiliary coefficient negative for collection {sorted(collection)};"
         " the block sums of the given partition are not all nef")
    ell = [0] * fan.p
    for i in collection:
        ell[i] += 1
    for i, c in coeffs.items():
        ell[i] -= c
    ell_ext = [0] * (fan.p + fan.r)
    for i_ray in range(fan.p):
        if ell[i_ray]:
            ell_ext[fan.j_position_of_ray(i_ray)] = ell[i_ray]
    for k in range(fan.r):
        ell_ext[fan.j_position(k, 0)] = -c0[k]
    ell_ext = tuple(ell_ext)
    assert xl.vec_is_zero(xl.mat_vec(toric.a_ext_matrix(fan), ell_ext)), \
        "lifted relation is not in the kernel"
    return toric.PrimitiveCollection(
        rays=frozenset(collection), sigma=sigma,
        coeffs=tuple(sorted(coeffs.items())), c0=tuple(c0),
        ell=tuple(ell), ell_ext=ell_ext)


def reference_multiplier(ring, cls):
    """(L, M) from the products of cls with each basis monomial, reduced
    monomial by monomial; L is the lcm of their denominators."""
    columns = []
    for mb in ring.basis_monomials:
        poly = {}
        for c, ma in zip(cls.coords, ring.basis_monomials):
            expo = tuple(x + y for x, y in zip(ma, mb))
            poly[expo] = poly.get(expo, 0) + c
        columns.append(ring.class_from_poly(poly).coords)
    scale = lcm(*(c.denominator for col in columns for c in col))
    return scale, tuple(tuple((k, int(c * scale)) for k, c in enumerate(col)
                              if c) for col in columns)


# --- multipliers ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_multiplier_equals_the_class_products(name):
    fan = INSTANCES[name]()
    ring = toric.cohomology_ring(fan, toric.primitive_collections(fan))
    rng = random.Random(name)
    classes = [ring.divisor_class(i, j) for i, j in fan.j_indices()]
    for i, j in fan.j_indices():
        assert ring.divisor_matrix(i, j) == \
            reference_multiplier(ring, ring.divisor_class(i, j))
    samples = []
    for _ in range(10):
        cls = ring.one() * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        for d in classes:
            cls = cls + Fraction(rng.randint(-5, 5), rng.randint(1, 6)) * d
        cls = cls * rng.choice(classes) + cls
        assert ring.multiplier(cls) == reference_multiplier(ring, cls)
        samples.append(cls)
    # the same table over a common denominator six times larger gives the
    # same (least) multipliers and the same products
    expected = [(ring.multiplier(cls), cls * cls) for cls in samples]
    ring._scale *= 6
    ring._table = [[tuple((k, 6 * t) for k, t in entry) for entry in row]
                   for row in ring._table]
    assert [(ring.multiplier(cls), cls * cls) for cls in samples] == expected


# --- pairings ------------------------------------------------------------------------

PAIRING_CASES = [(name, 4 if name.startswith("p1p1p1") else 6)
                 for name in sorted(INSTANCES)] + [("p1xp1", 12)]


def typed_items(s):
    """The terms in stored order, with the type of every coordinate."""
    return [(key, row, [type(c) for c in row]) for key, row in s.terms.items()]


@pytest.mark.parametrize("name, order", PAIRING_CASES)
def test_log_part_equals_the_class_products(name, order):
    inst = checks.Instance(INSTANCES[name](), order=order)
    ring = inst.ring
    classes = divisor_classes(inst.sys, ring)
    for top in range(ring.top + 2):
        got = se.log_part(ring, classes, top)
        ref = reference_log_part(ring, classes, top)
        assert [m for m, _ in got] == [m for m, _ in ref]
        assert [c.coords for _, c in got] == [c.coords for _, c in ref]


@pytest.mark.parametrize("name, order", PAIRING_CASES)
def test_pairings_equal_the_class_products(name, order):
    # the lattice-log pairings check-all reads (the first chart's) and the
    # slot-log ones bseries prints, each against the class products in its
    # own log slots; then every chart's
    inst = checks.Instance(INSTANCES[name](), order=order)
    ring, sys = inst.ring, inst.sys
    for got, classes in ((inst.pairings, lattice_log_classes(sys, ring)),
                         (slot_log_pairings(inst),
                          divisor_classes(sys, ring))):
        ref = reference_pair_with_dual(ring, inst.b, classes)
        assert typed_items(got) == typed_items(ref)
        assert (got.alpha, got.weight, got.order, got.shifts) == \
            (ref.alpha, ref.weight, ref.order, ref.shifts)
        assert len(got.log_map) == len(classes)
    assert slot_log_pairings(inst).log_map == se.slot_log_map(sys.nvars)
    for chart in inst.charts:
        got = dg.chart_pairings(inst.sys, inst.ring, chart, inst.b)
        assert typed_items(got) == typed_items(
            reference_chart_pairings(inst.sys, inst.ring, chart, inst.b))


def integer_values(form):
    """Every entry of an integer form as a Fraction, keyed by (offset, log
    degree, component)."""
    _stacked, denominators, groups = form
    return {(ell, logdeg, i): Fraction(n, denominators[i])
            for ell, terms in groups.items()
            for logdeg, nz in terms for i, n in nz}


@pytest.mark.parametrize("name, order", PAIRING_CASES)
def test_kept_integer_form_equals_the_recomputed_one(name, order):
    inst = checks.Instance(INSTANCES[name](), order=order)
    s = dg.chart_pairings(inst.sys, inst.ring, inst.charts[0], inst.b)
    for series in (inst.pairings, slot_log_pairings(inst), s):
        kept = vars(series)["_integer_form"][2]
        assert series.integer_form() is kept
        fresh = series.replace().integer_form()
        assert fresh is not kept
        values = integer_values(kept)
        assert values == integer_values(fresh)
        assert values == {(ell, logdeg, i): c
                          for (ell, logdeg), row in series.terms.items()
                          for i, c in enumerate(row) if c}


def test_equal_entries_share_one_fraction():
    # P1^3 r1: the O_0 and m = 0 rows enter as they are, the products share
    # one Fraction per (numerator, denominator) pair.  In slot logs
    # (bseries) 3854 nonzero entries hold 127 distinct values, 3524 of them
    # in product rows; in chart logs (check-all) 914 entries hold 62
    # values, 640 in product rows, where every value is one Fraction
    inst = checks.Instance(INSTANCES["p1p1p1_r1"](), order=4)
    slot = slot_log_pairings(inst)
    entries = [c for row in slot.terms.values() for c in row if c]
    assert len({id(c) for c in entries}) * 8 < len(entries)
    for pairings in (slot, inst.pairings):
        products = [c for (ell, m), row in pairings.terms.items()
                    if any(ell) and any(m) for c in row if c]
        assert len({id(c) for c in products}) * 8 < len(products)


# --- fans ---------------------------------------------------------------------------

def outcome(fn, arg):
    """What ``fn(arg)`` returns, or the type and message of what it raises."""
    try:
        return fn(arg)
    except (NotComplete, NotInKernel, NotSmooth, RayNotPrimitive,
            AssertionError) as exc:
        # the first line: pytest appends its explanation to a test module's
        # own assertions
        return type(exc), str(exc).partition("\n")[0]


def relations(collections):
    return [(pc.rays, pc.sigma, pc.coeffs, pc.c0, pc.ell, pc.ell_ext)
            for pc in collections]


BAD_FANS = {
    "not_smooth": lambda: toric.make_fan(
        2, [(1, 0), (1, 2), (-1, -1)], [[0, 1], [1, 2], [0, 2]], [[0, 1, 2]]),
    "not_complete": lambda: toric.make_fan(
        2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2]], [[0, 1, 2]]),
    "not_primitive": lambda: toric.make_fan(
        2, [(2, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]], [[0, 1, 2]]),
    "degenerate": lambda: toric.make_fan(
        2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2], [0, 2]], [[0, 1, 2]]),
    "wrong_size": lambda: toric.make_fan(
        2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0]], [[0, 1, 2]]),
    # unimodular cones that overlap: every ridge is paired, yet a direction
    # lies in two cones
    "overlap": lambda: toric.make_fan(
        2, [(1, 0), (0, 1), (-1, 0), (-2, 1)], [[0, 1], [1, 2], [2, 3], [3, 0]],
        [[0, 1, 2, 3]]),
    # two turns around the origin
    "double_cover": lambda: toric.make_fan(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)] * 2,
        [[i, (i + 1) % 8] for i in range(8)], [list(range(8))]),
}
FAN_CASES = sorted(ENGINE_INSTANCES) + sorted(BAD_FANS)


def fan_case(name):
    return (ENGINE_INSTANCES.get(name) or BAD_FANS[name])()


@pytest.mark.parametrize("name", FAN_CASES)
def test_validate_fan_equals_the_solve_per_direction_loop(name):
    got = outcome(toric.validate_fan, fan_case(name))
    ref = outcome(reference_validate_fan, fan_case(name))
    if name in BAD_FANS:
        assert isinstance(ref, tuple) and got == ref
    else:
        assert got.checks == ref.checks


@pytest.mark.parametrize("name", FAN_CASES)
def test_primitive_collections_equal_the_solve_per_cone_search(name):
    got = outcome(lambda fan: relations(toric.primitive_collections(fan)),
                  fan_case(name))
    smooth = outcome(reference_smoothness, fan_case(name))
    if smooth is not None:
        # a cone that is not unimodular has no integer inverse: the search
        # names it as validate_fan does, where the reference tripped its
        # smoothness assertion or missed the cone
        assert name in BAD_FANS and got == smooth
        return
    assert got == outcome(
        lambda fan: relations(reference_primitive_collections(fan)),
        fan_case(name))


# --- charts ------------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_chart_coordinates_equal_the_solve_per_key(name):
    """One batch per chart gives, offset by offset in the order given, the
    exponents the per-key solve finds, negative ones included; an offset
    off the lattice is rejected where the solve rejects it, as no relation
    (NotInKernel)."""
    inst = checks.Instance(INSTANCES[name](), order=6)
    rng = random.Random(name)
    k = len(inst.sys.basis)
    keys = [ell for (ell, _) in inst.b.terms]
    keys += list(se.region_slab(inst.sys, inst.omega, 6))
    keys += [inst.sys.from_basis_coords([rng.randint(-4, 4) for _ in range(k)])
             for _ in range(40)]
    # off the lattice: one unit added to one slot
    off = [tuple(x + (i == j) for i, x in enumerate(ell))
           for j, ell in enumerate(keys[:inst.sys.nvars])]
    signs = set()
    for chart in inst.charts:
        batch = dg.chart_coordinates(inst.sys, chart, keys)
        assert list(batch) == list(dict.fromkeys(keys))
        for ell, m in batch.items():
            assert m == reference_chart_coordinates(chart, ell), ell
            signs.add(min(m) < 0)
        for ell in off:
            got = outcome(
                lambda e: dg.chart_coordinates(inst.sys, chart, [e]), ell)
            assert got == (NotInKernel,
                           f"{ell} is not a relation of the configuration")
            assert outcome(lambda e: reference_chart_coordinates(chart, e),
                           ell)[0] is AssertionError, ell
    assert signs == {False, True}


# --- the inverse -------------------------------------------------------------------------

def test_unimodular_inverse():
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randint(1, 5)
        m = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(8):  # random elementary row operations
            i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
            if i != j:
                c = rng.randint(-3, 3)
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            if rng.random() < 0.3:
                m[i] = [-x for x in m[i]]
        inv = xl.unimodular_inverse(m)
        assert all(type(x) is int for row in inv for x in row)
        identity = tuple(tuple(int(i == j) for j in range(k))
                         for i in range(k))
        assert xl.mat_mul(m, inv) == identity == xl.mat_mul(inv, m)
    for bad, d in ((((2, 0), (0, 1)), 2), (((1, 2), (2, 4)), 0),
                   (((1, 1, 0), (0, 1, 1), (1, 0, 1)), 2)):
        with pytest.raises(NotUnimodular, match=f"determinant {d},"):
            xl.unimodular_inverse(bad)
