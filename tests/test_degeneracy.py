import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import p1_fan, p1xp1_fan_r2, p2_fan
from test_exact_linalg import ENGINE_INSTANCES, SQUARE8, cyclic_surface
from test_ring_table import INSTANCES, REFERENCE_ORDERS
from gkzfrac import checks, cli
from gkzfrac import degeneracy as dg
from gkzfrac import gkz, series as se, toric
from gkzfrac import exact_linalg as xl
from gkzfrac.errors import NegativeExponent


def system(fan_maker):
    return gkz.build_system(fan_maker())


def period(sys, order):
    return se.normalized_period_series(sys, gkz.default_weight(sys), order)


def b_series(sys, ring, order):
    return se.b_series(sys, ring, gkz.default_weight(sys), order)


def pairings(sys, ring, chart, order):
    """The solution pairings in the chart's logs, as the certificate reads
    them."""
    return dg.chart_pairings(sys, ring, chart, b_series(sys, ring, order))


def coordinates(sys, chart, s):
    """The chart's exponents of the offsets stored in the series ``s``."""
    return dg.chart_coordinates(sys, chart, [ell for ell, _ in s.terms])


def in_chart(sys, chart, s):
    """``s`` transported to the chart, its offsets re-keyed first."""
    return dg.period_in_chart(chart, coordinates(sys, chart, s), s)


def with_coordinates(sys, charts, period):
    """Each chart with its exponents of the period's offsets, as the
    certificate takes them."""
    return [(chart, coordinates(sys, chart, period)) for chart in charts]


# --- charts -----------------------------------------------------------------------

def test_chart_p2_sign():
    sys = system(p2_fan)
    charts = dg.subdivide_kahler_cone(sys)
    assert len(charts) == 1
    assert charts[0].basis_vectors == ((-3, 1, 1, 1),)
    assert charts[0].signs == (-1,)


def test_chart_p1_sign():
    sys = system(p1_fan)
    charts = dg.subdivide_kahler_cone(sys)
    assert len(charts) == 1
    assert charts[0].basis_vectors == ((-2, 1, 1),)
    assert charts[0].signs == (1,)


def test_chart_p1xp1_signs():
    sys = system(p1xp1_fan_r2)
    charts = dg.subdivide_kahler_cone(sys)
    assert len(charts) == 1
    assert set(charts[0].basis_vectors) == {
        (-2, 1, 1, 0, 0, 0), (0, 0, 0, -2, 1, 1)}
    assert charts[0].signs == (1, 1)


def test_chart_basis_unimodular(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    for chart in dg.subdivide_kahler_cone(sys):
        assert xl.is_unimodular_lattice_basis(
            list(chart.basis_vectors), sys.basis)
        # basis vectors lie in the dual of the chart cone
        for v in chart.basis_vectors:
            coords = sys.basis_coords(v)
            for ray in chart.cone_rays:
                assert xl.dot(ray, coords) >= 0


# --- period transport ------------------------------------------------------------------

def test_period_in_chart_p1():
    sys = system(p1_fan)
    chart = dg.subdivide_kahler_cone(sys)[0]
    period = se.normalized_period_series(sys, gkz.default_weight(sys), 8)
    z = in_chart(sys, chart, period)
    assert z.coefficient((0,)) == 1
    assert z.coefficient((1,)) == Fraction(3, 4)
    assert z.coefficient((2,)) == Fraction(105, 64)
    assert z.coefficient((3,)) == Fraction(1155, 256)
    assert z.coefficient((4,)) == Fraction(225225, 16384)


def test_period_in_chart_p2_signs():
    sys = system(p2_fan)
    chart = dg.subdivide_kahler_cone(sys)[0]
    period = se.normalized_period_series(sys, gkz.default_weight(sys), 6)
    z = in_chart(sys, chart, period)
    assert z.coefficient((0,)) == 1
    assert z.coefficient((1,)) == Fraction(-15, 8)
    assert z.coefficient((2,)) == Fraction(10395, 512)


def test_period_in_chart_trivial_series():
    sys = system(p1_fan)
    chart = dg.subdivide_kahler_cone(sys)[0]
    s = se.LogSeries(alpha=gkz.canonical_alpha(sys),
                     weight=tuple(Fraction(x) for x in gkz.default_weight(sys)),
                     order=0)
    s.add_term((0, 0, 0), (0, 0, 0), Fraction(1))
    z = in_chart(sys, chart, s)
    assert z.terms == {((0,), (0,)): Fraction(1)}


def test_period_in_chart_negative_exponent():
    sys = system(p1_fan)
    chart = dg.subdivide_kahler_cone(sys)[0]
    s = se.LogSeries(alpha=gkz.canonical_alpha(sys),
                     weight=tuple(Fraction(x) for x in gkz.default_weight(sys)),
                     order=4)
    s.add_term((2, -1, -1), (0, 0, 0), Fraction(1))
    with pytest.raises(NegativeExponent,
                       match=r"^\(2, -1, -1\) needs negative chart exponents "
                             r"\(-1,\)$"):
        in_chart(sys, chart, s)


def test_region_decomposes_in_chart(corpus_fan):
    """Every summation-region vector has nonnegative chart coordinates."""
    sys = gkz.build_system(corpus_fan)
    chart = dg.subdivide_kahler_cone(sys)[0]
    omega = gkz.default_weight(sys)
    slab = se.region_slab(sys, omega, 8)
    coords = dg.chart_coordinates(sys, chart, slab)
    assert list(coords) == list(slab)
    assert all(x >= 0 for m in coords.values() for x in m)


# --- chart pairings ------------------------------------------------------------------------

def test_chart_pairings_unit_matches_period_p1():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    chart = dg.subdivide_kahler_cone(sys)[0]
    omega = gkz.default_weight(sys)
    pairings = dg.chart_pairings(sys, ring, chart,
                                 b_series(sys, ring, 6)).components()
    period = in_chart(sys, chart, se.normalized_period_series(sys, omega, 6))
    # keyed by lattice offsets: re-keyed, the unit pairing is the period
    unit = pairings[0]
    assert not any(any(logdeg) for _, logdeg in unit.terms)
    coords = coordinates(sys, chart, unit)
    assert {(coords[ell], logdeg): c
            for (ell, logdeg), c in unit.terms.items()} == period.terms


def test_chart_pairings_log_stratification_p2():
    sys = system(p2_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    chart = dg.subdivide_kahler_cone(sys)[0]
    pairings = dg.chart_pairings(sys, ring, chart,
                                 b_series(sys, ring, 5)).components()
    max_log = [max((sum(logdeg) for _, logdeg in s.terms), default=0)
               for s in pairings]
    assert sorted(max_log) == [0, 1, 2]


def test_chart_pairings_bidegrees_p1xp1():
    sys = system(p1xp1_fan_r2)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    chart = dg.subdivide_kahler_cone(sys)[0]
    pairings = dg.chart_pairings(sys, ring, chart,
                                 b_series(sys, ring, 5)).components()
    assert len(pairings) == 4
    max_log = sorted(max((sum(logdeg) for _, logdeg in s.terms), default=0)
                     for s in pairings)
    assert max_log == [0, 1, 1, 2]


def slab_chart_pairings(sys, ring, chart, omega, order):
    """Reference: walk the Mori slab, take each product-form class and
    expand it in the chart log part, keyed by its lattice offset."""
    log_part = se.log_part(ring, dg._dual_divisor_classes(sys, ring, chart),
                           sys.n)
    outputs = [{} for _ in range(ring.dim)]
    for ell in se.mori_slab(sys, omega, order):
        base = se.o_class(sys, ring, ell)
        if base.is_zero():
            continue
        for logdeg, cls in log_part:
            total = base * cls
            for h in range(ring.dim):
                if total.coords[h]:
                    outputs[h][(ell, logdeg)] = total.coords[h]
    return outputs


@pytest.mark.parametrize("name,order", [
    ("p1", 8), ("p2", 6), ("p1xp1", 6), ("f1", 6), ("p1p1p1_r1", 3)])
def test_chart_pairings_match_the_slab_walk(name, order):
    # re-expanding the B-series gives what the Mori-slab walk gives
    sys = system(INSTANCES[name])
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    omega = gkz.default_weight(sys)
    b = se.b_series(sys, ring, omega, order)
    for chart in dg.subdivide_kahler_cone(sys):
        pairings = dg.chart_pairings(sys, ring, chart, b).components()
        expected = slab_chart_pairings(sys, ring, chart, omega, order)
        assert [s.terms for s in pairings] == expected
        assert any(expected)


def reference_dual_divisor_classes(sys, ring, chart):
    """One ``solve_linear`` per dual class, kept verbatim as the reference
    for the classes read off the chart's inverse."""
    dim = len(chart.basis_vectors)
    d_classes = [ring.divisor_class(i, j) for (i, j) in sys.j_indices()]
    w_classes = []
    rows = tuple(chart.basis_vectors)
    for k in range(dim):
        target = tuple(Fraction(1 if i == k else 0) for i in range(dim))
        sol = xl.solve_linear(rows, target)
        assert sol is not None, "chart basis does not span the dual"
        particular, _null = sol
        cls = ring.zero()
        for j, w in enumerate(particular):
            if w:
                cls = cls + w * d_classes[j]
        w_classes.append(cls)
    return w_classes


def test_dual_classes_equal_the_per_class_solve():
    """The slot-supported duals differ from the solved ones by a linear
    relation, which vanishes in cohomology: equal classes on every chart."""
    compared = 0
    for name, build in sorted(ENGINE_INSTANCES.items()):
        fan = build()
        sys = gkz.build_system(fan)
        charts = dg.subdivide_kahler_cone(sys)
        ring = toric.cohomology_ring(fan, sys.collections)
        for chart in charts:
            assert dg._dual_divisor_classes(sys, ring, chart) == \
                reference_dual_divisor_classes(sys, ring, chart), name
            compared += 1
    assert compared == 19


# --- the certificate ---------------------------------------------------------------------------

def test_certificate_p1():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    chart = dg.subdivide_kahler_cone(sys)[0]
    p = period(sys, 8)
    report, = dg.maximal_degeneracy_check(sys, ring,
                                          with_coordinates(sys, [chart], p),
                                          p, pairings(sys, ring, chart, 8))
    assert report.passed
    names = [c["clause"] for c in report.clauses]
    assert names == ["holomorphic_extension", "unique_log_free_solution",
                     "log_free_matches_period",
                     "indicial_locus_is_canonical"]


def test_certificate_corpus(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    charts = dg.subdivide_kahler_cone(sys)
    p = period(sys, 8)
    reports = dg.maximal_degeneracy_check(sys, ring,
                                          with_coordinates(sys, charts, p),
                                          p, pairings(sys, ring, charts[0], 8))
    assert len(reports) == len(charts)
    for report in reports:
        assert report.passed, report.as_dict()


def test_certificate_json_shape():
    sys = system(p2_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    chart = dg.subdivide_kahler_cone(sys)[0]
    p = period(sys, 6)
    report, = dg.maximal_degeneracy_check(sys, ring,
                                          with_coordinates(sys, [chart], p),
                                          p, pairings(sys, ring, chart, 6))
    data = report.as_dict()
    assert data["passed"] is True
    assert all({"clause", "ok", "detail"} <= set(c) for c in data["clauses"])


@pytest.mark.parametrize("name", ["p2", "f1", "p1xp1_r1"])
def test_certificate_matches_the_period_up_to_one_scalar(name):
    """The log-free solution is the transported period times one nonzero
    scalar: the period scaled by -3 matches at a third of the scalar, with
    the opposite sign; one term doubled or deleted, first or last in print
    order, or every term deleted, is a mismatch."""
    inst = checks.Instance(INSTANCES[name](), order=6)
    period = inst.period

    def verdict(terms):
        report, = dg.maximal_degeneracy_check(
            inst.sys, inst.ring, inst.chart_coordinates[:1],
            period.replace(terms=terms), inst.pairings)
        clause = report.clauses[2]
        assert clause["clause"] == "log_free_matches_period"
        return clause["ok"], clause["detail"]

    ok, detail = verdict(period.terms)
    assert ok and detail.startswith("global scalar ")
    ratio = Fraction(detail.removeprefix("global scalar "))
    assert verdict({key: -3 * c for key, c in period.terms.items()}) == \
        (True, f"global scalar {xl.fraction_str(ratio / -3)}")
    keys = [key for key, _ in period.sorted_items()]
    assert len(keys) > 2
    mismatch = (False, "coefficient mismatch")
    for key in (keys[0], keys[-1]):
        assert verdict({**period.terms, key: 2 * period.terms[key]}) == \
            mismatch
        assert verdict({k: c for k, c in period.terms.items() if k != key}) \
            == mismatch
    assert verdict({}) == mismatch


# --- cone-splitting helpers (defensive paths) -------------------------------------

def test_triangulate_square_cone():
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    pieces = dg._triangulate_cone(
        toric.ConeDescription(3, xl.extreme_rays(rays, 3)))
    assert len(pieces) == 2
    total = sum(abs(xl.det(piece)) for piece in pieces)
    assert total == 4  # normalized volume of the cone over the diamond


def test_stellar_refinement_of_index_two_cone():
    pieces = dg._stellar_refine([((1, 0), (1, 2))])
    assert sorted(abs(xl.det(p)) for p in pieces) == [1, 1]
    rays = sorted({r for piece in pieces for r in piece})
    assert (1, 1) in rays  # the parallelepiped witness


def test_parallelepiped_witness():
    assert dg._parallelepiped_witness(((1, 0), (1, 2))) == (1, 1)
    assert dg._parallelepiped_witness(((1, 0), (0, 1))) is None


def box_walk_witness(rays):
    """The (2B + 1)^d box walk the Hermite residues replaced, kept verbatim
    as the reference: every point of the box solved against the rays."""
    dim = len(rays)
    bound = sum(max(abs(x) for x in r) for r in rays)
    candidates = []
    for point in product(range(-bound, bound + 1), repeat=dim):
        if all(x == 0 for x in point):
            continue
        coeffs = xl.solve_unique(tuple(zip(*rays)), point)
        if coeffs is None:
            continue
        if all(0 <= c < 1 for c in coeffs):
            candidates.append(point)
    if not candidates:
        return None
    return min(candidates, key=lambda v: (max(abs(x) for x in v), v))


def test_witness_equals_the_box_walk():
    rng = random.Random(2008)
    dets = set()
    for dim, entry, count in ((2, 3, 30), (3, 2, 6), (4, 1, 3)):
        tested = 0
        while tested < count:
            rays = tuple(tuple(rng.randint(-entry, entry) for _ in range(dim))
                         for _ in range(dim))
            if xl.det(rays) == 0:
                continue
            assert dg._parallelepiped_witness(rays) == \
                box_walk_witness(rays), rays
            dets.add((dim, abs(xl.det(rays)) > 1))
            tested += 1
    # every rank met both a lattice basis and a cone that needs a witness
    assert dets == set(product((2, 3, 4), (False, True)))


def test_region_decomposition_fails_without_aborting_check_all(monkeypatch):
    """A region vector with a negative chart exponent fails its own check;
    check-all goes on to the certificate instead of raising."""
    inst = checks.Instance(p1_fan(), order=8)
    inst.period  # built from the true region slab before it is extended
    inst.region_slab = [(2, -1, -1)] + inst.region_slab
    assert checks._check_region_decomposition(inst) == \
        (False, "(2, -1, -1) fails to decompose")
    ids = [check_id for check_id, _ in checks.CHECKS]
    tail = checks.CHECKS[ids.index("degeneracy.region_decomposition"):]
    monkeypatch.setattr(checks, "CHECKS", tail)
    assert [(r["id"], r["ok"]) for r in checks.run_all(inst)] == [
        ("degeneracy.region_decomposition", False),
        ("degeneracy.certificate", True)]


def test_region_decomposition_reads_every_chart():
    """A second chart on the negated cone: the region vectors decompose in
    the first chart only, and the check fails on the second, as does the
    certificate's transport, read off the same coordinates."""
    inst = checks.Instance(p1xp1_fan_r2(), order=8)
    chart = inst.charts[0]
    negated = dg.CanonicalChart(
        tuple(xl.vec_scale(-1, r) for r in chart.cone_rays),
        chart.basis_vectors, chart.signs)
    assert checks._check_region_decomposition(inst)[0]
    inst = checks.Instance(p1xp1_fan_r2(), order=8)
    inst.charts = [chart, negated]
    assert checks._check_region_decomposition(inst) == \
        (False, "(-2, 1, 1, 0, 0, 0) fails to decompose")
    first, second = dg.maximal_degeneracy_check(
        inst.sys, inst.ring, inst.chart_coordinates,
        inst.period, inst.pairings)
    assert first.passed
    assert second.clauses[0] == {
        "clause": "holomorphic_extension", "ok": False,
        "detail": "(-2, 1, 1, 0, 0, 0) needs negative chart exponents (0, -1)"}


# --- several charts ----------------------------------------------------------------

HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
# the 6-ray fan of the seed-0 surfaces benchmark run, in its shape there
SURFACE0_6 = [(2, -1), (1, -1), (-1, 0), (-1, 1), (0, 1), (1, 0)]
# a rank-5 Kahler cone whose pulling triangulation has a piece of |det| 2
SEVEN_RAYS = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0), (0, -1)]

# name -> (fan, number of charts); none has a simplicial Kahler cone
MULTI_CHART = {
    "dp6": (lambda: cyclic_surface(HEXAGON, "dp6"), 2),
    "surface0_6rays_r1": (
        lambda: cyclic_surface(SURFACE0_6, "surface0_6rays_r1"), 2),
    "surface0_6rays_r2": (
        lambda: cyclic_surface(SURFACE0_6, "surface0_6rays_r2",
                               [[2, 3], [0, 1, 4, 5]]), 2),
    "seven_rays": (lambda: cyclic_surface(SEVEN_RAYS, "seven_rays"), 4),
    "square8": (lambda: cyclic_surface(SQUARE8, "square8"), 8),
}


@pytest.mark.parametrize("name", sorted(MULTI_CHART))
def test_multi_chart_instances_pass_check_all(name):
    build, count = MULTI_CHART[name]
    inst = checks.Instance(build(), order=5)
    results = checks.run_all(inst)
    assert len(inst.charts) == count
    assert len(inst.sys.kahler.rays) > inst.sys.kahler.dim
    assert len(results) == len(checks.CHECKS) == 25
    assert [r["id"] for r in results if not r["ok"]] == []


def in_simplicial_cone(rays, v):
    return all(c >= 0 for c in xl.solve_unique(xl.transpose(rays), v))


TILED = dict({name: build for name, (build, _) in MULTI_CHART.items()},
             surface8=INSTANCES["surface8"])


@pytest.mark.parametrize("name", sorted(TILED))
def test_charts_tile_the_kahler_cone(name):
    """Unimodular pieces inside the cone; the ray sum of each piece, an
    interior point of it, lies in no other piece, and seeded interior points
    of the cone each lie in some piece."""
    sys = gkz.build_system(TILED[name]())
    kahler = sys.kahler
    pieces = [chart.cone_rays for chart in dg.subdivide_kahler_cone(sys)]
    assert len(pieces) >= 2
    for piece in pieces:
        assert abs(xl.det(piece)) == 1
        assert all(xl.dot(g, r) >= 0
                   for g in kahler.inequalities for r in piece)
        inner = tuple(map(sum, zip(*piece)))
        assert [p for p in pieces if in_simplicial_cone(p, inner)] == [piece]
    rng = random.Random(name)
    for _ in range(60):
        point = tuple(map(sum, zip(*(xl.vec_scale(rng.randint(1, 6), r)
                                     for r in kahler.rays))))
        assert any(in_simplicial_cone(piece, point) for piece in pieces)


# --- the certificate's null space ----------------------------------------------------

CERTIFIED = dict(
    {name: (build, REFERENCE_ORDERS[name]) for name, build in INSTANCES.items()},
    **{name: (build, 5) for name, (build, _) in MULTI_CHART.items()})


# (offset, chart) pairs chart_coordinates re-keys in one check-all, and in
# one degeneracy command: each region-slab offset once per chart, in the one
# map that both the region check and the certificate read
CHECK_ALL_CHART_COORDINATES = {"square8": 8, "p1p1p1_r1": 35}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_null_space_equals_solve_linear(name, monkeypatch):
    """One call on every chart, reading the one expansion
    (``inst.pairings``, in the first chart's logs), finds the null space
    once and returns, chart by chart, the report of a one-chart call on
    that chart's own expansion, clause for clause and detail for detail;
    either way the null space it finds from the integer form of the log
    rows is ``solve_linear``'s on the Fraction coordinate tuples of the
    chart's own log rows.  In check-all and in the degeneracy command,
    ``chart_coordinates`` re-keys each region-slab offset once per chart."""
    build, order = CERTIFIED[name]
    inst = checks.Instance(build(), order=order)
    found = []
    original = xl.null_basis

    def recorded(rows, ncols):
        found.append(original(rows, ncols))
        return found[-1]

    monkeypatch.setattr(xl, "null_basis", recorded)
    charts = inst.chart_coordinates
    reports = dg.maximal_degeneracy_check(inst.sys, inst.ring, charts,
                                          inst.period, inst.pairings)
    assert len(found) == 1
    assert len(reports) == len(inst.charts)
    for (chart, coords), report in zip(charts, reports):
        chart_pairings = dg.chart_pairings(inst.sys, inst.ring, chart, inst.b)
        log_rows = [row for (_, logdeg), row in chart_pairings.terms.items()
                    if any(logdeg)]
        assert log_rows
        assert report.passed
        assert report.as_dict() == dg.maximal_degeneracy_check(
            inst.sys, inst.ring, [(chart, coords)], inst.period,
            chart_pairings)[0].as_dict()
        assert found[-1] == found[0] == \
            xl.solve_linear(log_rows, (0,) * len(log_rows))[1]
    assert len(found) == 1 + len(inst.charts)
    assert all(len(null) == 1 for null in found)

    if name in CHECK_ALL_CHART_COORDINATES:
        calls = []
        batch = dg.chart_coordinates

        def counted(sys, chart, offsets):
            offsets = list(offsets)
            calls.extend((chart, ell) for ell in offsets)
            return batch(sys, chart, offsets)

        monkeypatch.setattr(dg, "chart_coordinates", counted)
        inst = checks.Instance(build(), order=order)
        assert all(r["ok"] for r in checks.run_all(inst))
        assert len(calls) == CHECK_ALL_CHART_COORDINATES[name]
        assert set(calls) == set(product(inst.charts, inst.region_slab))
        fan = build()
        spec = cli.InputSpec(fan.name, fan.rank, fan.rays, fan.max_cones,
                             fan.blocks, order=order)
        calls.clear()
        assert not cli.run_command("degeneracy", spec).failed
        assert len(calls) == CHECK_ALL_CHART_COORDINATES[name]


def reference_period_in_chart(sys, chart, period):
    """The transport with the per-chart sign product it had before
    ``series.parity_sign``: each basis vector's sign read off the auxiliary
    slots of the fan, flipped once per odd chart exponent."""
    aux = sys.aux_positions()
    signs = [(-1) ** (sum(v[j] for j in aux) % 2) for v in chart.basis_vectors]
    out = {}
    coords = coordinates(sys, chart, period)
    for (ell, _), coeff in period.terms.items():
        m = coords[ell]
        sign = 1
        for s, e in zip(signs, m):
            if s == -1 and e % 2:
                sign = -sign
        out[m, (0,) * len(m)] = sign * coeff
    return signs, out


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_parity_sign_is_the_chart_sign_product(name):
    """On every chart, the one parity (``series.parity_sign``) signs the
    transported period as the chart's sign product did, and gives the
    chart's signs."""
    build, order = CERTIFIED[name]
    inst = checks.Instance(build(), order=order)
    for chart, coords in inst.chart_coordinates:
        signs, expected = reference_period_in_chart(inst.sys, chart,
                                                    inst.period)
        assert list(chart.signs) == signs
        assert dg.period_in_chart(chart, coords, inst.period).terms == \
            expected


@pytest.mark.parametrize("name", sorted(CHECK_ALL_CHART_COORDINATES))
def test_parity_positions_are_found_once_per_call_site(name, monkeypatch):
    """One certificate call finds the auxiliary slots once for the period
    match and once per chart's transport, however many terms the period
    has (35 on p1p1p1_r1)."""
    build, order = CERTIFIED[name]
    inst = checks.Instance(build(), order=order)
    charts = inst.chart_coordinates
    pairings, period = inst.pairings, inst.period
    calls = []
    original = se._aux_positions_from_alpha

    def counted(alpha):
        calls.append(alpha)
        return original(alpha)

    monkeypatch.setattr(se, "_aux_positions_from_alpha", counted)
    first = min(period.terms)
    for terms in (period.terms, {first: period.terms[first]}):
        calls.clear()
        dg.maximal_degeneracy_check(inst.sys, inst.ring, charts,
                                    period.replace(terms=terms), pairings)
        assert len(calls) == 1 + len(charts)
