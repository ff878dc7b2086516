from fractions import Fraction

import pytest

from conftest import p1_fan, p1xp1_fan_r2, p2_fan
from test_exact_linalg import ENGINE_INSTANCES
from test_ring_table import INSTANCES
from gkzfrac import checks
from gkzfrac import degeneracy as dg
from gkzfrac import gkz, series as se, toric
from gkzfrac import exact_linalg as xl
from gkzfrac.errors import NegativeExponent, SubdivisionFailed


def system(fan_maker):
    return gkz.build_system(fan_maker())


def period(sys, order):
    return se.normalized_period_series(sys, gkz.default_weight(sys), order)


def b_series(sys, ring, order):
    return se.b_series(sys, ring, gkz.default_weight(sys), order)


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
    z = dg.period_in_chart(sys, chart, period)
    assert z.coefficient((0,)) == 1
    assert z.coefficient((1,)) == Fraction(3, 4)
    assert z.coefficient((2,)) == Fraction(105, 64)
    assert z.coefficient((3,)) == Fraction(1155, 256)
    assert z.coefficient((4,)) == Fraction(225225, 16384)


def test_period_in_chart_p2_signs():
    sys = system(p2_fan)
    chart = dg.subdivide_kahler_cone(sys)[0]
    period = se.normalized_period_series(sys, gkz.default_weight(sys), 6)
    z = dg.period_in_chart(sys, chart, period)
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
    z = dg.period_in_chart(sys, chart, s)
    assert z.terms == {((0,), (0,)): Fraction(1)}


def test_period_in_chart_negative_exponent():
    sys = system(p1_fan)
    chart = dg.subdivide_kahler_cone(sys)[0]
    s = se.LogSeries(alpha=gkz.canonical_alpha(sys),
                     weight=tuple(Fraction(x) for x in gkz.default_weight(sys)),
                     order=4)
    s.add_term((2, -1, -1), (0, 0, 0), Fraction(1))
    with pytest.raises(NegativeExponent):
        dg.period_in_chart(sys, chart, s)


def test_region_decomposes_in_chart(corpus_fan):
    """Every summation-region vector has nonnegative chart coordinates."""
    sys = gkz.build_system(corpus_fan)
    chart = dg.subdivide_kahler_cone(sys)[0]
    omega = gkz.default_weight(sys)
    for ell in se.region_slab(sys, omega, 8):
        m = dg.chart_coordinates(sys, chart, ell)
        assert all(x >= 0 for x in m)


# --- chart pairings ------------------------------------------------------------------------

def test_chart_pairings_unit_matches_period_p1():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    chart = dg.subdivide_kahler_cone(sys)[0]
    omega = gkz.default_weight(sys)
    pairings = dg.chart_pairings(sys, ring, chart,
                                 b_series(sys, ring, 6)).components()
    period = dg.period_in_chart(
        sys, chart, se.normalized_period_series(sys, omega, 6))
    unit = pairings[0]
    assert unit.is_log_free()
    assert unit.terms == period.terms


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
    expand it in the chart log part, keyed by the chart coordinates."""
    log_part = se.log_part(ring, dg._dual_divisor_classes(sys, ring, chart),
                           sys.n)
    outputs = [{} for _ in range(ring.dim)]
    for ell in se.mori_slab(sys, omega, order):
        base = se.o_class(sys, ring, ell)
        if base.is_zero():
            continue
        m = dg.chart_coordinates(sys, chart, ell)
        for logdeg, cls in log_part:
            total = base * cls
            for h in range(ring.dim):
                if total.coords[h]:
                    outputs[h][(m, logdeg)] = total.coords[h]
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
    without_charts, compared = [], 0
    for name, build in sorted(ENGINE_INSTANCES.items()):
        fan = build()
        sys = gkz.build_system(fan)
        try:
            charts = dg.subdivide_kahler_cone(sys)
        except SubdivisionFailed:
            without_charts.append(name)
            continue
        ring = toric.cohomology_ring(fan, sys.collections)
        for chart in charts:
            assert dg._dual_divisor_classes(sys, ring, chart) == \
                reference_dual_divisor_classes(sys, ring, chart), name
            compared += 1
    assert without_charts == ["surface8"]
    assert compared == 17


# --- the certificate ---------------------------------------------------------------------------

def test_certificate_p1():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    chart = dg.subdivide_kahler_cone(sys)[0]
    report = dg.maximal_degeneracy_check(sys, ring, chart, period(sys, 8),
                                         b_series(sys, ring, 8))
    assert report.passed
    names = [c["clause"] for c in report.clauses]
    assert names == ["holomorphic_extension", "unique_log_free_solution",
                     "log_free_matches_period",
                     "indicial_locus_is_canonical"]


def test_certificate_corpus(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    b = b_series(sys, ring, 8)
    for chart in dg.subdivide_kahler_cone(sys):
        report = dg.maximal_degeneracy_check(sys, ring, chart, period(sys, 8),
                                             b)
        assert report.passed, report.as_dict()


def test_certificate_json_shape():
    sys = system(p2_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    chart = dg.subdivide_kahler_cone(sys)[0]
    report = dg.maximal_degeneracy_check(sys, ring, chart, period(sys, 6),
                                         b_series(sys, ring, 6))
    data = report.as_dict()
    assert data["passed"] is True
    assert all({"clause", "ok", "detail"} <= set(c) for c in data["clauses"])


# --- cone-splitting helpers (defensive paths) -------------------------------------

def test_triangulate_square_cone():
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    pieces = dg._triangulate_cone(rays, 3)
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


def test_region_decomposition_fails_without_aborting_check_all(monkeypatch):
    """A region vector with a negative chart exponent fails its own check;
    check-all goes on to the certificate instead of raising."""
    inst = checks.Instance(p1_fan(), order=8)
    inst.period  # built from the true region slab before it is replaced
    inst.region_slab = [(2, -1, -1)]
    assert checks._check_region_decomposition(inst) == \
        (False, "(2, -1, -1) fails to decompose")
    ids = [check_id for check_id, _ in checks.CHECKS]
    tail = checks.CHECKS[ids.index("degeneracy.region_decomposition"):]
    monkeypatch.setattr(checks, "CHECKS", tail)
    assert [(r["id"], r["ok"]) for r in checks.run_all(inst)] == [
        ("degeneracy.region_decomposition", False),
        ("degeneracy.certificate", True)]
