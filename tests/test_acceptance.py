"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance, rational arithmetic); runtime budgets
are asserted where stated.  Run with ``pytest -s`` to see one line per
criterion.
"""

import time
from fractions import Fraction
from math import factorial

from conftest import CORPUS, divisor_classes, p1_fan
from gkzfrac import checks as ck
from gkzfrac import degeneracy as dg
from gkzfrac import gkz, polytopes as pt, series as se, toric
from gkzfrac import exact_linalg as xl
from gkzfrac import triangulations as tr

ACCEPTANCE_FANS = ("p1", "p2", "p1xp1", "f1")


def _announce(number, text):
    print(f"[criterion {number}] PASS: {text}")


def closed_form_coefficient(k):
    """(4k)! / (16^k (2k)! (k!)^2), the stated elliptic period numbers."""
    return Fraction(factorial(4 * k), 16 ** k * factorial(2 * k)
                    * factorial(k) ** 2)


def test_criterion_1_elliptic_period_coefficients():
    started = time.perf_counter()
    sys = gkz.build_system(p1_fan())
    omega = gkz.default_weight(sys)
    gamma = se.gamma_series(se.normalized_period_series(sys, omega, 8))
    chart = dg.subdivide_kahler_cone(sys)[0]
    z = dg.period_in_chart(chart, dg.chart_coordinates(
        sys, chart, [ell for ell, _ in gamma.terms]), gamma)
    for k in range(5):
        expected = closed_form_coefficient(k)
        assert z.coefficient((k,)) == expected
        ell = sys.from_basis_coords((k,))
        assert se.residue_oracle(sys, ell) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    assert z.coefficient((1,)) == Fraction(3, 4)
    assert z.coefficient((2,)) == Fraction(105, 64)
    _announce(1, "elliptic periods 1, 3/4, 105/64, ... match the closed "
                 f"form and the residue oracle exactly ({elapsed:.3f}s)")


def test_criterion_2_holonomic_rank_identity():
    started = time.perf_counter()
    expected = {"p1": 2, "p2": 3, "p1xp1": 4, "f1": 4}
    for name in ACCEPTANCE_FANS:
        fan = CORPUS[name]()
        sys = gkz.build_system(fan)
        ring = toric.cohomology_ring(fan, sys.collections)
        pc = tr.PointConfiguration.from_system(sys)
        volume = tr.normalized_volume(pc, tr.maximal_triangulation(sys, fan))
        assert volume == len(fan.max_cones) == ring.dim == expected[name]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s"
    _announce(2, "normalized volume = maximal cones = cohomology dimension "
                 f"on all four fans ({elapsed:.3f}s)")


def test_criterion_3_annihilation_suite():
    started = time.perf_counter()
    order = 8
    for name in ACCEPTANCE_FANS:
        fan = CORPUS[name]()
        sys = gkz.build_system(fan)
        ring = toric.cohomology_ring(fan, sys.collections)
        omega = gkz.default_weight(sys)
        gamma = se.gamma_series(
            se.normalized_period_series(sys, omega, order))
        b = se.b_series(sys, ring, omega, order)
        pairings = se.pair_with_dual(
            ring, b, divisor_classes(sys, ring)).components()
        for op in sys.euler_operators():
            assert se.apply_operator(op, gamma).is_zero_on_reliable_region()
            for s in pairings:
                assert se.apply_operator(op, s).is_zero_on_reliable_region()
        for box in sys.box_operators():
            assert se.apply_operator(box, gamma).is_zero_on_reliable_region()
            for s in pairings:
                assert se.apply_operator(box, s).is_zero_on_reliable_region()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.3f}s"
    _announce(3, "all Euler and box operators kill the solution series "
                 f"at order {order} with zero tolerance ({elapsed:.3f}s)")


def test_criterion_4_groebner_correspondence():
    for name in ACCEPTANCE_FANS:
        fan = CORPUS[name]()
        sys = gkz.build_system(fan)
        omega = gkz.default_weight(sys)
        assert tr.minimal_gb_is_primitive_collections(sys, omega)
        ideal = tr.toric_groebner_basis(sys, omega)
        candidates = tr.primitive_collection_binomials(sys, omega)
        assert sorted(ideal.generators) == sorted(candidates)
        sr = set()
        for pc in sys.collections:
            indicator = [0] * sys.nvars
            for i_ray in pc.rays:
                indicator[fan.j_position_of_ray(i_ray)] = 1
            sr.add(tuple(indicator))
        assert set(ideal.leading_exponents()) == sr
    _announce(4, "collection binomials are the reduced basis of the toric "
                 "ideal and lead to the Stanley-Reisner monomials")


def test_criterion_5_maximal_degeneracy_certificates():
    for name in ACCEPTANCE_FANS:
        fan = CORPUS[name]()
        sys = gkz.build_system(fan)
        ring = toric.cohomology_ring(fan, sys.collections)
        charts = dg.subdivide_kahler_cone(sys)
        assert charts, "no chart produced"
        omega = gkz.default_weight(sys)
        gamma = se.gamma_series(se.normalized_period_series(sys, omega, 8))
        b = se.b_series(sys, ring, omega, 8)
        offsets = [ell for ell, _ in gamma.terms]
        reports = dg.maximal_degeneracy_check(
            sys, ring,
            [(chart, dg.chart_coordinates(sys, chart, offsets))
             for chart in charts],
            gamma, dg.chart_pairings(sys, ring, charts[0], b))
        assert len(reports) == len(charts)
        for report in reports:
            assert report.passed, report.as_dict()
        locus = gkz.indicial_ideal_zero_locus(sys)
        alpha = gkz.canonical_alpha(sys)
        assert locus == [alpha]
        for pos in sys.aux_positions():
            assert alpha[pos] == Fraction(-1, 2)
    _announce(5, "exactly one log-free holomorphic solution per chart at "
                 "order 8; indicial locus is the canonical exponent")


def test_criterion_6_mori_cone_vanishing():
    for name in ACCEPTANCE_FANS:
        fan = CORPUS[name]()
        sys = gkz.build_system(fan)
        ring = toric.cohomology_ring(fan, sys.collections)
        samples = ck.mori_vanishing_samples(sys, bound=3, limit=10)
        # rank-one relation lattices admit only three such vectors
        expected_minimum = min(10, 7 ** len(sys.basis) - 4 ** len(sys.basis))
        assert len(samples) >= min(expected_minimum, 3)
        for ell in samples:
            assert se.vanishing_check_outside_mori(sys, ring, ell)
    _announce(6, "product-form coefficients vanish on every sampled vector "
                 "outside the curve cone")


def test_criterion_7_structure_cross_checks():
    for name in ACCEPTANCE_FANS:
        fan = CORPUS[name]()
        sys = gkz.build_system(fan)
        for b in sys.basis:
            assert xl.vec_is_zero(xl.mat_vec(sys.a_ext, b))
        for pc in sys.collections:
            assert xl.vec_is_zero(xl.mat_vec(sys.a_ext, pc.ell_ext))
            assert all(c >= 0 for c in pc.c0)
        tmax = tr.maximal_triangulation(sys, fan)
        aux = set(sys.aux_positions())
        for s in tmax.simplices:
            assert aux <= set(s)
    _announce(7, "stored relations are kernel vectors, auxiliary "
                 "coefficients are nonnegative, auxiliary points sit in "
                 "every maximal simplex")


def test_criterion_8_dual_nef_partition_roundtrip():
    for name in ACCEPTANCE_FANS + ("p1xp1_r1",):
        fan = CORPUS[name]()
        nablas = pt.dual_nef_partition(fan)
        nabla = nablas[0]
        for q in nablas[1:]:
            nabla = pt.minkowski_sum(nabla, q)
        assert pt.is_reflexive(nabla)
        assert pt.polar_dual(pt.polar_dual(nabla)) == nabla
    _announce(8, "Minkowski sums are reflexive and polar duality is an exact "
                 "involution on the corpus")
