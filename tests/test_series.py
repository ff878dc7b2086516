import json
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

from conftest import CORPUS, divisor_classes, p1_fan, p1xp1_fan_r2, p2_fan
from test_ring_table import INSTANCES, REFERENCE_ORDERS, RING_ONLY, scalar_part
from test_triangulations import weights_with_denominators
from gkzfrac import checks, gkz, series as se, toric
from gkzfrac import exact_linalg as xl
from gkzfrac.errors import (InMoriCone, NotInKernel, NotInRegion,
                            TruncationTooLarge, WeightNotAmple)


def sqrt_series_derivative_oracle(k_max):
    """r_k by literal repeated differentiation of (1+w)^(-1/2) at w = 0.

    The derivative of c (1+w)^e is c e (1+w)^(e-1); evaluation at 0 reads c.
    """
    out = []
    c, e = Fraction(1), Fraction(-1, 2)
    fact = 1
    for k in range(k_max + 1):
        out.append(c / fact)
        c, e = c * e, e - 1
        fact *= k + 1
    return out


def binomial_sqrt_coefficients(k_max):
    """Coefficients r_k of the expansion of 1/sqrt(1+w), k = 0..k_max, from
    the integer pairs the period coefficients use."""
    return [Fraction(n, d) for n, d in se._sqrt_coefficients(k_max)]


def system(fan_maker):
    return gkz.build_system(fan_maker())


# --- binomial sqrt coefficients ---------------------------------------------------

def test_r0():
    assert binomial_sqrt_coefficients(0) == [1]


def test_r2_r3():
    rs = binomial_sqrt_coefficients(3)
    assert rs[2] == Fraction(3, 8)
    assert rs[3] == Fraction(-5, 16)


def test_r_against_derivative_oracle():
    assert binomial_sqrt_coefficients(10) == sqrt_series_derivative_oracle(10)


# --- period coefficients -----------------------------------------------------------

def test_C_p1_first():
    sys = system(p1_fan)
    assert se.period_coefficient_C(sys, (-2, 1, 1)) == Fraction(3, 4)


def test_C_zero_vector():
    sys = system(p1_fan)
    assert se.period_coefficient_C(sys, (0, 0, 0)) == 1


def test_C_p1_second():
    sys = system(p1_fan)
    assert se.period_coefficient_C(sys, (-4, 2, 2)) == Fraction(105, 64)


def test_C_not_in_region():
    sys = system(p1_fan)
    with pytest.raises(NotInRegion):
        se.period_coefficient_C(sys, (2, -1, -1))


# --- residue oracle ------------------------------------------------------------------

def test_oracle_p1():
    sys = system(p1_fan)
    assert se.residue_oracle(sys, (-2, 1, 1)) == Fraction(3, 4)


def test_oracle_odd_degree_vanishes():
    sys = system(p1_fan)
    # not a relation: the torus exponent cannot cancel
    assert se.residue_oracle(sys, (-1, 1, 0)) == 0


def test_oracle_p2():
    sys = system(p2_fan)
    assert se.residue_oracle(sys, (-3, 1, 1, 1)) == Fraction(15, 8)
    assert se.period_coefficient_C(sys, (-3, 1, 1, 1)) == Fraction(15, 8)


def unpruned_residue_oracle(sys, ell):
    """The residue expansion over every x-monomial of each block power.

    Kept as the reference for ``se.residue_oracle``, which never forms a
    monomial that cannot divide x^ell.
    """
    ell = tuple(ell)
    ks, targets = se._region_split(sys, ell)
    cap = se.max_terms()
    r = binomial_sqrt_coefficients(max(ks, default=0))
    block_terms = []
    for i, k_i in enumerate(ks):
        n_i = len(sys.fan.blocks[i])
        terms = {((0,) * n_i, (0,) * sys.n): Fraction(1)}
        for _ in range(k_i):
            new = {}
            for (xdeg, texp), c in terms.items():
                for j in range(n_i):
                    rho = sys.fan.rays[sys.fan.blocks[i][j]]
                    nx = tuple(e + (1 if jj == j else 0)
                               for jj, e in enumerate(xdeg))
                    nt = tuple(a + b for a, b in zip(texp, rho))
                    key = (nx, nt)
                    new[key] = new.get(key, Fraction(0)) - c
            terms = new
            if len(terms) > cap:
                raise TruncationTooLarge(
                    f"residue expansion grew past {cap} monomials")
        block_terms.append(terms)
    total = Fraction(0)
    matches = [[(texp, c) for (xdeg, texp), c in terms.items()
                if xdeg == target]
               for terms, target in zip(block_terms, targets)]

    def combine(idx, texp, coeff):
        nonlocal total
        if idx == len(matches):
            if all(t == 0 for t in texp):
                total += coeff
            return
        for t, c in matches[idx]:
            combine(idx + 1, tuple(a + b for a, b in zip(texp, t)), coeff * c)

    combine(0, (0,) * sys.n, Fraction(1))
    for k_i in ks:
        total *= r[k_i]
    return total


def assert_oracle_matches(fan, order):
    sys = gkz.build_system(fan)
    slab = se.region_slab(sys, gkz.default_weight(sys), order)
    assert slab
    for ell in slab:
        value = se.residue_oracle(sys, ell)
        assert value == unpruned_residue_oracle(sys, ell)
        assert value == se.period_coefficient_C(sys, ell)


def test_oracle_equals_C_on_slab(corpus_fan):
    assert_oracle_matches(corpus_fan, 8)


@pytest.mark.parametrize("name,order", [("p1p1p1_r1", 4), ("p1p1p1_r3", 4),
                                        ("surface5", 5), ("surface8", 5)])
def test_oracle_equals_C_beyond_corpus(name, order):
    assert_oracle_matches(INSTANCES[name](), order)


def off_degree_vectors(sys):
    """Region vectors of order 3 moved off degree: a block's auxiliary
    exponent moved by one, or the ray exponents doubled, so k_i differs from
    the x-degree of the block's target and the coefficient is 0.  Doubled
    rays keep a torus-constant monomial of x-degree k_i below the target,
    which only the final x-degree test drops."""
    aux = sys.aux_positions()
    out = []
    for ell in se.region_slab(sys, gkz.default_weight(sys), 3):
        out.extend(tuple(e + step * (j == pos) for j, e in enumerate(ell))
                   for pos in aux for step in (-1, 1) if ell[pos] + step <= 0)
        if any(ell[pos] for pos in aux):
            out.append(tuple(e if j in aux else 2 * e
                             for j, e in enumerate(ell)))
    return out


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_oracle_off_degree_vanishes(name):
    sys = gkz.build_system(INSTANCES[name]())
    moved = off_degree_vectors(sys)
    assert moved
    for vec in moved:
        assert se.residue_oracle(sys, vec) == 0
        assert unpruned_residue_oracle(sys, vec) == 0


def keyed_residue_oracle(sys, ell):
    """The residue oracle keyed by (x-degree, torus exponent) with Fraction
    r_k, kept verbatim as the reference for ``se.residue_oracle``, which
    keys by the x-degree alone and works in integers."""
    ell = tuple(ell)
    ks, targets = se._region_split(sys, ell)
    cap = se.max_terms()
    r = binomial_sqrt_coefficients(max(ks, default=0))
    matches = []
    for i, (k_i, target) in enumerate(zip(ks, targets)):
        rays = [sys.fan.rays[b] for b in sys.fan.blocks[i]]
        terms = {((0,) * len(rays), (0,) * sys.n): 1}
        for _ in range(k_i):
            new = {}
            for (xdeg, texp), c in terms.items():
                for j, rho in enumerate(rays):
                    if xdeg[j] == target[j]:
                        continue
                    nx = xdeg[:j] + (xdeg[j] + 1,) + xdeg[j + 1:]
                    nt = tuple(a + b for a, b in zip(texp, rho))
                    key = (nx, nt)
                    new[key] = new.get(key, 0) - c
            terms = new
            if len(terms) > cap:
                raise TruncationTooLarge(
                    f"residue expansion grew past {cap} monomials "
                    f"(cap GKZFRAC_MAX_TERMS)")
        matches.append([(texp, c) for (xdeg, texp), c in terms.items()
                        if xdeg == target])
    total = Fraction(0)

    def combine(idx, texp, coeff):
        nonlocal total
        if idx == len(matches):
            if all(t == 0 for t in texp):
                total += coeff
            return
        for t, c in matches[idx]:
            combine(idx + 1, tuple(a + b for a, b in zip(texp, t)), coeff * c)

    combine(0, (0,) * sys.n, Fraction(1))
    for k_i in ks:
        total *= r[k_i]
    return total


def fraction_period_coefficient_C(sys, ell):
    """``se.period_coefficient_C`` in Fraction arithmetic, kept verbatim."""
    ell = tuple(ell)
    if not sys.in_kernel(ell):
        raise NotInKernel(f"{ell} is not a relation of the configuration")
    ks, rays = se._region_split(sys, ell)
    r = binomial_sqrt_coefficients(max(ks, default=0))
    out = Fraction(1)
    for k_i, block in zip(ks, rays):
        out *= r[k_i] * Fraction(-1) ** k_i * factorial(k_i)
        for e in block:
            out /= factorial(e)
    return out


def fraction_gamma_coefficient(sys, ell):
    """The Gamma-series coefficient in rising-product form, in Fraction
    arithmetic: the reference for ``se.gamma_series``, the parity-signed
    period."""
    ell = tuple(ell)
    ks, rays = se._region_split(sys, ell)
    out = Fraction(1)
    for k_i, block in zip(ks, rays):
        for k in range(k_i):
            out *= Fraction(1, 2) + k
        for e in block:
            out /= factorial(e)
    sign = (-1) ** (sum(ks) % 2)
    return sign * out


def outcome(fn, sys, ell):
    """The value with its type, or the type of the error raised."""
    try:
        value = fn(sys, ell)
    except NotInKernel as exc:
        return type(exc)
    return value, type(value)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_integer_coefficients_equal_the_fraction_forms(name):
    """The oracle and C give the values and value types of their Fraction
    forms on the region slab and off degree, and the Gamma series (the
    parity-signed period) those of the rising-product form on the slab."""
    sys = gkz.build_system(INSTANCES[name]())
    omega, order = gkz.default_weight(sys), REFERENCE_ORDERS[name]
    slab = se.region_slab(sys, omega, order)
    pairs = [(se.residue_oracle, keyed_residue_oracle),
             (se.period_coefficient_C, fraction_period_coefficient_C)]
    nonzero = 0
    for ell in slab + off_degree_vectors(sys):
        for fn, reference in pairs:
            got = outcome(fn, sys, ell)
            assert got == outcome(reference, sys, ell), (fn.__name__, ell)
            nonzero += got not in (NotInKernel, (0, Fraction))
    gamma = se.gamma_series(se.normalized_period_series(sys, omega, order))
    no_logs = (0,) * sys.nvars
    assert list(gamma.terms) == [(ell, no_logs) for ell in slab]
    for ell in slab:
        got = gamma.coefficient(ell)
        assert (got, type(got)) == outcome(fraction_gamma_coefficient,
                                           sys, ell), ell
        nonzero += got != 0
    assert nonzero >= 3 * len(slab)


def double_cover_of_projective_space(n):
    """P^n with each of its n + 1 rays its own block: the double cover of
    P^n branched along 2n + 2 hyperplanes (the paper's running example,
    ``p3_r4``, for n = 3)."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    cones = [list(c) for c in combinations(range(n + 1), n)]
    return toric.make_fan(n, rays, cones, [[i] for i in range(n + 1)],
                          name=f"p{n}_r{n + 1}")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_double_covers_of_projective_space_have_the_closed_form(n):
    """The period is sum_k ((1/2)_k / k!)^(n+1) z^k over the multiples k of
    the one collection's relation, and gamma is that period times
    (-1)^(k(n+1)): the Legendre curve, the double plane over six lines and
    the running example."""
    sys = gkz.build_system(double_cover_of_projective_space(n))
    period = se.normalized_period_series(sys, gkz.default_weight(sys), 4)
    [collection] = sys.collections
    no_logs = (0,) * sys.nvars

    def key(k):
        return tuple(k * x for x in collection.ell_ext), no_logs

    def closed_form(k):
        rising = Fraction(1)
        for i in range(k):
            rising *= Fraction(1, 2) + i
        return (rising / factorial(k)) ** (n + 1)

    ks = range(len(period.terms))
    assert len(ks) >= 4
    assert period.terms == {key(k): closed_form(k) for k in ks}
    assert se.gamma_series(period).terms == {
        key(k): (-1) ** (k * (n + 1)) * closed_form(k) for k in ks}
    if n == 2:
        assert [period.terms[key(k)] for k in range(3)] == [
            1, Fraction(1, 8), Fraction(27, 512)]
        assert [se.gamma_series(period).terms[key(k)] for k in range(4)] == [
            1, Fraction(-1, 8), Fraction(27, 512), Fraction(-125, 4096)]


def eps_product(a, b):
    """The product of two power series in eps, truncated alike."""
    return [sum(a[i] * b[t - i] for i in range(t + 1)) for t in range(len(a))]


def frobenius_basis(n, ks, sign):
    """The eps^j coefficients, j = 0..n, of
    sum_k ((1/2 + eps)_k / (1 + eps)_k)^(n+1) w^(k + eps), w = sign * z,
    as rows over the columns (k, i), k in ``ks``, i = 0..n: the coefficient
    of z^k (log w)^i, with w^eps = sum_i eps^i (log w)^i / i! and log w
    kept formal.  Exact power series in eps truncated at eps^(n+1); no
    Gamma product and no ring."""
    one = [Fraction(1)] + [Fraction(0)] * n
    ratio, coefficients = one, []  # coefficients[k] = ratio_k^(n+1)
    for k in range(max(ks) + 1):
        power = one
        for _ in range(n + 1):
            power = eps_product(power, ratio)
        coefficients.append(power)
        # times (1/2 + k + eps) / (1 + k + eps), 1/(c + eps) expanded in eps
        numerator = [Fraction(1, 2) + k, Fraction(1)] + [0] * (n - 1)
        inverse = [Fraction(-1) ** t / Fraction(1 + k) ** (t + 1)
                   for t in range(n + 1)]
        ratio = eps_product(ratio, eps_product(numerator, inverse))
    return [[sign ** k * coefficients[k][j - i] / factorial(i) if i <= j
             else 0 for k in ks for i in range(n + 1)]
            for j in range(n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frobenius_basis_spans_the_pairings(n):
    """The solutions at the maximal degeneracy point of the double cover of
    P^n are the Frobenius basis of theta^(n+1) - w (theta + 1/2)^(n+1) in
    w = (-1)^(n+1) z, z = x^ell for the one collection's relation ell: the
    pairings, keyed by (k, log degree) with x^(k ell) = z^k and their one
    log log z, must span the same n + 1 dimensional space as those
    eps-coefficients.  Log w and log z differ by a constant, a shift the
    solution space is closed under (its monodromy is unipotent), so log w
    stands for log z.  The space is basis-free: a rank test on the rows."""
    inst = checks.Instance(double_cover_of_projective_space(n), order=6)
    [collection] = inst.sys.collections
    v = collection.ell_ext
    pairings = inst.pairings
    assert pairings.log_map == (v,)  # the one log is log x^ell = log z
    pos = next(i for i, x in enumerate(v) if x)
    multiple = {ell: ell[pos] // v[pos] for ell, _ in pairings.terms}
    assert all(ell == tuple(k * x for x in v) for ell, k in multiple.items())
    ks = sorted(set(multiple.values()))
    assert ks == list(range(len(ks))) and len(ks) >= 4
    assert all(logdeg[0] <= n for _, logdeg in pairings.terms)
    zero = (0,) * inst.ring.dim
    solutions = [[pairings.terms.get((tuple(k * x for x in v), (i,)),
                                     zero)[h]
                  for k in ks for i in range(n + 1)]
                 for h in range(inst.ring.dim)]
    frobenius = frobenius_basis(n, ks, (-1) ** (n + 1))
    assert inst.ring.dim == n + 1
    assert xl.rank(frobenius) == xl.rank(solutions) == n + 1
    assert xl.rank(frobenius + solutions) == n + 1


def test_running_example_passes_check_all():
    """The double cover of P^3 branched along eight planes passes every
    registered check at order 4."""
    inst = checks.Instance(RING_ONLY["p3_r4"](), order=4)
    results = checks.run_all(inst)
    assert len(results) == len(checks.CHECKS) == 25
    assert [r["id"] for r in results if not r["ok"]] == []


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_gamma_is_the_unit_pairing(name):
    """Gamma is component 0 of the solution pairings, term for term, once
    each pairing key's log part (in the first chart's logs) is widened to
    the ``nvars`` slot logs: the pairing with the unit is log-free."""
    inst = checks.Instance(INSTANCES[name](), order=REFERENCE_ORDERS[name])
    unit = inst.pairings.components()[0]
    no_logs = (0,) * inst.sys.nvars
    assert not any(any(logdeg) for _, logdeg in unit.terms)
    assert inst.gamma.terms == {(ell, no_logs): c
                                for (ell, _), c in unit.terms.items()}
    assert len(inst.gamma.terms) == len(inst.region_slab)


@pytest.mark.parametrize("name", ["p1xp1_r1", "p1p1p1_r3"])
def test_oracle_cap_trips_where_the_keyed_oracle_trips(name, monkeypatch):
    """Keyed by x-degree alone, the expansion holds as many monomials at
    every step as the (x-degree, torus exponent) one, so each cap raises on
    the same vectors."""
    sys = gkz.build_system(INSTANCES[name]())
    slab = se.region_slab(sys, gkz.default_weight(sys), 6)
    tripped = set()
    for cap in range(1, 13):
        monkeypatch.setenv("GKZFRAC_MAX_TERMS", str(cap))
        for ell in slab:
            outcomes = []
            for oracle in (se.residue_oracle, keyed_residue_oracle):
                try:
                    outcomes.append(oracle(sys, ell))
                except TruncationTooLarge:
                    outcomes.append(TruncationTooLarge)
            assert outcomes[0] == outcomes[1], (cap, ell)
            tripped.add(outcomes[0] is TruncationTooLarge)
    assert tripped == {True, False}


# --- weights ---------------------------------------------------------------------------

def test_default_weight_is_ample(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    omega = gkz.default_weight(sys)
    assert gkz.is_ample(sys, omega)


def test_non_ample_weight_rejected():
    sys = system(p1_fan)
    with pytest.raises(WeightNotAmple):
        se.normalized_period_series(sys, (0, 0, 0), 4)


def fraction_sorted_items(s):
    """``LogSeries.sorted_items`` with Fraction weight degrees, the
    reference for the integer ones."""
    return sorted(s.terms.items(), key=lambda kv: (
        xl.dot(s.weight, kv[0][0]), kv[0][0], kv[0][1]))


def fraction_is_reliable(s, ell):
    """``LogSeries._reliable`` with Fraction weight degrees."""
    return all(xl.dot(s.weight, xl.vec_add(ell, shift)) <= s.order
               for shift in s.shifts)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_integer_weight_degrees_equal_the_fraction_weight(name):
    """Slabs, print order and the reliable region come out the same with
    the weight scaled to integers, also for weights and orders with
    denominators."""
    sys = gkz.build_system(INSTANCES[name]())
    outcomes = set()
    for omega in weights_with_denominators(sys):
        weight = gkz.check_weight(sys, omega)
        for order in (2, Fraction(5, 2)):
            for slab in (se.region_slab(sys, weight, order),
                         se.mori_slab(sys, weight, order)):
                assert slab == sorted(slab,
                                      key=lambda e: (xl.dot(weight, e), e))
            period = se.normalized_period_series(sys, weight, order)
            gamma = se.gamma_series(period)
            for s in [period] + [se.apply_operator(op, gamma)
                                 for op in sys.box_operators()]:
                assert s.sorted_items() == fraction_sorted_items(s)
                is_reliable = s._reliable()
                for ell in {ell for ell, _ in s.terms} | {
                        ell for ell, _ in period.terms}:
                    reliable = is_reliable(ell)
                    assert reliable == fraction_is_reliable(s, ell), ell
                    outcomes.add(reliable)
    assert outcomes == {True, False}


# --- gamma series ------------------------------------------------------------------------

def gamma_series(sys, order):
    return se.gamma_series(
        se.normalized_period_series(sys, gkz.default_weight(sys), order))


def test_gamma_p1_coefficients():
    s = gamma_series(system(p1_fan), 4)
    zero = (0, 0, 0)
    assert s.coefficient(zero) == 1
    assert s.coefficient((-2, 1, 1)) == Fraction(3, 4)
    assert s.coefficient((-4, 2, 2)) == Fraction(105, 64)


def test_gamma_p2_first_term():
    s = gamma_series(system(p2_fan), 3)
    assert s.coefficient((-3, 1, 1, 1)) == Fraction(-15, 8)


def test_gamma_sign_is_phi_twist(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    aux = sys.aux_positions()
    gamma = gamma_series(sys, 6)
    assert gamma.terms
    for (ell, _), coeff in gamma.terms.items():
        sign = (-1) ** (sum(ell[j] for j in aux) % 2)
        assert coeff == fraction_gamma_coefficient(sys, ell) == \
            sign * se.period_coefficient_C(sys, ell)


# --- period series --------------------------------------------------------------------------

def test_period_series_p1():
    sys = system(p1_fan)
    omega = gkz.default_weight(sys)
    s = se.normalized_period_series(sys, omega, 8)
    assert s.coefficient((0, 0, 0)) == 1
    assert s.coefficient((-2, 1, 1)) == Fraction(3, 4)
    assert s.coefficient((-4, 2, 2)) == Fraction(105, 64)
    for (ell, _), coeff in s.terms.items():
        assert coeff == se.residue_oracle(sys, ell)


def test_period_series_order_zero():
    sys = system(p1_fan)
    s = se.normalized_period_series(sys, gkz.default_weight(sys), 0)
    assert list(s.terms) == [((0, 0, 0), (0, 0, 0))]
    assert s.coefficient((0, 0, 0)) == 1


def test_period_series_p1xp1_product_structure():
    sys = system(p1xp1_fan_r2)
    omega = gkz.default_weight(sys)
    s = se.normalized_period_series(sys, omega, 4)
    ell = (-2, 1, 1, -2, 1, 1)
    assert s.coefficient(ell) == Fraction(9, 16)
    assert s.coefficient(ell) == se.residue_oracle(sys, ell)


# --- cohomology-valued series ------------------------------------------------------------------

def test_o_class_unit_at_zero():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    cls = se.o_class(sys, ring, (0, 0, 0))
    assert cls == ring.one()


def test_o_class_p1_scalar_part():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    cls = se.o_class(sys, ring, (-2, 1, 1))
    assert scalar_part(cls) == Fraction(3, 4)


def test_o_class_p2_scalar_part():
    sys = system(p2_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    cls = se.o_class(sys, ring, (-3, 1, 1, 1))
    assert scalar_part(cls) == Fraction(-15, 8)


def test_o_scalar_equals_gamma_coefficient(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    omega = gkz.default_weight(sys)
    for ell in se.region_slab(sys, omega, 5):
        assert scalar_part(se.o_class(sys, ring, ell)) == \
            fraction_gamma_coefficient(sys, ell)


def test_b_series_unit_term():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    s = se.b_series(sys, ring, gkz.default_weight(sys), 4)
    zero = (0, 0, 0)
    assert s.coefficient(zero, zero) == ring.one()
    # log-linear slot carries the divisor class of that slot
    d11 = ring.divisor_class(0, 1)
    pairings = se.pair_with_dual(
        ring, s, divisor_classes(sys, ring)).components()
    assert tuple(p.coefficient(zero, (0, 1, 0)) for p in pairings) == \
        d11.coords
    assert pairings[0].coefficient(zero, zero) == 1


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_b_series_keeps_only_the_product_classes(name):
    # x^D stays unexpanded: one log-free term per nonzero O_ell of the slab
    inst = checks.Instance(INSTANCES[name](), 4)
    no_logs = (0,) * inst.sys.nvars
    expected = {}
    for ell in se.mori_slab(inst.sys, inst.omega, 4):
        cls = se.o_class(inst.sys, inst.ring, ell)
        if not cls.is_zero():
            expected[(ell, no_logs)] = cls
    assert inst.b.terms == expected


def test_pairing_with_unit_is_log_free(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    s = se.b_series(sys, ring, gkz.default_weight(sys), 5)
    unit_dual = se.pair_with_dual(
        ring, s, divisor_classes(sys, ring)).components()[0]
    assert not any(any(logdeg) for _, logdeg in unit_dual.terms)
    # and it reproduces the gamma series coefficients
    for (ell, logdeg), coeff in unit_dual.terms.items():
        if all(m == 0 for m in logdeg):
            assert coeff == fraction_gamma_coefficient(sys, ell)


def test_pairing_with_point_dual_p1():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    s = se.b_series(sys, ring, gkz.default_weight(sys), 6)
    pairings = se.pair_with_dual(
        ring, s, divisor_classes(sys, ring)).components()
    top, unit = pairings[-1], pairings[0]
    # log-linear parts in the two ray slots match the unit pairing exactly,
    # the auxiliary slot carries factor -2
    for (ell, _), coeff in unit.terms.items():
        assert top.coefficient(ell, (0, 1, 0)) == coeff
        assert top.coefficient(ell, (0, 0, 1)) == coeff
        assert top.coefficient(ell, (1, 0, 0)) == -2 * coeff


# --- operators ---------------------------------------------------------------------------------

def test_euler_kills_single_term():
    sys = system(p1_fan)
    omega = gkz.default_weight(sys)
    s = se.LogSeries(alpha=gkz.canonical_alpha(sys), weight=tuple(
        Fraction(x) for x in omega), order=4)
    s.add_term((-2, 1, 1), (0, 0, 0), Fraction(5))
    for op in sys.euler_operators():
        assert apply_is_zero(op, s)


def apply_is_zero(op, s):
    return se.apply_operator(op, s).is_zero_on_reliable_region()


def test_box_kills_period_series_p1():
    sys = system(p1_fan)
    box = sys.box_operators()[0]
    assert apply_is_zero(box, gamma_series(sys, 8))


def test_operator_on_zero_series():
    sys = system(p1_fan)
    s = se.LogSeries(alpha=gkz.canonical_alpha(sys),
                     weight=tuple(Fraction(x) for x in gkz.default_weight(sys)),
                     order=4)
    for op in sys.euler_operators() + sys.box_operators():
        assert apply_is_zero(op, s)


def test_annihilation_suite(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    omega = gkz.default_weight(sys)
    order = 8
    period = se.normalized_period_series(sys, omega, order)
    gamma = se.gamma_series(period)
    b = se.b_series(sys, ring, omega, order)
    pairings = se.pair_with_dual(
        ring, b, divisor_classes(sys, ring)).components()
    for op in sys.euler_operators():
        assert apply_is_zero(op, gamma)
        assert apply_is_zero(op, period)
        for pairing in pairings:
            assert apply_is_zero(op, pairing)
    for box in sys.box_operators():
        assert apply_is_zero(box, gamma)
        for pairing in pairings:
            assert apply_is_zero(box, pairing)


# --- support and vanishing -----------------------------------------------------------------------

def test_vanishing_p2():
    sys = system(p2_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    assert se.vanishing_check_outside_mori(sys, ring, (3, -1, -1, -1))


def test_vanishing_p1():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    assert se.vanishing_check_outside_mori(sys, ring, (2, -1, -1))


def test_vanishing_p1xp1_mixed():
    sys = system(p1xp1_fan_r2)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    ell = tuple(a - b for a, b in zip((-2, 1, 1, 0, 0, 0),
                                      (0, 0, 0, -2, 1, 1)))
    assert se.vanishing_check_outside_mori(sys, ring, ell)


def test_vanishing_rejects_mori_vector():
    sys = system(p1_fan)
    ring = toric.cohomology_ring(sys.fan, sys.collections)
    with pytest.raises(InMoriCone):
        se.vanishing_check_outside_mori(sys, ring, (-2, 1, 1))


def test_b_series_support_inside_mori(corpus_fan):
    """Coefficients over a whole lattice slab vanish off the curve cone."""
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    k = len(sys.basis)
    for coords in xl.lattice_points(
            [((0,) * k, 0)] if k == 0 else
            [(tuple(1 if i == j else 0 for i in range(k)), 2) for j in range(k)]
            + [(tuple(-1 if i == j else 0 for i in range(k)), 2)
               for j in range(k)], k):
        ell = sys.from_basis_coords(coords)
        if not se.in_mori_cone(sys, ell):
            assert se.o_class(sys, ring, ell).is_zero()


def sorted_mori_vanishing_samples(sys, bound, limit):
    """The sample walk the shell walk replaced, kept as the reference: sort
    every coefficient vector of the box by (L1 norm, vector)."""
    k = len(sys.basis)
    combos = sorted(product(range(-bound, bound + 1), repeat=k),
                    key=lambda c: (sum(abs(x) for x in c), c))
    out = []
    for c in combos:
        if all(x == 0 for x in c) or se.coords_in_mori_cone(sys, c):
            continue
        out.append(sys.from_basis_coords(c))
        if len(out) == limit:
            break
    return out


HEPTAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def test_shell_walk_samples_equal_the_sorted_box():
    fans = [p2_fan, INSTANCES["f1"], INSTANCES["p1p1p1_r1"],
            INSTANCES["surface8"],
            lambda: toric.make_fan(2, HEPTAGON,
                                   [[i, (i + 1) % 7] for i in range(7)],
                                   [list(range(7))], name="heptagon")]
    for k, fan in enumerate(fans, start=1):
        sys = system(fan)
        assert len(sys.basis) == k
        for bound in (1, 2, 3):
            # the default limit, and one past the box: the whole walk
            for limit in (10, (2 * bound + 1) ** k):
                samples = checks.mori_vanishing_samples(sys, bound, limit)
                assert samples == sorted_mori_vanishing_samples(
                    sys, bound, limit), (k, bound, limit)
                assert samples


# --- linear independence of the pairings ----------------------------------------------------------

def test_pairings_linearly_independent(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    b = se.b_series(sys, ring, gkz.default_weight(sys), 6)
    pairings = se.pair_with_dual(
        ring, b, divisor_classes(sys, ring)).components()
    keys = sorted({key for s in pairings for key in s.terms})
    matrix = [tuple(s.terms.get(key, Fraction(0)) for key in keys)
              for s in pairings]
    assert xl.rank(matrix) == ring.dim == len(corpus_fan.max_cones)


# --- serialization ---------------------------------------------------------------------------------

def test_series_json_roundtrip():
    sys = system(p1_fan)
    s = se.normalized_period_series(sys, gkz.default_weight(sys), 6)
    blob = json.dumps(se.series_to_dict(s), sort_keys=True)
    data = json.loads(blob)
    restored = {(tuple(t["l"]), tuple(t["logdeg"])): Fraction(t["coeff"])
                for t in data["terms"]}
    assert restored == s.terms
    assert tuple(Fraction(a) for a in data["alpha"]) == s.alpha
    assert "105/64" in blob


def test_fraction_str():
    assert xl.fraction_str(Fraction(105, 64)) == "105/64"
    assert xl.fraction_str(Fraction(3)) == "3"
