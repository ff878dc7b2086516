"""Box operators on integer numerators, against the derivative chain.

``apply_operator`` applies a box operator in one integer pass per term and
returns only the reliable region: the outputs both of whose sources lie
inside the truncation order.  The reference below is the route it replaced,
kept verbatim: the formal derivative iterated slot by slot, then the
difference of the two monomials' results.  Restricted to its reliable
region, the reference must give the same terms, for the canonical exponent
and for a wrong one.

The annihilation check is only as strong as the positions it tests, so every
(box, target) pair it forms must reach at least one reliable position.  The
smallest counts are 9 on p1 and p2, 35 on both P1^3 partitions and 3 on the
6-ray surface.

The check applies each operator twice, to gamma (the period signed by the
quotient parity, so no operator carries a sign) and to the stacked
pairings; it must give the (ok, detail) of the per-series loop it replaced,
and a stacked pass must give, component by component, the terms of the
scalar passes.

The pairings the check reads are in lattice logs, those of the first
chart's basis vectors (``Instance.pairings``); the ``bseries`` form in
slot logs is the reference.  Substituting
y_k = sum_j log_map[k][j] log x_j into the lattice-log pairings must give
the slot-log pairings exactly, and it must commute with every operator on
a defective series too, so the check sees on the lattice-log form what it
saw on the slot-log one.  The slot-only lowering ``apply_operator`` used
before log maps is kept as the reference for the identity map.
"""

from fractions import Fraction
from math import perm

import pytest

from conftest import p1_fan, slot_log_pairings, substitute
from test_mutations import annihilation_per_series, wrong_alpha
from test_ring_table import INSTANCES
from gkzfrac import checks, gkz, series as se
from gkzfrac import exact_linalg as xl

ORDER = {"p1p1p1_r1": 4, "p1p1p1_r3": 4, "surface5": 5, "surface8": 5}


def differentiate(s, pos):
    """Formal partial derivative in slot ``pos``: d/dx_pos of log slot k is
    log_map[k][pos] / x_pos."""
    out = s.replace(terms={})
    for (ell, logdeg), coeff in s.terms.items():
        gamma = s.alpha[pos] + ell[pos]
        shifted = tuple(e - (1 if j == pos else 0) for j, e in enumerate(ell))
        if gamma != 0:
            out.add_term(shifted, logdeg, coeff * gamma)
        for k, row in enumerate(s.log_map):
            if logdeg[k] > 0 and row[pos]:
                lower = tuple(m - (1 if j == k else 0)
                              for j, m in enumerate(logdeg))
                out.add_term(shifted, lower, coeff * logdeg[k] * row[pos])
    return out


def subtract(s, other):
    assert s.alpha == other.alpha
    out = s.replace(terms=dict(s.terms))
    for (ell, logdeg), coeff in other.terms.items():
        out.add_term(ell, logdeg, -1 * coeff)
    return out


def monomial_derivatives(op, s):
    s_plus, s_minus = s, s
    for j, e in enumerate(op.plus):
        for _ in range(e):
            s_plus = differentiate(s_plus, j)
    for j, e in enumerate(op.minus):
        for _ in range(e):
            s_minus = differentiate(s_minus, j)
    return s_plus, s_minus


def reliable_items(s):
    """The terms of ``s`` in print order whose inputs all lie inside the
    truncation order."""
    reliable = s._reliable()
    return [((ell, logdeg), c) for (ell, logdeg), c in s.sorted_items()
            if reliable(ell)]


def reference_box(op, s_plus, s_minus):
    """The box branch as it was, cut to its reliable region."""
    result = subtract(s_plus, s_minus)
    result.shifts = (op.plus, op.minus)
    return dict(reliable_items(result))


def assert_box_matches_reference(op, s):
    result = se.apply_operator(op, s)
    assert result.shifts == (op.plus, op.minus)
    assert result.terms == reference_box(op, *monomial_derivatives(op, s))


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def inst(request):
    return checks.Instance(INSTANCES[request.param](),
                           order=ORDER.get(request.param, 8))


def targets(inst):
    """The series the annihilation check applies every box operator to."""
    return [("gamma", inst.gamma)] + [
        (f"pairing_{h}", s)
        for h, s in enumerate(inst.pairings.components())]


def slot_targets(inst):
    """The pairings as ``bseries`` prints them, in slot logs."""
    return [(f"slot pairing_{h}", s)
            for h, s in enumerate(slot_log_pairings(inst).components())]


def test_box_equals_reference_on_reliable_region(inst):
    wrong = wrong_alpha(inst.sys)
    nonzero = 0
    for _name, s in targets(inst) + slot_targets(inst):
        for series in (s, s.replace(alpha=wrong)):
            for op in inst.sys.box_operators():
                assert_box_matches_reference(op, series)
                nonzero += bool(se.apply_operator(op, series).terms)
    # the wrong exponent leaves residues, so the comparison is not 0 == 0
    assert nonzero


def p1_series():
    sys = gkz.build_system(p1_fan())
    s = se.LogSeries(alpha=gkz.canonical_alpha(sys),
                     weight=tuple(Fraction(x) for x in gkz.default_weight(sys)),
                     order=4)
    return sys, s


def test_box_equals_reference_on_zero_series():
    sys, s = p1_series()
    for op in sys.box_operators():
        assert_box_matches_reference(op, s)
        assert not se.apply_operator(op, s).terms


def test_box_equals_reference_on_single_term():
    sys, s = p1_series()
    s.add_term((-2, 1, 1), (0, 0, 0), Fraction(5))
    for op in sys.box_operators():
        assert_box_matches_reference(op, s)


def test_operator_pass_follows_changed_terms():
    """The integer form kept between passes is rebuilt when a coefficient
    changes in place or a term is added."""
    sys, s = p1_series()
    s = s.replace(alpha=wrong_alpha(sys))
    s.add_term((-2, 1, 1), (0, 0, 0), Fraction(5))
    op = next(op for op in sys.euler_operators()
              if se.apply_operator(op, s).terms)
    before = se.apply_operator(op, s).terms
    s.terms[((-2, 1, 1), (0, 0, 0))] = Fraction(7)
    assert se.apply_operator(op, s).terms == {
        key: c * Fraction(7, 5) for key, c in before.items()}
    s.add_term((-4, 2, 2), (0, 0, 0), Fraction(1))
    assert ((-4, 2, 2), (0, 0, 0)) in se.apply_operator(op, s).terms


def test_replaced_series_does_not_inherit_integer_form():
    """``replace`` builds a new series: the parent's kept integer form stays
    behind, and the new series' form is that of its own terms."""
    _sys, s = p1_series()
    s.add_term((-2, 1, 1), (0, 0, 0), Fraction(5))
    parent_form = s.integer_form()
    child = s.replace(terms={((-2, 1, 1), (0, 0, 0)): Fraction(7, 3),
                             ((-4, 2, 2), (0, 0, 0)): Fraction(1, 2)})
    assert child.alpha is s.alpha and child.shifts is s.shifts
    assert "_integer_form" not in vars(child)
    assert child.integer_form() == (False, [6], {
        (-2, 1, 1): [((0, 0, 0), ((0, 14),))],
        (-4, 2, 2): [((0, 0, 0), ((0, 3),))]})
    assert s.integer_form() == parent_form == (False, [1], {
        (-2, 1, 1): [((0, 0, 0), ((0, 5),))]})


def reliable_positions(op, s):
    """Outputs of nonzero input terms that the reliable region keeps."""
    cut = s.order - max(xl.dot(s.weight, op.plus), xl.dot(s.weight, op.minus))
    out = set()
    for (ell, logdeg), coeff in s.terms.items():
        if coeff == 0:
            continue
        for mono in (op.plus, op.minus):
            shifted = tuple(x - d for x, d in zip(ell, mono))
            if xl.dot(s.weight, shifted) <= cut:
                out.add((shifted, logdeg))
    return out


def test_annihilation_tests_reliable_positions(inst):
    for name, s in targets(inst) + slot_targets(inst):
        for op in inst.sys.box_operators():
            assert reliable_positions(op, s), (op.ell, name)


def test_annihilation_equals_per_series_loop(inst):
    check = dict(checks.CHECKS)["series.annihilation"]
    assert check(inst) == annihilation_per_series(inst)


def component(s, i):
    """Component ``i`` of a stacked series as a scalar terms dict."""
    return {key: row[i] for key, row in s.terms.items() if row[i]}


def test_stacked_pass_equals_scalar_passes(inst):
    wrong = wrong_alpha(inst.sys)
    ops = inst.sys.euler_operators() + inst.sys.box_operators()
    nonzero = 0
    for alpha in (inst.sys.alpha, wrong):
        stacked = inst.pairings.replace(alpha=alpha)
        series = [s.replace(alpha=alpha) for s in inst.pairings.components()]
        assert len(series) == inst.ring.dim
        for op in ops:
            result = se.apply_operator(op, stacked)
            alone = [se.apply_operator(op, s) for s in series]
            for i, a in enumerate(alone):
                assert component(result, i) == a.terms
                assert result.shifts == a.shifts
                nonzero += bool(a.terms)
            assert result.first_nonzero_component() == next(
                (i for i, a in enumerate(alone)
                 if not a.is_zero_on_reliable_region()), None)
    # the wrong exponent leaves residues, so the comparison is not 0 == 0
    assert nonzero


def test_check_all_applies_each_operator_twice(monkeypatch):
    """check-all on the one-block P1^3: gamma and the stacked pairings,
    once per operator, so a return to one pass per series, or of the
    twisted period pass, fails here."""
    calls = []
    original = se.apply_operator

    def counted(op, s):
        calls.append(op)
        return original(op, s)

    monkeypatch.setattr(se, "apply_operator", counted)
    inst = checks.Instance(INSTANCES["p1p1p1_r1"](), order=4)
    results = checks.run_all(inst)
    assert all(r["ok"] for r in results), results
    ops = inst.sys.euler_operators() + inst.sys.box_operators()
    assert len(ops) == 7
    assert len(calls) == 2 * len(ops) == 14


# --- lattice logs against slot logs ----------------------------------------------------

def reference_lowering(logdeg, slots):
    """The slot-log lowering as it was, kept verbatim: every (lowered log
    degree, prod_j m_j!/(m_j-i_j)!, the digits i_j in mixed radix
    (e_j + 1)) with i_j <= min(e_j, m_j) in each slot (j, e_j)."""
    parts = [(logdeg, 1, 0)]
    for j, e in slots:
        lowered = []
        for lg, w, index in parts:
            m = lg[j]
            for i in range(min(e, m) + 1):
                lowered.append((lg[:j] + (m - i,) + lg[j + 1:],
                                w * perm(m, i), index * (e + 1) + i))
        parts = lowered
    return parts


def test_identity_map_lowering_equals_the_slot_lowering(inst):
    """On slot logs every box monomial lowers each log degree exactly as the
    slot-only code did, in the same order."""
    identity = se.slot_log_map(inst.sys.nvars)
    logdegs = {m for _ell, m in slot_log_pairings(inst).terms}
    assert len(logdegs) > 1
    for op in inst.sys.box_operators():
        for mono in (op.plus, op.minus):
            slots = [(j, e) for j, e in enumerate(mono) if e]
            derivations = se._derivations(slots, identity)
            for m in logdegs:
                assert se._lowering(m, derivations) == \
                    reference_lowering(m, slots)


def test_lattice_logs_transport_to_slot_logs(inst):
    """Substituting the first chart's logs into ``inst.pairings`` gives the
    slot-log pairings key for key and Fraction for Fraction: the chart-0
    transport, a route around the chart's dual divisor classes that reads
    the system's own divisor classes."""
    got, ref = substitute(inst.pairings), slot_log_pairings(inst)
    assert inst.pairings.log_map == inst.charts[0].basis_vectors
    assert len(inst.pairings.log_map) == len(inst.sys.basis) < inst.sys.nvars
    assert got.terms == ref.terms
    assert {key: [type(c) for c in row] for key, row in got.terms.items()} \
        == {key: [type(c) for c in row] for key, row in ref.terms.items()}


def reliable_terms(s):
    reliable = s._reliable()
    return {key: c for key, c in s.terms.items() if reliable(key[0])}


def test_operators_commute_with_the_transport(inst):
    """One lattice-log coefficient doubled (the first term of the last
    pairing in print order): every Euler and box operator, applied in
    lattice logs and then substituted, gives on the reliable region what it
    gives applied to the substituted series, and the first failing pairing
    is the same, so the check keeps its power on the lattice-log form."""
    lattice = inst.pairings.replace(terms=dict(inst.pairings.terms))
    key = next(key for key, row in lattice.sorted_items() if row[-1])
    row = lattice.terms[key]
    lattice.terms[key] = row[:-1] + (2 * row[-1],)
    slot = substitute(lattice)
    assert slot.terms != slot_log_pairings(inst).terms
    failing = set()
    for op in inst.sys.euler_operators() + inst.sys.box_operators():
        got = se.apply_operator(op, lattice)
        ref = se.apply_operator(op, slot)
        assert reliable_terms(substitute(got)) == reliable_terms(ref)
        first = got.first_nonzero_component()
        assert first == ref.first_nonzero_component()
        failing.add(first)
    # the defect shows, on the pairing that carries it and nowhere else
    assert failing == {None, inst.ring.dim - 1}
