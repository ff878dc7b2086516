"""Known defects, injected one at a time, must be caught by the check that
guards them.

Each check passes on the unmutated code and returns ``ok=False`` under its
mutation, on p2, f1 and the one-block P1^3; the kernel check also on the
one-block P1xP1 and the three-block P1^3 (on p2 and the three-block P1^3
its box holds no kernel vector, so only the Hermite certificate sees the
defect there); the parity twist on p2 and f1, the inputs where some box
operator has an odd auxiliary sum.  The Euler branch of ``apply_operator``
is also held to the per-term formula it replaced, on the real solutions and
under a wrong exponent, where its output is nonzero.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import CORPUS
from test_threefold import threefold
from gkzfrac import checks, series as se

FANS = {"p2": (CORPUS["p2"], 8), "f1": (CORPUS["f1"], 8),
        "p1p1p1_r1": (lambda: threefold([[0, 1, 2, 3, 4, 5]], "r1"), 4)}
BUILDERS = dict(CORPUS, p1p1p1_r1=FANS["p1p1p1_r1"][0],
                p1p1p1_r3=lambda: threefold([[0, 1], [2, 3], [4, 5]], "r3"))
CHECK = dict(checks.CHECKS)


def instance(name):
    build, order = FANS[name]
    return checks.Instance(build(), order=order)


def wrong_alpha(sys):
    """The canonical exponent with its first auxiliary slot moved off -1/2."""
    alpha = list(sys.alpha)
    pos = sys.aux_positions()[0]
    assert alpha[pos] == Fraction(-1, 2)
    alpha[pos] = Fraction(-1, 3)
    return tuple(alpha)


@pytest.mark.parametrize("name", sorted(FANS))
def test_flipped_period_sign_fails_oracle_match(name, monkeypatch):
    check = CHECK["series.oracle_match"]
    inst = instance(name)
    assert check(inst)[0]
    original = se.period_coefficient_C
    monkeypatch.setattr(se, "period_coefficient_C",
                        lambda sys, ell: -original(sys, ell))
    ok, detail = check(inst)
    assert not ok
    assert "mismatch" in detail


@pytest.mark.parametrize("name", sorted(FANS))
def test_wrong_canonical_exponent_fails_annihilation(name, monkeypatch):
    check = CHECK["series.annihilation"]
    assert check(instance(name))[0]
    inst = instance(name)
    # before any series is built, so every solution carries the wrong exponent
    monkeypatch.setattr(inst.sys, "alpha", wrong_alpha(inst.sys))
    ok, detail = check(inst)
    assert not ok
    assert "Euler row" in detail


@pytest.mark.parametrize("name", ["p2", "f1"])
def test_dropped_parity_twist_fails_annihilation(name, monkeypatch):
    check = CHECK["series.annihilation"]
    inst = instance(name)
    assert check(inst)[0]
    # no auxiliary slot is seen, so the twist sign is always +1
    monkeypatch.setattr(se, "_aux_positions_from_alpha", lambda alpha: [])
    ok, detail = check(inst)
    assert not ok
    assert detail.startswith("box (") and detail.endswith(" fails on period")


@pytest.mark.parametrize("name", ["p1", "p1xp1", "p1xp1_r1", "p1p1p1_r1"])
def test_parity_twist_is_trivial_elsewhere(name):
    """Every box operator has an even auxiliary sum on these inputs, so the
    twist sign is +1 and dropping it changes nothing there."""
    sys = checks.Instance(BUILDERS[name](), order=4).sys
    aux = se._aux_positions_from_alpha(sys.alpha)
    assert all(sum(box.ell[j] for j in aux) % 2 == 0
               for box in sys.box_operators())


@pytest.mark.parametrize("name", ["p2", "f1", "p1xp1_r1", "p1p1p1_r1",
                                  "p1p1p1_r3"])
def test_finite_index_basis_fails_kernel(name, monkeypatch):
    check = CHECK["exact_linalg.kernel"]
    inst = checks.Instance(BUILDERS[name](), order=4)
    assert check(inst)[0]
    first, *rest = inst.sys.basis
    # the doubled vector spans an index-2 sublattice of the relation lattice
    monkeypatch.setattr(inst.sys, "basis", [tuple(2 * a for a in first)] + rest)
    assert not check(inst)[0]


@pytest.mark.parametrize("name", sorted(FANS))
def test_duplicated_pairing_fails_solution_rank(name, monkeypatch):
    check = CHECK["series.solution_rank"]
    inst = instance(name)
    assert check(inst)[0]
    pairings = inst.pairings
    # one pairing repeated in place of another: the rank falls by one, so
    # the sweep never reaches the row count and cannot stop early
    monkeypatch.setitem(inst.__dict__, "pairings",
                        pairings[:-1] + [pairings[0]])
    ok, detail = check(inst)
    assert not ok
    assert detail == (f"solution rank {inst.ring.dim - 1} matches the ring "
                      "dimension")


def euler_per_term(op, s):
    """The Euler branch as it was: the whole scalar rebuilt for every term."""
    out = replace(s, terms={}, shifts=((0,) * len(s.alpha),))
    for (ell, logdeg), coeff in s.terms.items():
        scalar = sum(Fraction(c) * (s.alpha[j] + ell[j])
                     for j, c in enumerate(op.coeffs) if c)
        out.add_term(ell, logdeg, coeff * (scalar - op.eigenvalue))
        for j, c in enumerate(op.coeffs):
            if c and logdeg[j] > 0:
                lower = tuple(m - (1 if jj == j else 0)
                              for jj, m in enumerate(logdeg))
                out.add_term(ell, lower, coeff * (Fraction(c) * logdeg[j]))
    return out


@pytest.mark.parametrize("name", sorted(FANS))
def test_euler_branch_equals_per_term_formula(name):
    inst = instance(name)
    wrong = wrong_alpha(inst.sys)
    nonzero = 0
    for s in [inst.gamma, inst.period] + inst.pairings:
        for series in (s, replace(s, alpha=wrong)):
            for op in inst.sys.euler_operators():
                result = se.apply_operator(op, series)
                expected = euler_per_term(op, series)
                assert result.terms == expected.terms
                assert result.shifts == expected.shifts
                nonzero += bool(result.terms)
    assert nonzero
