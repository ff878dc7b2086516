"""Known defects, injected one at a time, must be caught by the check that
guards them.

Each check passes on the unmutated code and returns ``ok=False`` under its
mutation, on p2, f1 and the one-block P1^3 (the oracle check under a
flipped period sign, a flipped oracle sign and a period term deleted); the kernel check also on the
one-block P1xP1 and the three-block P1^3 (on p2 and the three-block P1^3
its box holds no kernel vector, so only the Hermite certificate sees the
defect there); the parity twist on p2 and f1, the inputs where some box
operator has an odd auxiliary sum, where the certificate fails with it
under a whole check-all (and nothing fails on the one-block P1xP1 and
P1^3); the ring dimension check on f1 and
the one-block P1xP1, with one Stanley-Reisner generator dropped; the
secondary-cone check on f1, the one-block P1xP1 and P1^3, with every
covector of one facet-defining row dropped.  Every
annihilation mutation also gives the per-series loop the stacked check
replaced (``annihilation_per_series``) the same (ok, detail).  The Euler branch of ``apply_operator`` is also held
to the per-term formula it replaced, on the real solutions and under a
wrong exponent, where its output is nonzero, for the pairings in the
first chart's logs (``Instance.pairings``) and in slot logs (the
``bseries`` form).  The first chart's dual divisor classes, doubled in
their first entry or reversed, fail the annihilation check on every
instance where the mutation changes them.
The table ``SUPPORT_MUTATIONS`` lists the defects the 5^k sweep of the
curve-cone support check caught before that check became a proof; each
still fails every check the table names.
"""

from fractions import Fraction
from itertools import product

import pytest

from conftest import CORPUS, slot_log_pairings
from test_degeneracy import MULTI_CHART
from test_threefold import threefold
from gkzfrac import checks, series as se, toric
from gkzfrac import degeneracy as dg
from gkzfrac import exact_linalg as xl
from gkzfrac import triangulations as tr

FANS = {"p2": (CORPUS["p2"], 8), "f1": (CORPUS["f1"], 8),
        "p1p1p1_r1": (lambda: threefold([[0, 1, 2, 3, 4, 5]], "r1"), 4)}
BUILDERS = dict(CORPUS, p1p1p1_r1=FANS["p1p1p1_r1"][0],
                p1p1p1_r3=lambda: threefold([[0, 1], [2, 3], [4, 5]], "r3"),
                **{name: MULTI_CHART[name][0] for name in
                   ("dp6", "seven_rays", "square8", "surface0_6rays_r1")})
CHECK = dict(checks.CHECKS)


def instance(name):
    build, order = FANS[name]
    return checks.Instance(build(), order=order)


def annihilation_per_series(inst):
    """The annihilation check as it was, kept verbatim: one operator pass
    per (operator, series) pair."""
    sys = inst.sys
    targets = [("gamma", inst.gamma, False), ("period", inst.period, True)] + [
        (f"pairing_{h}", s, False)
        for h, s in enumerate(inst.pairings.components())]
    for op in sys.euler_operators():
        for name, s, _tw in targets:
            if not se.apply_operator(op, s).is_zero_on_reliable_region():
                return False, f"Euler row {op.row} fails on {name}"
    for box in sys.box_operators():
        for name, s, twisted in targets:
            result = se.apply_operator(box, s, twisted=twisted)
            if not result.is_zero_on_reliable_region():
                return False, f"box {box.ell} fails on {name}"
    return True, (f"{sys.n + sys.r} Euler rows and {len(sys.collections)} "
                  f"box operators kill all solutions at order {inst.order}")


def assert_annihilation_fails(inst, detail):
    """The check fails with ``detail``, as the per-series loop does."""
    assert CHECK["series.annihilation"](inst) == (False, detail)
    assert annihilation_per_series(inst) == (False, detail)


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
    assert check(instance(name))[0]
    inst = instance(name)
    original = se.period_coefficient_C
    # before the period is built, so every stored coefficient is flipped
    monkeypatch.setattr(se, "period_coefficient_C",
                        lambda sys, ell: -original(sys, ell))
    ok, detail = check(inst)
    assert not ok
    assert "mismatch" in detail


@pytest.mark.parametrize("name", sorted(FANS))
def test_flipped_oracle_sign_fails_oracle_match(name, monkeypatch):
    check = CHECK["series.oracle_match"]
    inst = instance(name)
    assert check(inst)[0]
    original = se.residue_oracle
    monkeypatch.setattr(se, "residue_oracle",
                        lambda sys, ell: -original(sys, ell))
    ok, detail = check(inst)
    assert not ok
    assert "mismatch" in detail


@pytest.mark.parametrize("name", sorted(FANS))
def test_deleted_period_term_fails_oracle_match(name, monkeypatch):
    """The check reads the stored period: a region term missing from it is
    a mismatch at that exponent."""
    check = CHECK["series.oracle_match"]
    inst = instance(name)
    assert check(inst)[0]
    (ell, logdeg), _ = inst.period.sorted_items()[-1]
    monkeypatch.delitem(inst.period.terms, (ell, logdeg))
    assert check(inst) == (False, f"coefficient mismatch at {ell}")


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
    assert annihilation_per_series(inst) == (ok, detail)


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
    assert annihilation_per_series(inst) == (ok, detail)


# the checks that fail, with their details, when check-all runs without the
# parity: both readers of series.parity_sign see it where some relation has
# an odd auxiliary sum (the twisted box operators and the period signed
# against the log-free solution, which carries the parity in its classes),
# and nothing fails where every box operator's sum is even
CHART_0_MISMATCH = "chart 0 fails ['log_free_matches_period']"
DROPPED_TWIST_FAILURES = {
    "p2": {"series.annihilation": "box (-3, 1, 1, 1) fails on period",
           "degeneracy.certificate": CHART_0_MISMATCH},
    "f1": {"series.annihilation": "box (-1, 1, -1, 1, 0) fails on period",
           "degeneracy.certificate": CHART_0_MISMATCH},
    "p1xp1_r1": {},
    "p1p1p1_r1": {},
}


@pytest.mark.parametrize("name", sorted(DROPPED_TWIST_FAILURES))
def test_dropped_parity_twist_fails_check_all(name, monkeypatch):
    inst = checks.Instance(BUILDERS[name](), order=4)
    # no auxiliary slot is seen, so every parity sign is +1
    monkeypatch.setattr(se, "_aux_positions_from_alpha", lambda alpha: [])
    failed = {r["id"]: r["detail"] for r in checks.run_all(inst)
              if not r["ok"]}
    assert failed == DROPPED_TWIST_FAILURES[name]


# the first term of the last pairing in print order, its coefficient
# doubled; in chart logs every Euler row is the scalar a_i . (alpha +
# ell) - beta_i, 0 on every solution term, so a box operator catches it
DOUBLED_LAST_PAIRING = {"p2": "box (-3, 1, 1, 1) fails on pairing_2",
                        "f1": "box (-1, 1, -1, 1, 0) fails on pairing_3",
                        "p1p1p1_r1": "box (-2, 1, 1, 0, 0, 0, 0) fails on "
                                     "pairing_7"}


@pytest.mark.parametrize("name", sorted(FANS))
def test_doubled_pairing_coefficient_fails_annihilation(name, monkeypatch):
    """The stack still looks at its last component."""
    inst = instance(name)
    assert CHECK["series.annihilation"](inst)[0]
    terms = inst.pairings.terms
    key = next(key for key, row in inst.pairings.sorted_items() if row[-1])
    row = terms[key]
    monkeypatch.setitem(terms, key, row[:-1] + (2 * row[-1],))
    assert DOUBLED_LAST_PAIRING[name].endswith(
        f"pairing_{inst.ring.dim - 1}")
    assert_annihilation_fails(inst, DOUBLED_LAST_PAIRING[name])


# the same defect in the slot-log form, where the Euler rows lower the logs
DOUBLED_LAST_SLOT_PAIRING = {"p2": "Euler row 0 fails on pairing_2",
                             "f1": "Euler row 1 fails on pairing_3",
                             "p1p1p1_r1": "Euler row 0 fails on pairing_7"}


@pytest.mark.parametrize("name", sorted(FANS))
def test_doubled_slot_log_coefficient_fails_annihilation(name, monkeypatch):
    """Handed the ``bseries`` form, the check catches the defect on the same
    pairing, first by an Euler row."""
    inst = instance(name)
    slot = slot_log_pairings(inst)
    monkeypatch.setitem(inst.__dict__, "pairings", slot)
    assert CHECK["series.annihilation"](inst)[0]
    key = next(key for key, row in slot.sorted_items() if row[-1])
    row = slot.terms[key]
    monkeypatch.setitem(slot.terms, key, row[:-1] + (2 * row[-1],))
    assert_annihilation_fails(inst, DOUBLED_LAST_SLOT_PAIRING[name])


# every log class of degree >= 2 doubled: a wrong 1/m! in the log slots
WRONG_LOG_FACTORIAL = {"p2": "box (-3, 1, 1, 1) fails on pairing_2",
                       "f1": "box (-1, 1, -1, 1, 0) fails on pairing_3",
                       "p1p1p1_r1": "box (-2, 1, 1, 0, 0, 0, 0) fails on "
                                    "pairing_4"}


@pytest.mark.parametrize("name", sorted(FANS))
def test_wrong_log_factorial_fails_annihilation(name, monkeypatch):
    inst = instance(name)
    assert CHECK["series.annihilation"](inst)[0]
    inst = instance(name)
    original = se.log_part
    # before the pairings are built, so every pairing carries the defect
    monkeypatch.setattr(se, "log_part", lambda ring, classes, top: [
        (m, 2 * cls if sum(m) >= 2 else cls)
        for m, cls in original(ring, classes, top)])
    assert_annihilation_fails(inst, WRONG_LOG_FACTORIAL[name])


# the first chart's dual divisor classes W_k, in which ``Instance.pairings``
# expands x^D, mutated before the pairings are built: the first class
# doubled, or the classes reversed.  Either breaks D_j = sum_k v_k[j] W_k;
# the Euler rows act on the chart's logs as scalars, so a box operator
# catches it.  They are the only dual classes built, also on the surfaces
# with 2, 4 and 8 charts (dp6, seven_rays, square8, surface0_6rays_r1),
# since every chart's certificate reads the same pairings.  Reversal is
# the identity in rank 1 (p1, p2)
DUAL_CLASS_MUTATIONS = {"doubled": lambda classes: [2 * classes[0]]
                        + classes[1:],
                        "reversed": lambda classes: classes[::-1]}
DUAL_CLASS_FAILURES = {
    ("doubled", "p1"): "box (-2, 1, 1) fails on pairing_1",
    ("doubled", "p2"): "box (-3, 1, 1, 1) fails on pairing_1",
    ("doubled", "f1"): "box (-1, 1, -1, 1, 0) fails on pairing_1",
    ("doubled", "f1_r2"): "box (-1, 1, -1, 1, 0, 0) fails on pairing_1",
    ("doubled", "p1xp1"): "box (0, 0, 0, -2, 1, 1) fails on pairing_2",
    ("doubled", "p1xp1_r1"): "box (-2, 1, 1, 0, 0) fails on pairing_2",
    ("doubled", "p1p1p1_r1"): "box (-2, 1, 1, 0, 0, 0, 0) fails on "
                              "pairing_3",
    ("doubled", "p1p1p1_r3"): "box (0, 0, 0, 0, 0, 0, -2, 1, 1) fails on "
                              "pairing_3",
    ("doubled", "surface0_6rays_r1"): "box (-1, 1, -1, 1, 0, 0, 0) fails on "
                                      "pairing_2",
    ("doubled", "dp6"): "box (-1, 1, -1, 1, 0, 0, 0) fails on pairing_1",
    ("doubled", "seven_rays"): "box (-1, 1, -1, 1, 0, 0, 0, 0) fails on "
                               "pairing_1",
    ("doubled", "square8"): "box (-1, 1, -1, 0, 1, 0, 0, 0, 0) fails on "
                            "pairing_7",
    ("reversed", "f1"): "box (-1, 1, -1, 1, 0) fails on pairing_2",
    ("reversed", "f1_r2"): "box (-1, 1, -1, 1, 0, 0) fails on pairing_2",
    ("reversed", "p1xp1"): "box (-2, 1, 1, 0, 0, 0) fails on pairing_1",
    ("reversed", "p1xp1_r1"): "box (-2, 1, 1, 0, 0) fails on pairing_1",
    ("reversed", "p1p1p1_r1"): "box (-2, 1, 1, 0, 0, 0, 0) fails on "
                               "pairing_1",
    ("reversed", "p1p1p1_r3"): "box (-2, 1, 1, 0, 0, 0, 0, 0, 0) fails on "
                               "pairing_1",
    ("reversed", "surface0_6rays_r1"): "box (-1, 1, -1, 1, 0, 0, 0) fails "
                                       "on pairing_1",
    ("reversed", "dp6"): "box (-1, 1, -1, 1, 0, 0, 0) fails on pairing_1",
    ("reversed", "seven_rays"): "box (-1, 1, -1, 1, 0, 0, 0, 0) fails on "
                                "pairing_1",
    ("reversed", "square8"): "box (0, 1, -2, 1, 0, 0, 0, 0, 0) fails on "
                             "pairing_7",
}


@pytest.mark.parametrize("label,name", sorted(DUAL_CLASS_FAILURES))
def test_dual_class_mutations_fail_annihilation(label, name, monkeypatch):
    inst = checks.Instance(BUILDERS[name](), order=4)
    assert CHECK["series.annihilation"](inst)[0]
    assert (len(inst.sys.basis) > 1) == (name not in ("p1", "p2"))
    inst = checks.Instance(BUILDERS[name](), order=4)
    original = dg._dual_divisor_classes
    monkeypatch.setattr(dg, "_dual_divisor_classes",
                        lambda sys, ring, chart: DUAL_CLASS_MUTATIONS[label](
                            original(sys, ring, chart)))
    assert_annihilation_fails(inst, DUAL_CLASS_FAILURES[label, name])


def test_p1_has_no_log_class_of_degree_two():
    """On p1 the ring's top degree is 1, so no log class of degree >= 2
    exists and the wrong 1/m! above cannot be injected there."""
    inst = checks.Instance(CORPUS["p1"](), order=8)
    ring = inst.ring
    assert ring.top == 1
    classes = [ring.divisor_class(i, j) for (i, j) in inst.sys.j_indices()]
    logs = se.log_part(ring, classes, ring.top + 1)
    assert max(sum(m) for m, _ in logs) == 1


@pytest.mark.parametrize("name", ["p1", "p1xp1", "p1xp1_r1", "p1p1p1_r1"])
def test_parity_twist_is_trivial_elsewhere(name):
    """Every box operator has an even auxiliary sum on these inputs, so the
    twist sign is +1 and dropping it changes nothing there."""
    sys = checks.Instance(BUILDERS[name](), order=4).sys
    sign = se.parity_sign(sys.alpha)
    assert all(sign(box.ell) == 1 for box in sys.box_operators())


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


@pytest.mark.parametrize("name", ["f1", "p1xp1_r1"])
def test_dropped_ring_relation_fails_ring_dimension(name, monkeypatch):
    """One Stanley-Reisner generator dropped: the quotient gains a class,
    and check-all reports it instead of aborting.  (On P1^3 the ring's own
    square-free span assertion fires first.)"""
    check = CHECK["toric.ring_dimension"]
    assert check(checks.Instance(BUILDERS[name](), order=4)) == \
        (True, "dimension 4, top degree one-dimensional")
    original = toric.stanley_reisner_ideal
    monkeypatch.setattr(toric, "stanley_reisner_ideal",
                        lambda collections: original(collections)[:-1])
    results = {r["id"]: (r["ok"], r["detail"])
               for r in checks.run_all(checks.Instance(BUILDERS[name](),
                                                       order=4))}
    assert len(results) == len(checks.CHECKS)
    assert results["toric.ring_dimension"] == \
        (False, "dimension 5, top degree one-dimensional")


@pytest.mark.parametrize("name", ["f1", "p1xp1_r1", "p1p1p1_r1"])
def test_dropped_secondary_facet_fails_secondary_contains_ample(
        name, monkeypatch):
    """Every covector of one facet-defining row of the secondary cone of
    T_max dropped, for each facet in turn.  On the one-block P1xP1 and P1^3
    every row defines a facet, so the cone left is not pointed; on f1 it is
    pointed and has a facet the Kahler cone lacks.  The ample rays stay
    inside that larger cone, so a containment test passes."""
    check = CHECK["triangulations.secondary_contains_ample"]
    inst = checks.Instance(BUILDERS[name](), order=4)
    assert check(inst) == (True, "ample cone inside the secondary cone")
    for facet in inst.sys.kahler.inequalities:
        def without_facet(dim, rows, facet=facet):
            return toric.ConeDescription(
                dim, [g for g in rows if xl.primitive_vector(g) != facet])

        monkeypatch.setattr(tr, "ConeDescription", without_facet)
        if name == "f1":
            detail = (f"{facet} is in the inequalities of only one of the "
                      "secondary and ample cones")
        else:
            detail = ("secondary cone of the maximal triangulation: cone is "
                      "not pointed and full-dimensional")
        assert check(inst) == (False, detail)


@pytest.mark.parametrize("name", sorted(FANS))
def test_duplicated_pairing_fails_solution_rank(name, monkeypatch):
    check = CHECK["series.solution_rank"]
    inst = instance(name)
    assert check(inst)[0]
    pairings = inst.pairings
    # one pairing repeated in place of another: the rank falls by one
    monkeypatch.setitem(inst.__dict__, "pairings", pairings.replace(terms={
        key: row[:-1] + row[:1] for key, row in pairings.terms.items()}))
    ok, detail = check(inst)
    assert not ok
    assert detail == (f"solution rank {inst.ring.dim - 1} matches the ring "
                      "dimension")


def euler_per_term(op, s):
    """The Euler branch as it was: the whole scalar rebuilt for every term;
    theta_j lowers log slot k with coefficient log_map[k][j]."""
    out = s.replace(terms={}, shifts=((0,) * len(s.alpha),))
    for (ell, logdeg), coeff in s.terms.items():
        scalar = sum(Fraction(c) * (s.alpha[j] + ell[j])
                     for j, c in enumerate(op.coeffs) if c)
        out.add_term(ell, logdeg, coeff * (scalar - op.eigenvalue))
        for j, c in enumerate(op.coeffs):
            for k, row in enumerate(s.log_map):
                if c and row[j] and logdeg[k] > 0:
                    lower = tuple(m - (1 if kk == k else 0)
                                  for kk, m in enumerate(logdeg))
                    out.add_term(ell, lower,
                                 coeff * (Fraction(c * row[j]) * logdeg[k]))
    return out


@pytest.mark.parametrize("name", sorted(FANS))
def test_euler_branch_equals_per_term_formula(name):
    inst = instance(name)
    wrong = wrong_alpha(inst.sys)
    nonzero = 0
    for s in [inst.gamma, inst.period] + inst.pairings.components() + \
            slot_log_pairings(inst).components():
        for series in (s, s.replace(alpha=wrong)):
            for op in inst.sys.euler_operators():
                result = se.apply_operator(op, series)
                expected = euler_per_term(op, series)
                assert result.terms == expected.terms
                assert result.shifts == expected.shifts
                nonzero += bool(result.terms)
    assert nonzero


# --- the curve-cone support -------------------------------------------------------

def sweep_mori_support(inst):
    """The support check as it was, kept verbatim: ``o_class`` at every
    point off the curve cone in the box [-2, 2]^k of basis coordinates."""
    sys, ring = inst.sys, inst.ring
    for coords in product(range(-2, 3), repeat=len(sys.basis)):
        if not se.coords_in_mori_cone(sys, coords):
            ell = sys.from_basis_coords(coords)
            if not se.o_class(sys, ring, ell).is_zero():
                return False, f"nonzero coefficient at {ell} off the curve cone"
    return True, "slab coefficients vanish off the curve cone"


def patch_slot_factor(monkeypatch, shift):
    """Every slot factor read at ``shift(a, c)`` in place of (a, c)."""
    original = toric.CohomologyRing.slot_factor
    monkeypatch.setattr(toric.CohomologyRing, "slot_factor",
                        lambda ring, i, j, a, c: original(
                            ring, *shift(i, j, a, c)))


def lowering_off_by_one(monkeypatch, inst):
    # prod_{k=1}^{-c} (D + a - k): every lowering factor lacks D + a
    patch_slot_factor(monkeypatch, lambda i, j, a, c:
                      (i, j, a - 1 if c < 0 else a, c))


def second_step_without_d(monkeypatch, inst):
    # from c = -2 on the factor D + a is missing, at c = -1 it is there
    patch_slot_factor(monkeypatch, lambda i, j, a, c:
                      (i, j, a - 1, c + 1) if c <= -2 else (i, j, a, c))


def lowering_by_block_class(monkeypatch, inst):
    # each lowering factor built from the block's class D_(i, 0)
    patch_slot_factor(monkeypatch, lambda i, j, a, c:
                      (i, 0 if c < 0 else j, a, c))


def dropped_ring_relation(monkeypatch, inst):
    original = toric.stanley_reisner_ideal
    monkeypatch.setattr(toric, "stanley_reisner_ideal",
                        lambda collections: original(collections)[:-1])


def ray_slot_alpha(monkeypatch, inst):
    alpha = list(inst.sys.alpha)
    alpha[inst.sys.j_position(0, 1)] = Fraction(1, 3)
    monkeypatch.setattr(inst.sys, "alpha", tuple(alpha))


def everything_off_the_cone(monkeypatch, inst):
    monkeypatch.setattr(se, "coords_in_mori_cone", lambda sys, coords: False)


def o_class_one_step_short(monkeypatch, inst):
    original = se.o_class

    def short(sys, ring, ell):
        return original(sys, ring, tuple(
            x + 1 if x < 0 and a == 0 else x for x, a in zip(ell, sys.alpha)))

    monkeypatch.setattr(se, "o_class", short)


# Every mutation here fails the 5^k sweep the support check was until it
# became a proof (``sweep_mori_support``): label -> (mutation, instances,
# the checks that must fail under it, the support check's detail or None
# where the proof does not see the defect).  The sampled
# ``series.mori_vanishing`` still runs ``o_class`` off the cone, on its
# first 10 vectors by shell, and catches every one of them.
SUPPORT_MUTATIONS = {
    "lowering_off_by_one": (
        lowering_off_by_one, ["p2", "f1", "p1p1p1_r1"],
        {"series.mori_support", "series.mori_vanishing",
         "series.annihilation"},
        "lowering factor of slot (0, 1) is not its class"),
    "second_step_without_d": (
        second_step_without_d, ["p2", "f1", "p1p1p1_r3"],
        {"series.mori_vanishing", "series.annihilation"}, None),
    "lowering_by_block_class": (
        lowering_by_block_class, ["f1", "p1xp1_r1", "p1p1p1_r1"],
        {"series.mori_support", "series.mori_vanishing"},
        "lowering factor of slot (0, 1) is not its class"),
    "dropped_ring_relation": (
        dropped_ring_relation, ["f1", "p1xp1_r1"],
        {"series.mori_support", "series.mori_vanishing",
         "toric.ring_dimension"}, "collection"),
    "ray_slot_alpha": (
        ray_slot_alpha, ["p2", "f1", "p1p1p1_r1"],
        {"series.mori_support", "series.mori_vanishing",
         "series.annihilation"}, "ray slot (0, 1) has alpha 1/3"),
    "everything_off_the_cone": (
        everything_off_the_cone, ["p2", "f1", "p1p1p1_r1"],
        {"series.mori_vanishing"}, None),
    "o_class_one_step_short": (
        o_class_one_step_short, ["p2", "f1", "p1p1p1_r1"],
        {"series.mori_vanishing"}, None),
}


@pytest.mark.parametrize("name", ["p2", "f1", "p1xp1_r1", "p1p1p1_r1",
                                  "p1p1p1_r3"])
def test_support_proof_and_sweep_pass_unmutated(name):
    inst = checks.Instance(BUILDERS[name](), order=4)
    assert CHECK["series.mori_support"](inst) == sweep_mori_support(inst) \
        == (True, "slab coefficients vanish off the curve cone")


@pytest.mark.parametrize("label,name", [
    (label, name) for label, (_, names, _, _) in SUPPORT_MUTATIONS.items()
    for name in names])
def test_support_mutations_are_caught_without_the_sweep(label, name,
                                                        monkeypatch):
    mutate, _, catchers, detail = SUPPORT_MUTATIONS[label]
    inst = checks.Instance(BUILDERS[name](), order=4)
    mutate(monkeypatch, inst)
    assert not sweep_mori_support(inst)[0]
    results = {r["id"]: (r["ok"], r["detail"]) for r in checks.run_all(inst)}
    assert {check for check in catchers if results[check][0]} == set()
    ok, found = results["series.mori_support"]
    if detail is None:
        assert ok
    else:
        assert found.startswith(detail), found
