"""One Instance per input: the artifacts that several checks or commands
read are built once, and the checks see what they saw when each built its
own copy.
"""

import pytest

from conftest import (CORPUS, divisor_classes, lattice_log_classes,
                      slot_log_pairings)
from test_degeneracy import MULTI_CHART
from test_ring_table import INSTANCES
from gkzfrac import checks, cli, gkz, series as se, toric
from gkzfrac import degeneracy as dg
from gkzfrac import exact_linalg as xl
from gkzfrac import polytopes as pt
from gkzfrac import triangulations as tr

COUNTED = [(gkz, "build_system"), (se, "b_series"),
           (pt, "dual_nef_partition"), (tr, "maximal_triangulation"),
           (dg, "subdivide_kahler_cone"), (toric, "primitive_collections")]


@pytest.mark.parametrize("name", ["p2", "f1"])
def test_check_all_builds_each_artifact_once(name, monkeypatch):
    calls = {attr: 0 for _module, attr in COUNTED}
    for module, attr in COUNTED:
        def counted(*args, _fn=getattr(module, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    spec = cli.parse_input(cli.fixture_path(name))
    report = cli.run_command("check-all", spec, {"order": None})
    assert not report.failed
    assert calls == {attr: 1 for _module, attr in COUNTED}


@pytest.mark.parametrize("name", ["p2", "f1", "p1xp1_r1"])
def test_only_bseries_expands_x_d_in_slot_logs(name, monkeypatch):
    # check-all reads the pairings in the first chart's logs (one class per
    # Kahler direction), and a later chart's in its own; only the bseries
    # report pairs the B-series with one class per slot, once
    nvars = gkz.build_system(CORPUS[name]()).nvars
    widths = []

    def counted(ring, b, classes, *args, _fn=se.pair_with_dual, **kwargs):
        widths.append(len(classes))
        return _fn(ring, b, classes, *args, **kwargs)
    monkeypatch.setattr(se, "pair_with_dual", counted)
    spec = cli.parse_input(cli.fixture_path(name))
    counts = {}
    for cmd in ("check-all", "bseries"):
        widths.clear()
        assert not cli.run_command(cmd, spec, {"order": None}).failed
        counts[cmd] = (widths.count(nvars), len(widths))
    assert counts["check-all"][0] == 0 < counts["check-all"][1]
    assert counts["bseries"] == (1, 1)


def test_check_all_walks_the_mori_slab_once(monkeypatch):
    # chart pairings re-expand the shared B-series instead of a second walk
    calls = []

    def counted(*args, _fn=se.mori_slab):
        calls.append(args)
        return _fn(*args)
    monkeypatch.setattr(se, "mori_slab", counted)
    results = checks.run_all(checks.Instance(CORPUS["p2"](), 8))
    assert all(r["ok"] for r in results)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["p1xp1_r1", "f1"])
def test_check_all_computes_each_period_coefficient_once(name, monkeypatch):
    # the oracle check reads the stored period instead of recomputing C
    calls = []

    def counted(sys, ell, _fn=se.period_coefficient_C):
        calls.append(ell)
        return _fn(sys, ell)
    monkeypatch.setattr(se, "period_coefficient_C", counted)
    inst = checks.Instance(CORPUS[name](), 8)
    assert all(r["ok"] for r in checks.run_all(inst))
    assert len(calls) == len(inst.period.terms) > 1


def count_expansion_acts(monkeypatch):
    """Record the matrix of every integer multiplier act made while x^D is
    expanded (``pair_with_dual``, with or without a ``log_map``, and the
    ``log_part`` it calls)."""
    acts, inside = [], []

    def expansion(*args, _fn=se.pair_with_dual, **kwargs):
        inside.append(1)
        try:
            return _fn(*args, **kwargs)
        finally:
            inside.pop()

    def act(columns, v, _fn=se.integer_act):
        if inside:
            acts.append(columns)
        return _fn(columns, v)
    monkeypatch.setattr(se, "pair_with_dual", expansion)
    monkeypatch.setattr(se, "integer_act", act)
    return acts


EXPANDED = {"p2": (CORPUS["p2"], 1), "f1": (CORPUS["f1"], 1),
            "p1p1p1_r1": (INSTANCES["p1p1p1_r1"], 1),
            **{name: MULTI_CHART[name]
               for name in ("dp6", "surface0_6rays_r1", "square8")}}


@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_check_all_expands_x_d_once_per_instance(name, monkeypatch):
    # the first chart's pairings serve annihilation, the solution rank and
    # every chart's certificate, so x^D is expanded once, in the first
    # chart's logs, whatever the number of charts
    logs, duals = [], []

    def expansion(*args, _fn=se.pair_with_dual, **kwargs):
        logs.append(kwargs.get("log_map"))
        return _fn(*args, **kwargs)

    def dual_classes(sys, ring, chart, _fn=dg._dual_divisor_classes):
        duals.append(chart)
        return _fn(sys, ring, chart)
    monkeypatch.setattr(se, "pair_with_dual", expansion)
    monkeypatch.setattr(dg, "_dual_divisor_classes", dual_classes)
    build, count = EXPANDED[name]
    inst = checks.Instance(build(), order=4)
    assert all(r["ok"] for r in checks.run_all(inst))
    assert len(inst.charts) == count
    assert logs == [inst.charts[0].basis_vectors]
    assert duals == [inst.charts[0]]


@pytest.mark.parametrize("name", ["p2", "f1", "p1xp1"])
def test_degeneracy_expands_less_than_bseries(name, monkeypatch):
    # the chart pairings expand x^D once; bseries expands it for the
    # system's own log slots, so it is the larger job of the two
    acts = count_expansion_acts(monkeypatch)
    spec = cli.parse_input(cli.fixture_path(name))
    counts = {}
    for cmd in ("degeneracy", "bseries"):
        acts.clear()
        assert not cli.run_command(cmd, spec, {"order": None}).failed
        counts[cmd] = len(acts)
    assert 0 < counts["degeneracy"] < counts["bseries"], counts


def _is_scalar(columns):
    """Whether a sparse integer matrix is a multiple of the identity."""
    return all(column == tuple((b, c) for _, c in columns[0][:1])
               for b, column in enumerate(columns))


def test_no_expansion_act_merely_scales(monkeypatch):
    # the unit class O_0 and the m = 0 log class enter the pairings as they
    # are, so no act in the x^D expansion is by the identity, or by any
    # multiple of it
    acts = count_expansion_acts(monkeypatch)
    for name in ("p1", "p2", "f1", "p1xp1", "p1xp1_r1"):
        spec = cli.parse_input(cli.fixture_path(name))
        for cmd in ("bseries", "degeneracy"):
            assert not cli.run_command(cmd, spec, {"order": 12}).failed
    assert len(acts) > 5000
    assert not any(_is_scalar(columns) for columns in acts)
    # the test sees the acts it forbids
    ring = checks.Instance(CORPUS["p2"](), order=4).ring
    assert _is_scalar(ring.multiplier(ring.one())[1])
    assert _is_scalar(ring.multiplier(3 * ring.one())[1])


@pytest.mark.parametrize("name", ["p2", "f1", "f1_r2"])
def test_low_degree_pairings_equal_an_order_6_build(name):
    # series.solution_rank reads the shared pairings up to weight degree 6;
    # they must equal the pairings of a series built at order 6, in the
    # first chart's logs check-all reads and in the slot logs bseries prints
    inst = checks.Instance(CORPUS[name](), order=8)
    sys, ring = inst.sys, inst.ring
    b = se.b_series(sys, ring, inst.omega, 6)
    for pairings, classes in (
            (inst.pairings, lattice_log_classes(sys, ring)),
            (slot_log_pairings(inst), divisor_classes(sys, ring))):
        refs = se.pair_with_dual(ring, b, classes, log_map=pairings.log_map)
        for s, ref in zip(pairings.components(), refs.components(),
                          strict=True):
            low = {key: c for key, c in s.terms.items()
                   if xl.dot(inst.omega, key[0]) <= 6}
            assert low == ref.terms


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_low_degree_keys_equal_the_rational_filter(name):
    # series.solution_rank keeps the pairing terms of weight degree <= cap,
    # judged on integers; the rational dot product is the reference
    order = 4 if name.startswith("p1p1p1") else 6
    inst = checks.Instance(INSTANCES[name](), order=order)
    for cap in range(order + 1):
        expected = sorted({key for s in inst.pairings.components()
                           for key in s.terms
                           if xl.dot(inst.omega, key[0]) <= cap})
        assert checks.low_degree_keys(inst.pairings, inst.omega, cap) == \
            expected


def test_weight_rule():
    # the weight passed in, else the fan's own, else the default lift
    plain = CORPUS["p2"]()
    sys = gkz.build_system(plain)
    default = gkz.check_weight(sys, gkz.default_weight(sys))
    assert checks.Instance(plain, 4).omega == default
    weighted = toric.make_fan(plain.rank, plain.rays, plain.max_cones,
                              [[0, 1, 2]], ample_weight=(0, 2, 2, 2))
    assert checks.Instance(weighted, 4).omega == (0, 2, 2, 2)
    assert checks.Instance(weighted, 4, (0, 3, 3, 3)).omega == (0, 3, 3, 3)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_oracle_slab_cut_equals_an_order_8_slab(name):
    # above order 8 series.oracle_match reads the shared region slab cut at
    # weight degree 8; it must be the order-8 slab, in the same order
    inst = checks.Instance(CORPUS[name](), order=10)
    cut = checks.low_degree_slab(inst.region_slab, inst.omega, 8)
    assert cut == se.region_slab(inst.sys, inst.omega, 8)
    assert 0 < len(cut) < len(inst.region_slab)


WORK_COUNTED = [(se, "region_slab"), (xl, "lattice_points"),
                (pt, "polar_dual"), (pt, "section_polytope"),
                (gkz, "indicial_ideal_zero_locus"),
                (xl, "hermite_with_transform"), (xl, "in_integer_span")]
# builder, order, nonzero kernel vectors in the kernel check's box; p1xp1
# is the two-block partition
WORK_INSTANCES = {
    "p2": (CORPUS["p2"], 8, 0), "f1": (CORPUS["f1"], 8, 8),
    "p1xp1": (CORPUS["p1xp1"], 8, 8), "p1xp1_r1": (CORPUS["p1xp1_r1"], 8, 12),
    "p1p1p1_r1": (INSTANCES["p1p1p1_r1"], 4, 54)}


@pytest.mark.parametrize("name", sorted(WORK_INSTANCES))
def test_check_all_does_its_exact_work_once(name, monkeypatch):
    # one region slab (the Mori slab is the other lattice walk), one polar
    # dual and one double dual, each section polytope once, one indicial
    # locus, and one Hermite form of the basis columns for all the box
    # vectors the kernel check tests
    build, order, box = WORK_INSTANCES[name]
    inst = checks.Instance(build(), order)
    columns = tuple(zip(*inst.sys.basis))
    calls = {attr: 0 for _module, attr in WORK_COUNTED}
    for module, attr in WORK_COUNTED:
        def counted(*args, _fn=getattr(module, attr), _attr=attr, **kwargs):
            if _attr != "hermite_with_transform" or args[0] == columns:
                calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    assert all(r["ok"] for r in checks.run_all(inst))
    assert calls == {"region_slab": 1, "lattice_points": 2, "polar_dual": 2,
                     "section_polytope": inst.fan.r,
                     "indicial_ideal_zero_locus": 1,
                     "hermite_with_transform": 1, "in_integer_span": box}
