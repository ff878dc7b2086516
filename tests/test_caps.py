"""Every cap fails loudly: forced one at a time, each raises its typed error
with the cap's name in the message."""

import re

import pytest

from conftest import CORPUS
from gkzfrac import degeneracy as dg, gkz, series as se
from gkzfrac import triangulations as tr
from gkzfrac.errors import (ConfigError, NonTermination, SubdivisionFailed,
                            TruncationTooLarge)


def test_residue_expansion_names_max_terms(monkeypatch):
    sys = gkz.build_system(CORPUS["p2"]())
    monkeypatch.setenv("GKZFRAC_MAX_TERMS", "2")
    with pytest.raises(TruncationTooLarge, match="GKZFRAC_MAX_TERMS"):
        se.residue_oracle(sys, (-3, 1, 1, 1))


def test_slab_names_max_terms(monkeypatch):
    sys = gkz.build_system(CORPUS["p1"]())
    monkeypatch.setenv("GKZFRAC_MAX_TERMS", "2")
    with pytest.raises(TruncationTooLarge, match="GKZFRAC_MAX_TERMS"):
        se.region_slab(sys, gkz.default_weight(sys), 8)


@pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5", " "])
def test_bad_max_terms_is_a_typed_error(value, monkeypatch):
    # a cap that is not a positive integer is refused, not used or crashed on
    monkeypatch.setenv("GKZFRAC_MAX_TERMS", value)
    message = f"GKZFRAC_MAX_TERMS must be a positive integer, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        se.max_terms()
    sys = gkz.build_system(CORPUS["p1"]())
    with pytest.raises(ConfigError, match=re.escape(message)):
        se.region_slab(sys, gkz.default_weight(sys), 8)


@pytest.mark.parametrize("value,cap", [(None, se.DEFAULT_MAX_TERMS),
                                       ("", se.DEFAULT_MAX_TERMS),
                                       ("7", 7)])
def test_max_terms_reads_a_positive_integer(value, cap, monkeypatch):
    if value is None:
        monkeypatch.delenv("GKZFRAC_MAX_TERMS", raising=False)
    else:
        monkeypatch.setenv("GKZFRAC_MAX_TERMS", value)
    assert se.max_terms() == cap


def test_unbounded_slab_does_not_blame_max_terms():
    # the zero weight bounds no direction of the relation lattice
    sys = gkz.build_system(CORPUS["p1"]())
    with pytest.raises(TruncationTooLarge, match="unbounded") as err:
        se.region_slab(sys, (0,) * sys.nvars, 8)
    assert "GKZFRAC_MAX_TERMS" not in str(err.value)


@pytest.mark.parametrize("cap,value", [("GB_PAIR_CAP", 0),
                                       ("GB_BASIS_CAP", 2)])
def test_buchberger_names_its_cap(cap, value, monkeypatch):
    # f1 needs S-pairs that reduce to new binomials before it closes up;
    # they arise while saturating, which a system does once, so the capped
    # call starts from a fresh system
    sys = gkz.build_system(CORPUS["f1"]())
    omega = gkz.default_weight(sys)
    assert tr.toric_groebner_basis(sys, omega).generators
    monkeypatch.setattr(tr, cap, value)
    with pytest.raises(NonTermination, match=cap):
        tr.toric_groebner_basis(gkz.build_system(CORPUS["f1"]()), omega)


@pytest.mark.parametrize("fan_walk", [tr.secondary_fan, tr.groebner_fan])
def test_fan_walk_names_its_chamber_cap(fan_walk, monkeypatch):
    # both fans of P1xP1 have 4 chambers: a cap of 4 holds, 3 is passed
    sys = gkz.build_system(CORPUS["p1xp1"]())
    monkeypatch.setattr(tr, "FAN_CHAMBER_CAP", 4)
    assert len(fan_walk(sys)) == 4
    monkeypatch.setattr(tr, "FAN_CHAMBER_CAP", 3)
    with pytest.raises(NonTermination, match="FAN_CHAMBER_CAP"):
        fan_walk(sys)


def test_stellar_refine_names_depth_cap(monkeypatch):
    # a determinant-2 cone needs one level of stellar subdivision
    cone = ((1, 0), (1, 2))
    assert dg._stellar_refine([cone]) == [((1, 1), (1, 2)),
                                          ((1, 0), (1, 1))]
    monkeypatch.setattr(dg, "SUBDIVISION_DEPTH_CAP", 0)
    with pytest.raises(SubdivisionFailed, match="SUBDIVISION_DEPTH_CAP"):
        dg._stellar_refine([cone])
