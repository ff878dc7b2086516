"""The triple product of projective lines: an odd-dimensional instance.

Double covers of threefolds are the headline case (their middle cohomology
carries the full period lattice), so the whole registry runs here for both
the one-block partition and the fully split one, whose exponent has three
half-integral entries.
"""

from fractions import Fraction

import pytest

from gkzfrac import checks, gkz, series as se, toric
from gkzfrac import degeneracy as dg

RAYS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
CONES = [[i, j, k] for i in (0, 1) for j in (2, 3) for k in (4, 5)]


def threefold(partition, tag):
    return toric.make_fan(3, RAYS, CONES, partition, name=tag)


@pytest.mark.parametrize("partition,tag", [
    ([[0, 1, 2, 3, 4, 5]], "r1"),
    ([[0, 1], [2, 3], [4, 5]], "r3"),
])
def test_threefold_registry(partition, tag):
    fan = threefold(partition, tag)
    results = checks.run_all(checks.Instance(fan, order=4))
    bad = [r for r in results if not r["ok"]]
    assert not bad, bad


def test_threefold_r3_structure():
    fan = threefold([[0, 1], [2, 3], [4, 5]], "r3")
    sys = gkz.build_system(fan)
    assert sys.beta[3:] == (Fraction(-1, 2),) * 3
    assert len(sys.basis) == 3
    ring = toric.cohomology_ring(fan, sys.collections)
    assert ring.dim == 8
    omega = gkz.default_weight(sys)
    # the product structure shows in the period coefficients
    ell = sys.from_basis_coords((1, 1, 1))
    assert se.period_coefficient_C(sys, ell) == Fraction(27, 64)
    assert se.residue_oracle(sys, ell) == Fraction(27, 64)
    # three log slots stratify the eight solutions as 1, 3, 3, 1
    chart = dg.subdivide_kahler_cone(sys)[0]
    pairings = dg.chart_pairings(
        sys, ring, chart, se.b_series(sys, ring, omega, 3)).components()
    profile = sorted(max((sum(m) for _, m in s.terms), default=0)
                     for s in pairings)
    assert profile == [0, 1, 1, 1, 2, 2, 2, 3]
