import os
import random
import subprocess
from fractions import Fraction
from pathlib import Path
from sys import executable

import pytest

from conftest import p1_fan, p1xp1_fan_r2, p2_fan
from gkzfrac import gkz, toric
from gkzfrac import exact_linalg as xl
from gkzfrac.errors import NotInKernel

ROOT = Path(__file__).resolve().parent.parent


def falling_factorial_oracle(alpha, count):
    """Value of x^count d^count applied to x^alpha, divided by x^alpha."""
    out = Fraction(1)
    for k in range(count):
        out *= alpha - k
    return out


# --- build_system -----------------------------------------------------------------

def test_build_p1():
    sys = gkz.build_system(p1_fan())
    assert sys.a_ext == ((0, 1, -1), (1, 1, 1))
    assert sys.beta == (0, Fraction(-1, 2))
    assert sys.basis == [(-2, 1, 1)]
    assert sys.in_kernel((-2, 1, 1))


def test_build_p2():
    sys = gkz.build_system(p2_fan())
    assert len(sys.a_ext) == 3 and len(sys.a_ext[0]) == 4
    assert sys.beta == (0, 0, Fraction(-1, 2))
    assert sys.basis == [(-3, 1, 1, 1)]


def test_build_p1xp1():
    sys = gkz.build_system(p1xp1_fan_r2())
    assert len(sys.a_ext) == 4 and len(sys.a_ext[0]) == 6
    assert sys.beta == (0, 0, Fraction(-1, 2), Fraction(-1, 2))
    assert sys.basis == [(-2, 1, 1, 0, 0, 0), (0, 0, 0, -2, 1, 1)]


def test_basis_matches_collections(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    for pc in sys.collections:
        coords = sys.basis_coords(pc.ell_ext)
        assert sys.from_basis_coords(coords) == pc.ell_ext


# --- canonical alpha ----------------------------------------------------------------

def test_alpha_p1():
    sys = gkz.build_system(p1_fan())
    assert gkz.canonical_alpha(sys) == (Fraction(-1, 2), 0, 0)


def test_alpha_p2():
    sys = gkz.build_system(p2_fan())
    assert gkz.canonical_alpha(sys) == (Fraction(-1, 2), 0, 0, 0)


def test_alpha_p1xp1():
    sys = gkz.build_system(p1xp1_fan_r2())
    assert gkz.canonical_alpha(sys) == (
        Fraction(-1, 2), 0, 0, Fraction(-1, 2), 0, 0)


# --- indicial polynomials -------------------------------------------------------------

def test_indicial_p1():
    sys = gkz.build_system(p1_fan())
    poly = gkz.indicial_polynomial(sys, (-2, 1, 1))
    assert poly == gkz.Poly(3, {(0, 1, 1): 1})


def test_indicial_zero_vector():
    sys = gkz.build_system(p1_fan())
    assert gkz.indicial_polynomial(sys, (0, 0, 0)) == 1


def test_indicial_p2():
    sys = gkz.build_system(p2_fan())
    poly = gkz.indicial_polynomial(sys, (-3, 1, 1, 1))
    assert poly == gkz.Poly(4, {(0, 1, 1, 1): 1})


def test_indicial_not_in_kernel():
    sys = gkz.build_system(p1_fan())
    with pytest.raises(NotInKernel):
        gkz.indicial_polynomial(sys, (1, 0, 0))


def test_indicial_random_oracle(corpus_fan):
    """Cross-check against direct differentiation at random rational points."""
    sys = gkz.build_system(corpus_fan)
    rng = random.Random(31)
    for pc in sys.collections:
        poly = gkz.indicial_polynomial(sys, pc.ell_ext)
        plus, _ = xl.split_positive_negative(pc.ell_ext)
        assert poly.degree() == sum(plus)
        assert poly.leading_coefficient() == 1
        for _ in range(5):
            alpha = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     for _ in range(sys.nvars)]
            expected = Fraction(1)
            for j, e in enumerate(plus):
                expected *= falling_factorial_oracle(alpha[j], e)
            assert poly.evaluate(alpha) == expected


def test_indicial_scaled_relation():
    sys = gkz.build_system(p1_fan())
    poly = gkz.indicial_polynomial(sys, (-4, 2, 2))
    # a(a-1) in each of the two ray slots
    alpha = [Fraction(7), Fraction(3), Fraction(5)]
    assert poly.evaluate(alpha) == (3 * 2) * (5 * 4)


# --- zero locus -------------------------------------------------------------------------

def test_zero_locus_p1():
    sys = gkz.build_system(p1_fan())
    assert gkz.indicial_ideal_zero_locus(sys) == [(Fraction(-1, 2), 0, 0)]


def test_zero_locus_p2():
    sys = gkz.build_system(p2_fan())
    assert gkz.indicial_ideal_zero_locus(sys) == [(Fraction(-1, 2), 0, 0, 0)]


def test_zero_locus_p1xp1():
    sys = gkz.build_system(p1xp1_fan_r2())
    assert gkz.indicial_ideal_zero_locus(sys) == [
        (Fraction(-1, 2), 0, 0, Fraction(-1, 2), 0, 0)]


def test_zero_locus_is_canonical(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    locus = gkz.indicial_ideal_zero_locus(sys)
    assert locus == [gkz.canonical_alpha(sys)]


# --- surjection check -------------------------------------------------------------------

def test_surjection_corpus(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ring = toric.cohomology_ring(corpus_fan, sys.collections)
    assert gkz.indicial_ring_surjection_check(sys, ring)


# --- operators -----------------------------------------------------------------------------

def test_euler_operators_match_rows(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    ops = sys.euler_operators()
    assert len(ops) == sys.n + sys.r
    for op in ops:
        assert op.coeffs == tuple(sys.a_ext[op.row])
        assert op.eigenvalue == sys.beta[op.row]


def test_box_operators_split(corpus_fan):
    sys = gkz.build_system(corpus_fan)
    for op in sys.box_operators():
        assert xl.vec_sub(op.plus, op.minus) == op.ell
        assert sys.in_kernel(op.ell)
        assert xl.mat_vec(sys.a_ext, op.plus) == xl.mat_vec(sys.a_ext, op.minus)


def test_euler_eigenvalue_on_monomials(corpus_fan):
    """Euler rows act on any kernel-shifted exponent by the eigenvalue."""
    sys = gkz.build_system(corpus_fan)
    alpha = gkz.canonical_alpha(sys)
    rng = random.Random(47)
    for _ in range(20):
        coeffs = [rng.randint(-4, 4) for _ in sys.basis]
        ell = sys.from_basis_coords(coeffs)
        gamma = [Fraction(a) + e for a, e in zip(alpha, ell)]
        for op in sys.euler_operators():
            # x_j d_j scales the monomial by its exponent in slot j
            value = sum(Fraction(c) * gamma[j]
                        for j, c in enumerate(op.coeffs))
            assert value == op.eigenvalue


def test_off_lattice_vector_is_not_in_kernel_without_asserts():
    """``basis_coords`` rejects a vector off the relation lattice with the
    typed error, not an assert, so a run under ``python -O`` rejects it too:
    the chart coordinates of (0, 0, 0, 1) on p2 raise NotInKernel."""
    code = "\n".join([
        "from gkzfrac import cli, degeneracy as dg, gkz",
        "from gkzfrac.errors import NotInKernel",
        "sys = gkz.build_system(cli.parse_input(cli.fixture_path('p2')).fan())",
        "chart = dg.subdivide_kahler_cone(sys)[0]",
        "try:",
        "    print(dg.chart_coordinates(sys, chart, [(0, 0, 0, 1)]))",
        "except NotInKernel as exc:",
        "    print(type(exc).__name__, exc)",
    ])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([executable, "-O", "-B", "-c", code],
                            capture_output=True, text=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("NotInKernel (0, 0, 0, 1) is not a relation of "
                             "the configuration\n")
