import random
from fractions import Fraction

import pytest

from test_ring_table import INSTANCES
from gkzfrac import checks, gkz
from gkzfrac import exact_linalg as xl
from gkzfrac.errors import DimensionMismatch, RankDeficient


# --- independent oracles ------------------------------------------------------

def spans_same_columns(a, b):
    """Integer column spans agree: every column of each lies in the other."""
    cols_a = list(zip(*a))
    cols_b = list(zip(*b))
    return (all(xl.in_integer_span(a, v) for v in cols_b)
            and all(xl.in_integer_span(b, v) for v in cols_a))


def brute_force_kernel_vectors(m, bound=5):
    """All kernel vectors with entries in [-bound, bound], by enumeration."""
    ncols = len(m[0])
    found = []

    def rec(prefix):
        if len(prefix) == ncols:
            if all(xl.dot(row, prefix) == 0 for row in m):
                found.append(tuple(prefix))
            return
        for v in range(-bound, bound + 1):
            rec(prefix + [v])

    rec([])
    return found


# --- hermite_basis ------------------------------------------------------------

def test_hnf_identity():
    assert xl.hermite_basis(((1, 0), (0, 1))) == ((1, 0), (0, 1))


def test_hnf_column_span_preserved():
    m = ((2, 4), (0, 0))
    h = xl.hermite_basis(m)
    assert h == ((2, 0), (0, 0))
    assert spans_same_columns(m, h)


def test_hnf_det_preserved_up_to_sign():
    m = ((1, 1), (1, -1))
    h = xl.hermite_basis(m)
    assert abs(xl.det(h)) == abs(xl.det(m)) == 2
    assert spans_same_columns(m, h)


def test_hnf_transform_unimodular():
    rng = random.Random(20240)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(cols))
                  for _ in range(rows))
        h, u = xl.hermite_with_transform(m)
        assert abs(xl.det(u)) == 1
        assert xl.mat_mul(m, u) == h
        assert spans_same_columns(m, h)


# --- kernel_basis -------------------------------------------------------------

def test_kernel_p1():
    a_ext = ((0, 1, -1), (1, 1, 1))
    assert xl.kernel_basis(a_ext) == [(-2, 1, 1)]


def test_kernel_p2():
    a_ext = ((0, 1, 0, -1), (0, 0, 1, -1), (1, 1, 1, 1))
    assert xl.kernel_basis(a_ext) == [(-3, 1, 1, 1)]


def test_kernel_square_invertible():
    assert xl.kernel_basis(((2, 1), (1, 1))) == []


def test_kernel_rank_deficient():
    with pytest.raises(RankDeficient):
        xl.kernel_basis(((1, 2), (2, 4)))


def test_kernel_saturated_box_five():
    """Every small kernel vector of the lifted line matrix is in the span."""
    m = ((0, 1, -1), (1, 1, 1))
    basis = xl.kernel_basis(m)
    bmat = tuple(zip(*basis))
    for v in brute_force_kernel_vectors(m, bound=5):
        assert xl.in_integer_span(bmat, v)


def random_full_rank_matrices(seed=77, count=25):
    """Random 2-row integer matrices of full row rank, with their kernels."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        rows, cols = 2, rng.randint(3, 4)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(cols))
                  for _ in range(rows))
        try:
            found.append((m, xl.kernel_basis(m)))
        except RankDeficient:
            continue
    return found


def test_kernel_saturated_random():
    for m, basis in random_full_rank_matrices():
        for b in basis:
            assert all(xl.dot(row, b) == 0 for row in m)
        if basis:
            bmat = tuple(zip(*basis))
            for v in brute_force_kernel_vectors(m, bound=3):
                assert xl.in_integer_span(bmat, v)


# --- kernel_points_in_box -------------------------------------------------------

def check_box_bound(nvars):
    """The box half-width the ``exact_linalg.kernel`` check sweeps."""
    bound = 2
    while (2 * bound + 1) ** nvars > 200000 and bound > 1:
        bound -= 1
    return bound


def nonzero_box_kernel(m, bound):
    return sorted(v for v in brute_force_kernel_vectors(m, bound) if any(v))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_kernel_points_in_box_equals_brute_force(name):
    a_ext = gkz.build_system(INSTANCES[name]()).a_ext
    bound = check_box_bound(len(a_ext[0]))
    assert xl.kernel_points_in_box(a_ext, bound) == \
        nonzero_box_kernel(a_ext, bound)


def test_kernel_points_in_box_random():
    for m, _basis in random_full_rank_matrices():
        assert xl.kernel_points_in_box(m, 3) == nonzero_box_kernel(m, 3)


@pytest.mark.parametrize("name,count", [("f1", 8), ("p1xp1_r1", 12),
                                        ("p1p1p1_r1", 54),
                                        ("p1p1p1_r3", 0)])
def test_kernel_check_tests_each_box_kernel_vector(name, count,
                                                   monkeypatch):
    inst = checks.Instance(INSTANCES[name](), order=4)
    bound = check_box_bound(inst.sys.nvars)
    assert len(nonzero_box_kernel(inst.sys.a_ext, bound)) == count
    calls = []
    original = xl.in_integer_span
    monkeypatch.setattr(xl, "in_integer_span",
                        lambda m, v: calls.append(v) or original(m, v))
    assert dict(checks.CHECKS)["exact_linalg.kernel"](inst) == (
        True, f"saturation verified on the [-{bound},{bound}] box")
    assert len(calls) == count


# --- split_positive_negative ---------------------------------------------------

@pytest.mark.parametrize("v,plus,minus", [
    ((-3, 1, 1, 1), (0, 1, 1, 1), (3, 0, 0, 0)),
    ((0, 0), (0, 0), (0, 0)),
    ((5, 0, -2), (5, 0, 0), (0, 0, 2)),
])
def test_split(v, plus, minus):
    p, m = xl.split_positive_negative(v)
    assert (p, m) == (plus, minus)
    assert xl.vec_sub(p, m) == v
    assert all(a == 0 or b == 0 for a, b in zip(p, m))


# --- is_unimodular_lattice_basis ------------------------------------------------

def test_unimodular_same_basis():
    basis = [(1, 0, 2), (0, 1, 1)]
    assert xl.is_unimodular_lattice_basis(basis, basis)


def test_unimodular_index_two():
    assert not xl.is_unimodular_lattice_basis([(2, 0)], [(1, 0)])


def test_unimodular_triangular_change():
    basis = [(1, 0), (0, 1)]
    assert xl.is_unimodular_lattice_basis([(1, 1), (0, 1)], basis)


def test_unimodular_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        xl.is_unimodular_lattice_basis([(1, 0)], [(1, 0), (0, 1)])


# --- rational and integer solving ----------------------------------------------

def test_solve_linear_unique():
    sol = xl.solve_unique(((2, 0), (0, 3)), (4, 9))
    assert sol == (Fraction(2), Fraction(3))


def test_solve_linear_inconsistent():
    assert xl.solve_linear(((1, 1), (1, 1)), (0, 1)) is None


def test_solve_integer_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(cols))
                  for _ in range(rows))
        x = tuple(rng.randint(-3, 3) for _ in range(cols))
        b = xl.mat_vec(m, x)
        y = xl.solve_integer(m, b)
        assert y is not None
        assert xl.mat_vec(m, y) == b


# --- Fourier-Motzkin -------------------------------------------------------------

def test_fm_feasible_simplex():
    # x >= 0, y >= 0, x + y <= 1 strictly feasible
    rows = [((-1, 0), 0, True), ((0, -1), 0, True), ((1, 1), 1, True)]
    assert xl.fm_feasible(rows, 2)


def test_fm_infeasible():
    rows = [((1,), 0, False), ((-1,), -1, False)]  # x <= 0 and x >= 1
    assert not xl.fm_feasible(rows, 1)


def test_lattice_points_triangle():
    # x >= 0, y >= 0, x + y <= 2
    rows = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)]
    pts = xl.lattice_points(rows, 2)
    assert sorted(pts) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_lattice_points_empty():
    rows = [((1,), -1), ((-1,), 0)]  # x <= -1 and x >= 0
    assert xl.lattice_points(rows, 1) == []
