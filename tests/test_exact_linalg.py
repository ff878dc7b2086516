import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm

import pytest

from test_random_fans import (BIPARTITION_SEEDS, INVARIANT_SEEDS,
                              bipartition_fans, invariant_fans)
from test_ring_table import (INSTANCES, REFERENCE_ORDERS, SQUARE8, TRIANGLE9,
                             cyclic_surface)
from gkzfrac import checks, gkz, series as se, toric
from gkzfrac import degeneracy as dg
from gkzfrac import exact_linalg as xl
from gkzfrac import polytopes as pt
from gkzfrac import triangulations as tr
from gkzfrac.errors import (DimensionMismatch, EmptyInterior, RankDeficient,
                             TruncationTooLarge)


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


# --- the Fraction elimination that the integer one replaced ---------------------

def fraction_rref(m):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivots) where pivots[i] is the column of the i-th pivot.
    """
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        a[row] = [x / a[row][col] for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return [tuple(row) for row in a], pivots


def fraction_det(m):
    """Exact determinant via fraction-free elimination on a copy."""
    k = len(m)
    if k == 0:
        return 1
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, k):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    result = Fraction(sign)
    for i in range(k):
        result *= a[i][i]
    if result.denominator == 1:
        return int(result)
    return result


def random_matrices(seed=4242, count=400):
    """Seeded matrices of every shape the elimination must handle: wide,
    tall and square; rank-deficient; with zero rows or columns; with
    negative and Fraction entries; and empty."""
    rng = random.Random(seed)

    def entry(kind):
        x = rng.randint(-7, 7) if rng.random() < 0.75 else 0
        if kind == "fraction" and rng.random() < 0.5:
            return Fraction(x, rng.randint(1, 9))
        return x

    found = [[], [()], [(), ()], [(0,)], [(0, 0), (0, 0)], [(Fraction(3, 4),)]]
    while len(found) < count:
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        kind = rng.choice(["int", "fraction"])
        m = [[entry(kind) for _ in range(ncols)] for _ in range(nrows)]
        defect = rng.choice(["none", "combination", "zero_row", "zero_col"])
        if defect == "combination" and nrows > 1:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m[-1] = [x + c * y for x, y in zip(m[0], m[rng.randrange(nrows)])]
        elif defect == "zero_row":
            m[rng.randrange(nrows)] = [0] * ncols
        elif defect == "zero_col":
            col = rng.randrange(ncols)
            for row in m:
                row[col] = 0
        found.append([tuple(row) for row in m])
    return found


def entry_types(rows):
    return [[type(x) for x in row] for row in rows]


def test_random_matrices_cover_every_shape():
    shapes = {(len(m) < len(m[0]), len(m) > len(m[0]))
              for m in random_matrices() if m and m[0]}
    assert shapes == {(True, False), (False, True), (False, False)}
    assert any(len(fraction_rref(m)[1]) < min(len(m), len(m[0]))
               for m in random_matrices() if m and m[0])


def echelon_cases():
    """The seeded matrices, and the same matrices with a row repeated, a
    zero row added and every row emptied."""
    cases = random_matrices()
    for m in random_matrices(seed=4343, count=120):
        if m and m[0]:
            cases += [m + [m[0]], [(0,) * len(m[0])] + m, [()] * len(m)]
    return cases


def fraction_echelon(m):
    """``echelon`` read off the Fraction reference: its nonzero rows, each
    scaled to integers."""
    rows, pivots = fraction_rref(m)
    return [xl.integer_scaled(row)[0] for row in rows[:len(pivots)]], pivots


def test_echelon_cases_cover_repeated_zero_and_empty_rows():
    cases = echelon_cases()
    assert any(len(set(m)) < len(m) and any(map(any, m)) for m in cases)
    assert any(not any(m[0]) and len(m[0]) for m in cases if m)
    assert any(m and not m[0] for m in cases) and [] in cases
    assert {type(x) for m in cases for row in m for x in row} == {int, Fraction}


def test_echelon_equals_fraction_reference():
    for m in echelon_cases():
        rows, pivots = xl.echelon(m)
        expected_rows, expected_pivots = fraction_rref(m)
        assert pivots == expected_pivots, m
        assert all(type(x) is int for row in rows for x in row), m
        assert [tuple(Fraction(x, row[col]) for x in row)
                for row, col in zip(rows, pivots)] == \
            expected_rows[:len(pivots)], m
        assert not any(map(any, expected_rows[len(pivots):])), m


def test_rank_equals_fraction_reference():
    for m in random_matrices():
        assert xl.rank(m) == len(fraction_rref(m)[1]), m


def test_rank_stops_at_full_row_rank():
    # the first two columns already give rank 2; a later column is never read
    class Poison(int):
        @property
        def denominator(self):
            raise AssertionError("column read after full rank")

    assert xl.rank([(1, 0, Poison(5)), (0, 1, Poison(7))]) == 2
    assert xl.rank([(1, 2, 3), (2, 4, 6)]) == 1
    # a tall matrix is swept row by row: a later row is never read
    assert xl.rank([(1, 0), (0, 1), (Poison(5), Poison(7))]) == 2


def test_det_equals_fraction_reference():
    for m in random_matrices():
        if m and len(m) <= len(m[0]):
            square = [row[:len(m)] for row in m]
            value, expected = xl.det(square), fraction_det(square)
            assert value == expected and type(value) is type(expected), m


@pytest.mark.parametrize("solve", ["solve_linear", "solve_unique"])
def test_solving_equals_fraction_reference(solve, monkeypatch):
    rng = random.Random(99)
    cases = []
    for m in random_matrices():
        if not m or not m[0]:
            continue
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in m[0]]
        consistent = tuple(xl.dot(row, x) for row in m)
        arbitrary = tuple(rng.randint(-5, 5) for _ in m)
        cases += [(m, consistent), (m, arbitrary)]
    got = [getattr(xl, solve)(m, b) for m, b in cases]
    monkeypatch.setattr(xl, "echelon", fraction_echelon)
    expected = [getattr(xl, solve)(m, b) for m, b in cases]
    assert got == expected
    for value, reference in zip(got, expected):
        if solve == "solve_linear" and value is not None:
            particular, null = value
            assert entry_types([particular] + null) == \
                entry_types([reference[0]] + reference[1])
        elif value is not None:
            assert entry_types([value]) == entry_types([reference])
    assert any(v is None for v in got) and any(v is not None for v in got)


# --- each caller of echelon against its form on the Fraction rref ------------------

def rref_solve_linear(m, b):
    """``solve_linear`` as it read the Fraction rref."""
    if not m:
        return ((), [])
    ncols = len(m[0])
    rows, pivots = fraction_rref([tuple(row) + (bi,) for row, bi in zip(m, b)])
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = rows[i][ncols]
    null = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -rows[i][f]
        null.append(tuple(v))
    return tuple(particular), null


def rref_hull_equations(points):
    """The equations of ``hull_facets`` as they were read off the rref."""
    p0 = points[0]
    reduced, pivots = fraction_rref([xl.vec_sub(p, p0) for p in points[1:]])
    equations = []
    for f in range(len(p0)):
        if f not in pivots:
            n = [int(c == f) for c in range(len(p0))]
            for row, col in zip(reduced, pivots):
                n[col] = -row[f]
            n = xl.primitive_vector(xl.integer_scaled(n)[0])
            equations.append((n, xl.dot(n, p0)))
    return equations


def rref_unimodular_inverse(m):
    """``unimodular_inverse`` as it read the rref of [m | I]."""
    k = len(m)
    reduced, _ = fraction_rref([tuple(row) + tuple(int(i == j) for j in range(k))
                                for i, row in enumerate(m)])
    return tuple(tuple(int(x) for x in row[k:]) for row in reduced)


def rref_kernel_points_in_box(m, bound):
    """``kernel_points_in_box`` as it solved the pivots from the rref."""
    ncols = len(m[0])
    rows, pivots = fraction_rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    solved = []
    for col, row in zip(pivots, rows):
        den = lcm(*(row[f].denominator for f in free))
        solved.append((col, den, [(f, int(-row[f] * den)) for f in free
                                  if row[f]]))
    out = []
    for xs in product(range(-bound, bound + 1), repeat=len(free)):
        v = [0] * ncols
        for f, x in zip(free, xs):
            v[f] = x
        for col, den, coeffs in solved:
            value, rem = divmod(sum(c * v[f] for f, c in coeffs), den)
            if rem or abs(value) > bound:
                break
            v[col] = value
        else:
            if any(v):
                out.append(tuple(v))
    return sorted(out)


def random_unimodular(rng, k):
    """A k x k integer matrix of determinant +-1 from seeded row operations."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(8):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        if i != j:
            c = rng.randint(-3, 3)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i] = [-x for x in m[i]]
    return m


def test_solve_linear_equals_its_rref_form():
    rng = random.Random(98)
    tested = 0
    for m in random_matrices():
        if m and m[0]:
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in m[0]]
            for b in (tuple(xl.dot(row, x) for row in m),
                      tuple(rng.randint(-5, 5) for _ in m)):
                value, expected = xl.solve_linear(m, b), rref_solve_linear(m, b)
                assert value == expected, (m, b)
                if value is not None:
                    tested += 1
                    assert entry_types([value[0]] + value[1]) == \
                        entry_types([expected[0]] + expected[1])
    assert tested > 100


def test_hull_equations_equal_their_rref_form():
    rng = random.Random(1995)
    dims = set()
    for rank in range(1, 5):
        for _ in range(20):
            p0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                  for _ in range(rank)]
            dirs = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 3)))
                     for _ in range(rank)]
                    for _ in range(rng.randint(0, rank))]
            points = [tuple(p + sum(rng.randint(-2, 2) * d[i] for d in dirs)
                            for i, p in enumerate(p0))
                      for _ in range(rng.randint(1, rank + 5))]
            points = pt._dedupe(points)
            dims.add((rank, affine_dim(points)))
            assert xl.hull_facets(points)[0] == rref_hull_equations(points), \
                points
    assert {(rank, d) for rank in range(1, 5) for d in range(rank + 1)} \
        <= dims


def test_unimodular_inverse_equals_its_rref_form():
    rng = random.Random(6)
    for _ in range(80):
        m = random_unimodular(rng, rng.randint(1, 6))
        assert xl.unimodular_inverse(m) == rref_unimodular_inverse(m), m


def test_kernel_points_in_box_equal_their_rref_form():
    found = 0
    for m in random_matrices(seed=4545, count=150):
        if m and m[0] and len(m[0]) <= 5:
            bound = 2 if len(m[0]) <= 4 else 1
            points = xl.kernel_points_in_box(m, bound)
            assert points == rref_kernel_points_in_box(m, bound), m
            found += bool(points)
    assert found > 20


def null_space_cases(seed=1904, per_shape=4):
    """Seeded integer row sets of 1 to 6 columns and every null dimension
    from 0 to the column count, with zero and repeated rows and integer
    combinations of the others mixed in."""
    rng = random.Random(seed)
    cases = []
    for ncols in range(1, 7):
        for null_dim in range(ncols + 1):
            for _ in range(per_shape):
                while True:
                    rows = [[rng.randint(-4, 4) for _ in range(ncols)]
                            for _ in range(ncols - null_dim)]
                    if xl.rank(rows) == len(rows):
                        break
                for _ in range(rng.randint(0, 3)):
                    kind = rng.choice(["zero", "repeat", "combination"])
                    if kind == "zero" or not rows:
                        rows.append([0] * ncols)
                    elif kind == "repeat":
                        rows.append(list(rng.choice(rows)))
                    else:
                        a, b = rng.choice(rows), rng.choice(rows)
                        c, d = rng.randint(-3, 3), rng.randint(-3, 3)
                        rows.append([c * x + d * y for x, y in zip(a, b)])
                rng.shuffle(rows)
                cases.append((rows, ncols, null_dim))
    return cases


def sparse_rows(rows):
    return [[(c, x) for c, x in enumerate(row) if x] for row in rows]


def test_null_basis_equals_solve_linear():
    dims = set()
    for rows, ncols, null_dim in null_space_cases():
        null = xl.null_basis(sparse_rows(rows), ncols)
        if rows:
            assert null == xl.solve_linear(rows, (0,) * len(rows))[1], rows
        assert len(null) == null_dim
        assert all(type(x) is Fraction for v in null for x in v)
        dims.add((ncols, null_dim))
    assert dims == {(n, k) for n in range(1, 7) for k in range(n + 1)}


def test_null_basis_of_no_rows_is_the_identity():
    for ncols in range(6):
        assert xl.null_basis([], ncols) == [
            tuple(Fraction(int(i == j)) for i in range(ncols))
            for j in range(ncols)]
    # zero rows alone leave it too
    assert xl.null_basis([[], []], 2) == [(1, 0), (0, 1)]


# --- primitive_normal and the three routines it replaced ---------------------------

def polytopes_primitive_normal(diffs, rank):
    """Primitive integer normal of the hyperplane spanned by diffs, or None."""
    scaled = []
    for d in diffs:
        den = 1
        for x in d:
            den = den * Fraction(x).denominator // _gcd(den, Fraction(x).denominator)
        scaled.append(tuple(int(Fraction(x) * den) for x in d))
    rows, pivots = fraction_rref(scaled) if scaled else ([], [])
    if len(pivots) != rank - 1:
        return None
    free = [c for c in range(rank) if c not in pivots]
    normal = [Fraction(0)] * rank
    normal[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        normal[col] = -rows[i][free[0]]
    den = 1
    for x in normal:
        den = den * x.denominator // _gcd(den, x.denominator)
    return xl.primitive_vector(tuple(int(x * den) for x in normal))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a if a else 1


def dual_cone_null_vector(m, dim):
    """The candidate ray of one inequality subset in the double description."""
    rows, pivots = fraction_rref(m)
    if len(pivots) != dim - 1:
        return None
    free = [c for c in range(dim) if c not in pivots][0]
    cand = [Fraction(0)] * dim
    cand[free] = Fraction(1)
    for i, col in enumerate(pivots):
        cand[col] = -rows[i][free]
    den = 1
    for x in cand:
        den = den * x.denominator // gcd(den, x.denominator)
    return xl.primitive_vector(tuple(int(x * den) for x in cand))


def degeneracy_facet_normal(pair, rays):
    rows, pivots = fraction_rref(pair)
    free = [c for c in range(3) if c not in pivots]
    if len(free) != 1:
        return None
    normal = [Fraction(0)] * 3
    normal[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        normal[col] = -rows[i][free[0]]
    vals = [xl.dot(normal, r) for r in rays]
    if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
        return tuple(normal)
    return None


def random_rows_of_corank(rng, dim, corank, kind):
    """Rows of length dim spanning a space of dimension dim - corank, some
    of them repeated as rational combinations of the others."""
    while True:
        basis = [[rng.randint(-6, 6) for _ in range(dim)]
                 for _ in range(dim - corank)]
        if kind == "fraction":
            basis = [[Fraction(x, rng.randint(1, 5)) for x in row]
                     for row in basis]
        rows = [tuple(row) for row in basis]
        for _ in range(rng.randint(0, 2) if rows else 0):
            a, b = rng.choice(rows), rng.choice(rows)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.insert(rng.randrange(len(rows) + 1),
                        tuple(x + c * y for x, y in zip(a, b)))
        if xl.rank(rows) == dim - corank:
            return rows


def primitive_normal_cases(seed=808, per_shape=12):
    rng = random.Random(seed)
    cases = [([], dim) for dim in range(1, 5)]
    for dim in range(1, 5):
        for corank in range(min(dim, 2) + 1):
            for kind in ("int", "fraction"):
                for _ in range(per_shape):
                    cases.append((random_rows_of_corank(rng, dim, corank, kind),
                                  dim))
    return cases


def test_primitive_normal_cases_cover_every_corank():
    coranks = {(dim, dim - xl.rank(rows))
               for rows, dim in primitive_normal_cases()}
    assert {(dim, k) for dim in range(1, 5) for k in range(min(dim, 2) + 1)} \
        <= coranks


def test_primitive_normal_equals_the_replaced_routines():
    found = 0
    for rows, dim in primitive_normal_cases():
        normal = xl.primitive_normal(rows, dim)
        assert normal == polytopes_primitive_normal(rows, dim), (rows, dim)
        assert normal == dual_cone_null_vector(rows, dim), (rows, dim)
        if dim == 3 and rows:
            old = degeneracy_facet_normal(rows, ())
            assert normal == (None if old is None
                              else xl.primitive_vector(xl.integer_scaled(old)[0]))
        if normal is not None:
            found += 1
            assert all(type(x) is int for x in normal)
            assert all(xl.dot(row, normal) == 0 for row in rows)
            assert xl.primitive_vector(normal) == normal
            free = next(c for c in range(dim)
                        if c not in xl.echelon(rows)[1])
            assert normal[free] > 0
    assert found > 0


# --- extreme_rays and the subset searches it replaced ------------------------------

def dual_cone_extreme_rays(inequalities, dim):
    """Extreme rays of {y : g . y >= 0}, one candidate per (dim - 1)-subset
    of the rows: the enumerator of the old ``toric`` module."""
    if dim == 1:
        rays = set()
        for cand in ((1,), (-1,)):
            if all(xl.dot(g, cand) >= 0 for g in inequalities):
                rays.add(cand)
        if len(rays) == 2:
            raise EmptyInterior("cone is a full line, not pointed")
        return sorted(rays)
    rays = set()
    for subset in combinations(range(len(inequalities)), dim - 1):
        cand = xl.primitive_normal([inequalities[i] for i in subset], dim)
        if cand is None:
            continue
        for signed in (cand, tuple(-x for x in cand)):
            if all(xl.dot(g, signed) >= 0 for g in inequalities):
                rays.add(signed)
    return sorted(rays)


def subset_hull_facets(points):
    """Facets (a, c) of a full-dimensional hull, one candidate per
    rank-subset of the points: the loop of the old ``convex_hull``."""
    points = pt._dedupe(points)
    rank = len(points[0])
    facets = set()
    for subset in combinations(points, rank):
        p0 = subset[0]
        diffs = [xl.vec_sub(p, p0) for p in subset[1:]]
        a = xl.primitive_normal(diffs, rank)
        if a is None:
            continue
        c = xl.dot(a, p0)
        vals = [xl.dot(a, p) for p in points]
        if all(v <= c for v in vals):
            facets.add((a, c))
        elif all(v >= c for v in vals):
            facets.add((tuple(-x for x in a), -c))
    return sorted(facets)


def vertices_from_inequalities(ineqs, rank):
    """Vertex set of the bounded region {x : a.x <= c} by basic solutions."""
    verts = set()
    for subset in combinations(ineqs, rank):
        m = tuple(a for a, _ in subset)
        b = tuple(c for _, c in subset)
        sol = xl.solve_unique(m, b)
        if sol is None:
            continue
        if all(xl.dot(a, sol) <= c for a, c in ineqs):
            verts.add(tuple(sol))
    return sorted(verts)


def rays_or_error(enumerate_rays, rows, dim):
    try:
        return enumerate_rays(rows, dim)
    except EmptyInterior as exc:
        return str(exc)


def affine_dim(points):
    return xl.rank([xl.vec_sub(p, points[0]) for p in points])


def typed_facets(facets):
    return [(a, c, type(c), [type(x) for x in a]) for a, c in facets]


def assert_hull_equals_the_subset_loop(points):
    """A hull of any dimension: its equations hold on every point, and its
    facets, read in the pivot coordinates of the point differences, are
    the subset loop's facets of the points there."""
    hull = pt.convex_hull(points)
    points = pt._dedupe(points)
    pivots = xl.echelon([xl.vec_sub(p, points[0]) for p in points])[1]
    assert len(hull.equations) == len(points[0]) - len(pivots) == \
        len(points[0]) - hull.dim
    assert all(xl.dot(a, p) == c for a, c in hull.equations for p in points)
    if pivots:
        reduced = [tuple(p[i] for i in pivots) for p in points]
        assert typed_facets([(tuple(a[i] for i in pivots), c)
                             for a, c in hull.facets]) == \
            typed_facets(subset_hull_facets(reduced)), points
        assert all(x == 0 for a, _ in hull.facets
                   for i, x in enumerate(a) if i not in pivots)


ENGINE_INSTANCES = dict(INSTANCES)
for _seed in INVARIANT_SEEDS:
    for _i in range(2):
        ENGINE_INSTANCES[f"random{_seed}_{_i}"] = \
            lambda seed=_seed, i=_i: invariant_fans(seed)[i]
for _seed in BIPARTITION_SEEDS:
    ENGINE_INSTANCES[f"random2_{_seed}"] = \
        lambda seed=_seed: bipartition_fans(seed)[0]


@pytest.mark.parametrize("name", sorted(ENGINE_INSTANCES))
def test_engine_equals_the_enumerators_on_instance_cones(name, monkeypatch):
    """Every cone and hull an instance builds (Kahler cone, secondary cones,
    Groebner chambers, facets of the Kahler cone, nablas, polar duals and
    section polytopes) agrees with the enumerator the engine replaced."""
    fan = ENGINE_INSTANCES[name]()
    cones, hulls = [], []
    engine, hull = xl.extreme_rays, pt.convex_hull

    def record_cone(rows, dim):
        cones.append((list(rows), dim))
        return engine(rows, dim)

    def record_hull(points):
        hulls.append(list(points))
        return hull(points)

    monkeypatch.setattr(xl, "extreme_rays", record_cone)
    monkeypatch.setattr(pt, "convex_hull", record_hull)
    inst = checks.Instance(fan, order=1)
    sys = inst.sys
    tr.secondary_cone(sys, inst.points, inst.tmax)
    if len(sys.basis) <= 2:
        tr.secondary_fan(sys)
        tr.groebner_fan(sys)
    inst.nablas
    if len(sys.basis) <= 3:  # cone splitting stops at rank 3
        dg.subdivide_kahler_cone(sys)
    monkeypatch.undo()
    for rows, dim in cones:
        assert xl.extreme_rays(rows, dim) == dual_cone_extreme_rays(rows, dim), \
            (rows, dim)
    for points in hulls:
        assert_hull_equals_the_subset_loop(points)
    for k in range(fan.r):
        ineqs = []
        for i_ray, ray in enumerate(fan.rays):
            rhs = 1 if fan.block_of_ray[i_ray] == k else 0
            ineqs.append((tuple(-x for x in ray), Fraction(rhs)))
        expected = vertices_from_inequalities(ineqs, fan.rank)
        assert list(pt.section_polytope(fan, k).vertices) == \
            [tuple(int(x) for x in v) for v in expected]
    assert len(cones) > len(hulls) > 2 * fan.r


def random_cone_rows(rng, dim, kind):
    """Rows of a cone {y : g . y >= 0} in dimension dim of the given kind,
    then decorated with duplicate, zero, redundant and rescaled rows.

    ``pointed``: full-dimensional; ``flat``: pointed but in a hyperplane;
    ``zero``: the cone {0}; ``line``: lineality space a line; ``lineality``:
    lineality space of dimension at least 2; ``full_line``: dimension 1, no
    nonzero row.
    """
    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(dim))

    if kind == "full_line":
        rows = [(0,)] * rng.randint(0, 2)
    elif kind in ("pointed", "flat"):
        w = vec()
        while not any(w):
            w = vec()
        rows = []
        while len(rows) < dim + rng.randint(0, 4) or xl.rank(rows) < dim:
            g = vec()
            if xl.dot(g, w) > 0:
                rows.append(g)
        if kind == "flat":
            h = vec()
            h = xl.vec_sub(xl.vec_scale(xl.dot(w, w), h),
                           xl.vec_scale(xl.dot(h, w), w))
            rows += [h, xl.vec_scale(-1, h)]
    elif kind == "zero":
        rows = [vec() for _ in range(dim)]
        while xl.rank(rows) < dim:
            rows = [vec() for _ in range(dim)]
        rows.append(tuple(-sum(col) for col in zip(*rows)))
        rows += [vec() for _ in range(rng.randint(0, 2))]
    elif kind == "line":
        line = vec()
        while not any(line):
            line = vec()
        rows = []
        while len(rows) < dim - 1 + rng.randint(0, 3) or \
                xl.rank(rows) < dim - 1:
            g = vec()
            rows.append(xl.vec_sub(xl.vec_scale(xl.dot(line, line), g),
                                   xl.vec_scale(xl.dot(g, line), line)))
    else:  # lineality
        span = [vec() for _ in range(rng.randint(0, dim - 2))]
        rows = [tuple(sum(rng.randint(-2, 2) * v[i] for v in span)
                      for i in range(dim)) for _ in range(rng.randint(0, 4))]
    for _ in range(rng.randint(0, 3)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            extra = rng.choice([a, xl.vec_scale(rng.randint(1, 3), a),
                                xl.vec_add(a, b), (0,) * dim])
        else:
            extra = (0,) * dim
        rows.insert(rng.randrange(len(rows) + 1), extra)
    return [tuple(Fraction(x, rng.randint(1, 3)) for x in g)
            if rng.random() < 0.2 else g for g in rows]


ROW_KINDS = {1: ("pointed", "zero", "full_line")}
ROW_KINDS.update({dim: ("pointed", "flat", "zero", "line", "lineality")
                  for dim in range(2, 6)})


def random_row_cases(seed=1953, per_kind=10):
    rng = random.Random(seed)
    return [(random_cone_rows(rng, dim, kind), dim)
            for dim, kinds in ROW_KINDS.items() for kind in kinds
            for _ in range(per_kind)]


def cone_shape(rows, dim):
    """The shape of {y : g . y >= 0}, read off the reference enumerator."""
    rays = rays_or_error(dual_cone_extreme_rays, rows, dim)
    r = xl.rank(rows) if rows else 0
    if isinstance(rays, str):
        return "full_line"
    if r < dim:
        return "line" if r == dim - 1 else "lineality"
    if not rays:
        return "zero"
    return "pointed" if xl.rank(rays) == dim else "flat"


def test_random_row_cases_cover_every_shape():
    cases = random_row_cases()
    assert len(cases) >= 200
    shapes = {(dim, cone_shape(rows, dim)) for rows, dim in cases}
    assert shapes == {(dim, kind) for dim, kinds in ROW_KINDS.items()
                      for kind in kinds}
    assert any(len(set(rows)) < len(rows) for rows, _ in cases)
    assert any(not any(g) for rows, dim in cases if dim > 1 for g in rows)
    assert any(any(isinstance(x, Fraction) and x.denominator > 1 for x in g)
               for rows, _ in cases for g in rows)


def test_extreme_rays_equal_the_enumerator_on_random_rows():
    for rows, dim in random_row_cases():
        rays = rays_or_error(xl.extreme_rays, rows, dim)
        assert rays == rays_or_error(dual_cone_extreme_rays, rows, dim), \
            (rows, dim)
        if not isinstance(rays, str):
            assert all(type(x) is int for r in rays for x in r)
            assert all(xl.primitive_vector(r) == r for r in rays)


def test_hull_facets_equal_the_subset_loop_on_random_points():
    rng = random.Random(1996)
    tested = 0
    for rank in range(1, 5):
        for _ in range(15):
            points = [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                            for _ in range(rank))
                      for _ in range(rng.randint(rank + 1, rank + 6))]
            if affine_dim(points) < rank:
                continue
            assert_hull_equals_the_subset_loop(points)
            tested += 1
    assert tested >= 40
    # degenerate sets: points p0 + sum t_j d_j over fewer directions than
    # the rank
    rng = random.Random(1997)
    dims = set()
    for rank in range(1, 5):
        for _ in range(12):
            p0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                  for _ in range(rank)]
            dirs = [[rng.randint(-2, 2) for _ in range(rank)]
                    for _ in range(rng.randint(0, rank - 1))]
            points = []
            for _ in range(rng.randint(1, rank + 5)):
                ts = [rng.randint(-2, 2) for _ in dirs]
                points.append(tuple(x + sum(t * d[i] for t, d in zip(ts, dirs))
                                    for i, x in enumerate(p0)))
            assert_hull_equals_the_subset_loop(points)
            dims.add((rank, affine_dim(points)))
    assert {d for _, d in dims} == {0, 1, 2, 3}
    assert all(d < r for r, d in dims)


def pair_loop_triangulation(rays):
    """The cones over the facets that miss the first ray, facets found by
    trying every pair of rays: the loop of the old ``_triangulate_cone``."""
    facets = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            normal = xl.primitive_normal((rays[i], rays[j]), 3)
            if normal is None:
                continue
            vals = [xl.dot(normal, r) for r in rays]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                facets.append(frozenset((rays[i], rays[j])))
    return [tuple(sorted(facet)) + (rays[0],)
            for facet in facets if rays[0] not in facet]


def test_triangulate_cone_equals_the_pair_loop():
    rng = random.Random(1997)
    tested = 0
    for _ in range(30):
        rays = dual_cone_extreme_rays(random_cone_rows(rng, 3, "pointed"), 3)
        if len(rays) <= 3:
            continue
        # the cone keeps its rays sorted and is pulled from the least one
        cone = toric.ConeDescription(3, xl.extreme_rays(rays, 3))
        assert list(cone.rays) == rays
        assert sorted(dg._triangulate_cone(cone)) == \
            sorted(pair_loop_triangulation(rays)), rays
        tested += 1
    assert tested >= 10


def test_eight_ray_surface_cones():
    inst = checks.Instance(cyclic_surface(SQUARE8, "square8"), order=1)
    kahler = inst.sys.kahler
    # 8 facets; the collections give 20 rows
    assert (len(kahler.inequalities), len(kahler.rays)) == (8, 12)
    assert list(kahler.rays) == \
        dual_cone_extreme_rays(kahler.inequalities, kahler.dim)
    assert dict(checks.CHECKS)["triangulations.secondary_contains_ample"](
        inst) == (True, "ample cone inside the secondary cone")


def test_nine_ray_surface_kahler_cone():
    # the counts and the ray sum were read once from the subset enumerator,
    # which tries C(27, 6) = 296,010 subsets here
    kahler = gkz.build_system(cyclic_surface(TRIANGLE9, "triangle9")).kahler
    # 9 facets; the collections give 27 rows
    assert (len(kahler.inequalities), len(kahler.rays)) == (9, 21)
    assert tuple(sum(col) for col in zip(*kahler.rays)) == \
        (9, 19, 38, 66, 38, 19, 9)


def test_nine_ray_surface_mori_slabs():
    # plain Fourier-Motzkin elimination never finished these slabs
    sys = gkz.build_system(cyclic_surface(TRIANGLE9, "triangle9"))
    omega = gkz.default_weight(sys)
    assert [len(se.mori_slab(sys, omega, order)) for order in (5, 10, 20)] \
        == [1, 10, 55]


# an eight-ray fan whose slabs hung in Fourier-Motzkin elimination
EIGHT_RAY = [(1, 0), (1, 1), (1, 2), (0, 1), (-1, 0), (-2, -1), (-3, -2),
             (-1, -1)]


def test_eight_ray_surface_passes_check_all():
    inst = checks.Instance(cyclic_surface(EIGHT_RAY, "eight_ray"), order=5)
    results = checks.run_all(inst)
    assert len(results) == 25
    assert all(r["ok"] for r in results), \
        [r for r in results if not r["ok"]]


# --- hermite_with_transform --------------------------------------------------

def test_hnf_identity():
    assert xl.hermite_with_transform(((1, 0), (0, 1)))[0] == ((1, 0), (0, 1))


def test_hnf_column_span_preserved():
    m = ((2, 4), (0, 0))
    h = xl.hermite_with_transform(m)[0]
    assert h == ((2, 0), (0, 0))
    assert spans_same_columns(m, h)


def test_hnf_det_preserved_up_to_sign():
    m = ((1, 1), (1, -1))
    h = xl.hermite_with_transform(m)[0]
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
                        lambda m, v, *form: calls.append(v)
                        or original(m, v, *form))
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


# --- lattice_points ----------------------------------------------------------------

def test_lattice_points_triangle():
    # x >= 0, y >= 0, x + y <= 2
    rows = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)]
    pts = xl.lattice_points(rows, 2)
    assert sorted(pts) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_lattice_points_empty():
    rows = [((1,), -1), ((-1,), 0)]  # x <= -1 and x >= 0
    assert xl.lattice_points(rows, 1) == []


# --- Fourier-Motzkin: the searches lattice_points and ConeDescription replaced

def fm_eliminate(rows, var):
    """Eliminate ``var`` from rows (a, b, strict) meaning a.x <= b, or
    a.x < b when strict: every row with a positive coefficient on it
    against every row with a negative one, strict when either is.  Rows are
    scaled so their first nonzero coefficient is +-1, and a repeated left
    side keeps its tightest right side (the least; strict at a tie)."""
    keep, pos, neg = {}, [], []

    def add(a, b, strict):
        scale = next((abs(x) for x in a if x != 0), 1)
        a, b = tuple(x / scale for x in a), b / scale
        keep[a] = min((b, not strict), keep.get(a, (b, not strict)))

    for a, b, strict in rows:
        if a[var] > 0:
            pos.append((a, b, strict))
        elif a[var] < 0:
            neg.append((a, b, strict))
        else:
            add(a, b, strict)
    for ap, bp, sp in pos:
        for an, bn, sn in neg:
            cp, cn = ap[var], -an[var]
            add(tuple(cn * x + cp * y for x, y in zip(ap, an)),
                cn * bp + cp * bn, sp or sn)
    return [(a, b, not loose) for a, (b, loose) in keep.items()]


def fm_feasible(rows, dim):
    """Whether some real x satisfies every row (a, b, strict): the plain
    Fourier-Motzkin test ``triangulations.secondary_cone`` ran before the
    cone's own interior test, with rows (-g, 0, True) for its covectors g."""
    rows = [(tuple(map(Fraction, a)), Fraction(b), strict)
            for a, b, strict in rows]
    for var in range(dim - 1, -1, -1):
        rows = fm_eliminate(rows, var)
    return all(b > 0 if strict else b >= 0 for _, b, strict in rows)


def has_interior_point(rows, dim):
    """Whether some y has g . y > 0 for every nonzero row g, by
    ``fm_feasible``."""
    return fm_feasible([(xl.vec_scale(-1, g), 0, True) for g in rows if any(g)],
                       dim)


def test_fm_feasible_simplex():
    # x >= 0, y >= 0, x + y <= 1 strictly feasible
    rows = [((-1, 0), 0, True), ((0, -1), 0, True), ((1, 1), 1, True)]
    assert fm_feasible(rows, 2)
    # x <= 0 and x >= 0: the one point 0
    assert fm_feasible([((1,), 0, False), ((-1,), 0, False)], 1)


def test_fm_infeasible():
    rows = [((1,), 0, False), ((-1,), -1, False)]  # x <= 0 and x >= 1
    assert not fm_feasible(rows, 1)
    # x < 0 and x >= 0, with the strict row given alone or next to its
    # loose twin
    assert not fm_feasible([((1,), 0, True), ((-1,), 0, False)], 1)
    assert not fm_feasible([((1,), 0, False), ((1,), 0, True),
                            ((-1,), 0, False)], 1)


def test_cone_interior_equals_fourier_motzkin_on_random_rows():
    """Seeded rows of every shape in ranks 1-4: rows of full rank give a
    cone exactly when plain Fourier-Motzkin finds a point strictly inside
    every nonzero row.  Rows of lower rank cut out a cone that is not
    pointed, so the constructor raises that typed error whatever
    Fourier-Motzkin finds (a strict point exists for some of them)."""
    seen = set()
    for rows, dim in random_row_cases(seed=1996):
        if dim > 4:  # the reference takes about 9 s on the 50 rank-5 sets
            continue
        nonzero = [g for g in rows if any(g)]
        full_rank = bool(nonzero) and xl.rank(nonzero) == dim
        interior = has_interior_point(rows, dim)
        seen.add((dim, full_rank, interior))
        if not full_rank:
            with pytest.raises(EmptyInterior, match="not pointed"):
                toric.ConeDescription(dim, rows)
            continue
        try:
            toric.ConeDescription(dim, rows)
        except EmptyInterior:
            assert not interior, (rows, dim)
        else:
            assert interior, (rows, dim)
    for dim in range(1, 5):
        assert {(dim, True, True), (dim, True, False),
                (dim, False, True)} <= seen, dim


def fm_lattice_points(rows, dim, cap=None, cap_name=None):
    """The integer points of {x : a.x <= b} by plain Fourier-Motzkin, in
    lexicographic order: the search the old ``lattice_points`` ran.  The
    projection onto coordinates 0..k bounds coordinate k; a missing bound
    raises the unbounded message, and more than ``cap`` points the cap's."""
    systems = [None] * (dim + 1)
    systems[dim] = [(tuple(Fraction(x) for x in a), Fraction(b), False)
                    for a, b in rows]
    for var in range(dim - 1, -1, -1):
        systems[var] = fm_eliminate(systems[var + 1], var)
    if any(b < 0 for _, b, _ in systems[0]):
        return []
    out = []

    def descend(prefix):
        k = len(prefix)
        if k == dim:
            out.append(tuple(prefix))
            if cap is not None and len(out) > cap:
                named = f" (cap {cap_name})" if cap_name else ""
                raise TruncationTooLarge(
                    f"enumeration exceeded cap of {cap} points{named}")
            return
        lo, hi = [], []
        for a, b, _ in systems[k + 1]:
            rest = b - sum(a[i] * prefix[i] for i in range(k))
            if a[k] > 0:
                hi.append(rest / a[k])
            elif a[k] < 0:
                lo.append(rest / a[k])
            elif rest < 0:
                return
        if not lo or not hi:
            raise TruncationTooLarge(
                "enumeration region is unbounded; check the weight")
        for value in range(ceil(max(lo)), floor(min(hi)) + 1):
            descend(prefix + [value])

    descend([])
    return out


def points_or_error(search, rows, dim, **cap):
    try:
        return search(rows, dim, **cap)
    except TruncationTooLarge as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_lattice_points_equal_fourier_motzkin_on_instance_slabs(
        name, monkeypatch):
    """The region and Mori slabs at orders 0, 1 and the instance's own."""
    sys = gkz.build_system(INSTANCES[name]())
    omega = gkz.default_weight(sys)
    calls, search = [], xl.lattice_points

    def recorded(rows, dim, **cap):
        calls.append((list(rows), dim))
        return search(rows, dim, **cap)

    monkeypatch.setattr(xl, "lattice_points", recorded)
    orders = sorted({0, 1, REFERENCE_ORDERS[name]})
    for order in orders:
        se.region_slab(sys, omega, order)
        se.mori_slab(sys, omega, order)
    monkeypatch.undo()
    assert len(calls) == 2 * len(orders)
    for rows, dim in calls:
        points = xl.lattice_points(rows, dim)
        assert points == fm_lattice_points(rows, dim), (rows, dim)
        assert (0,) * dim in points


def random_bounded_rows(rng, dim):
    """Random rows (a, b) inside the simplex x_i >= -2, sum x_i <= 2, in a
    shuffled order, and whether they carry an equation a.x = b as two
    rows, which makes the region flat, empty or free of lattice points."""
    rows = [(tuple(rng.randint(-3, 3) for _ in range(dim)),
             Fraction(rng.randint(-2, 6), rng.choice((1, 1, 2, 3))))
            for _ in range(rng.randint(0, dim + 2))]
    rows += [(tuple(-int(i == k) for i in range(dim)), 2) for k in range(dim)]
    rows.append(((1,) * dim, 2))
    flat = rng.random() < 0.4
    if flat:
        a = tuple(rng.randint(-2, 2) for _ in range(dim))
        b = rng.randint(-3, 3)
        rows += [(a, b), (tuple(-x for x in a), -b)]
    rng.shuffle(rows)
    return rows, flat


def test_lattice_points_equal_fourier_motzkin_on_random_rows():
    rng = random.Random(2008)
    seen = set()
    for dim in range(1, 5):
        for _ in range(40):
            rows, flat = random_bounded_rows(rng, dim)
            points = xl.lattice_points(rows, dim)
            assert points == fm_lattice_points(rows, dim), (rows, dim)
            seen.add((dim, "empty" if not points else "flat" if flat
                      else "points"))
    assert seen == {(d, kind) for d in range(1, 5)
                    for kind in ("empty", "flat", "points")}


SPECIAL_REGIONS = {
    # name: (rows, dim, points, or the error message)
    "triangle": ([((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)], 2,
                 [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]),
    "empty": ([((1,), -1), ((-1,), 0)], 1, []),
    "empty with a free plane": (
        [((0, 0, 1), -1), ((0, 0, -1), 0)], 3, []),
    "point": ([((1, 0), 1), ((-1, 0), -1), ((0, 1), 2), ((0, -1), -2)], 2,
              [(1, 2)]),
    "point off the lattice": ([((2,), 1), ((-2,), -1)], 1, []),
    "origin in rank 0": ([((), 0)], 0, [()]),
    "empty in rank 0": ([((), -1)], 0, []),
    "segment in the plane": (
        [((1, -1), 0), ((-1, 1), 0), ((1, 0), Fraction(7, 2)), ((-1, 0), 0)],
        2, [(0, 0), (1, 1), (2, 2), (3, 3)]),
    "triangle in space": (
        [((1, 1, 1), 2), ((-1, -1, -1), -2), ((-1, 0, 0), 0),
         ((0, -1, 0), 0), ((0, 0, -1), 0)], 3,
        [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]),
    "half line": ([((-1,), 0)], 1,
                  "enumeration region is unbounded; check the weight"),
    "strip": ([((1, 0), 2), ((-1, 0), 0), ((1, -1), 5)], 2,
              "enumeration region is unbounded; check the weight"),
    "plane of lineality": ([((0, 0, 1), 1), ((0, 0, -1), 1)], 3,
                           "enumeration region is unbounded; check the weight"),
    "whole plane": ([((0, 0), 5)], 2,
                    "enumeration region is unbounded; check the weight"),
}


@pytest.mark.parametrize("name", sorted(SPECIAL_REGIONS))
def test_lattice_points_on_special_regions(name):
    rows, dim, expected = SPECIAL_REGIONS[name]
    assert points_or_error(xl.lattice_points, rows, dim) == expected
    assert points_or_error(fm_lattice_points, rows, dim) == expected


@pytest.mark.parametrize("cap_name,message", [
    (None, "enumeration exceeded cap of 3 points"),
    ("GKZFRAC_MAX_TERMS",
     "enumeration exceeded cap of 3 points (cap GKZFRAC_MAX_TERMS)")])
def test_lattice_points_cap_message(cap_name, message):
    rows = SPECIAL_REGIONS["triangle"][0]
    for search in (xl.lattice_points, fm_lattice_points):
        assert points_or_error(search, rows, 2, cap=3,
                               cap_name=cap_name) == message
        assert len(search(rows, 2, cap=6, cap_name=cap_name)) == 6
