"""Exact integer and rational linear algebra.

All matrices are tuples (or lists) of row tuples, vectors are flat tuples.
Entries are Python ints or fractions.Fraction; nothing here ever touches a
float.  Sizes are desk scale (a dozen rows or columns), so the algorithms
favour determinism and transparency over asymptotics.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import (DimensionMismatch, EmptyInterior, NotUnimodular,
                     RankDeficient, TruncationTooLarge)


# --- small vector helpers ----------------------------------------------------

def dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"dot: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_is_zero(v):
    return all(a == 0 for a in v)


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = 0
    for a in v:
        g = gcd(g, abs(int(a)))
    if g <= 1:
        return tuple(int(a) for a in v)
    return tuple(int(a) // g for a in v)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m):
    return tuple(zip(*m)) if m else ()


# --- fraction-free elimination -------------------------------------------------

def integer_scaled(v):
    """(ints, den): the entries of v times den, the lcm of their denominators."""
    den = lcm(*(x.denominator for x in v))
    if den == 1:
        return [int(x) for x in v], 1
    return [x.numerator * (den // x.denominator) for x in v], den


def _eliminate(row, pivot_row, col):
    """``row`` with its entry in ``col`` cleared against ``pivot_row`` by
    integer cross-multiplication, then divided by its content."""
    g = gcd(row[col], pivot_row[col])
    f, p = row[col] // g, pivot_row[col] // g
    out = [p * x - f * y for x, y in zip(row, pivot_row)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def det(m):
    """Exact determinant by Bareiss fraction-free elimination on integer rows."""
    k = len(m)
    if k == 0:
        return 1
    if any(len(row) != k for row in m):
        raise DimensionMismatch("det: matrix not square")
    a, scale = [], 1
    for row in m:
        ints, den = integer_scaled(row)
        a.append(ints)
        scale *= den
    sign, prev = 1, 1
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        p, top = a[col][col], a[col]
        for r in range(col + 1, k):
            f = a[r][col]
            a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
    result = Fraction(sign * a[-1][-1], scale)
    if result.denominator == 1:
        return int(result)
    return result


def rank(m):
    """Rank over the rationals.

    The sweep runs over the longer side of the matrix (the rank does not
    change under transposition): each line is scaled to integers on its own
    and reduced against an integer echelon basis of the lines before it.
    The rank is at most the length of the shorter side, so the sweep stops
    as soon as the basis reaches it.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    lines, limit = (m, ncols) if nrows > ncols else (zip(*m), nrows)
    basis = []  # (pivot index, integer line), pivots zero in later lines
    for line in lines:
        v = integer_scaled(line)[0]
        for piv, b in basis:
            if v[piv]:
                v = _eliminate(v, b, piv)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            basis.append((piv, v))
            if len(basis) == limit:
                break
    return len(basis)


# --- reduced row echelon form and linear solving ------------------------------

def rref(m):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivots) where pivots[i] is the column of the i-th pivot
    and the entries of rows are Fractions.  Each row is scaled to integers
    once and eliminated fraction-free; a pivot row is divided by its pivot
    only when it is emitted.
    """
    a = [integer_scaled(row)[0] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(nrows):
            if r != row and a[r][col]:
                a[r] = _eliminate(a[r], a[row], col)
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    out = []
    for ints, col in zip(a, pivots):
        p = ints[col]
        out.append(tuple(map(Fraction, ints)) if p == 1
                   else tuple(Fraction(x, p) for x in ints))
    out.extend((Fraction(0),) * ncols for _ in range(nrows - row))
    return out, pivots


def primitive_normal(rows, dim):
    """Primitive integer vector spanning the kernel of ``rows`` (length
    ``dim``, integer or rational entries), with its free coordinate
    positive; None unless that kernel is one-dimensional."""
    reduced, pivots = rref(rows)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    normal = [Fraction(0)] * dim
    normal[free] = Fraction(1)
    for row, col in zip(reduced, pivots):
        normal[col] = -row[free]
    return primitive_vector(integer_scaled(normal)[0])


# --- extreme rays -------------------------------------------------------------

def extreme_rays(inequalities, dim):
    """Sorted primitive extreme rays of the cone {y : g . y >= 0}.

    Incremental double description with the combinatorial adjacency test
    (Motzkin-Raiffa-Thompson-Thrall 1953; Fukuda-Prodon 1996), started from
    the simplicial cone of the first independent rows.  Each row is made a
    primitive integer row; each ray carries the bitmask of the rows it makes
    tight.  A cone whose lineality space is the line through l gives
    [-l, l], a larger lineality space gives [], and the full line in
    dimension 1 raises EmptyInterior.
    """
    rows = [primitive_vector(integer_scaled(g)[0]) for g in inequalities]
    basis = rref(transpose(rows))[1]
    if len(basis) < dim:
        if len(basis) < dim - 1:
            return []
        if dim == 1:
            raise EmptyInterior("cone is a full line, not pointed")
        line = primitive_normal(rows, dim)
        return sorted([line, vec_scale(-1, line)])
    rays = []
    for i in basis:
        r = primitive_normal([rows[j] for j in basis if j != i], dim)
        if dot(rows[i], r) < 0:
            r = vec_scale(-1, r)
        rays.append((r, sum(1 << j for j in basis if j != i)))
    for k in range(len(rows)):
        if k in basis:
            continue
        values = [dot(rows[k], r) for r, _ in rays]
        kept = [(r, z | (1 << k) if v == 0 else z)
                for (r, z), v in zip(rays, values) if v >= 0]
        for p, (rp, zp) in enumerate(rays):
            if values[p] <= 0:
                continue
            for n, (rn, zn) in enumerate(rays):
                if values[n] >= 0:
                    continue
                # fewer than dim - 2 common tight rows is a quick "not adjacent"
                common = zp & zn
                if common.bit_count() < dim - 2 or any(
                        z & common == common
                        for q, (_, z) in enumerate(rays) if q != p and q != n):
                    continue
                ray = primitive_vector(vec_sub(vec_scale(values[p], rn),
                                               vec_scale(values[n], rp)))
                kept.append((ray, common | (1 << k)))
        rays = kept
    return sorted(r for r, _ in rays)


def fm_feasible(rows, rays, dim):
    """Whether the cone {y : g . y >= 0} of rows whose extreme rays are
    ``rays`` is pointed and full-dimensional: the rays have rank dim and
    their sum lies strictly inside every row.

    Named for the Fourier-Motzkin elimination it replaced, because the
    benchmark's layer table (bench/layers.py) traces it by this name;
    ROADMAP C1 Part A renames both together.
    """
    interior = tuple(map(sum, zip(*rays)))
    return rank(rays) == dim and all(dot(g, interior) > 0 for g in rows)


def hull_facets(points):
    """(equations, facets) of the convex hull of points: pairs (a, c)
    meaning a.x == c and a.x <= c, with primitive integer a, that together
    cut out the hull.

    The rref of the differences from the first point has its pivots in
    coordinates where the hull is full-dimensional; each other coordinate
    is an affine function of those, which the equations state.  The facets
    are those of the hull in the pivot coordinates, where a point's
    coordinates are its own pivot entries: a.x <= c for the extreme rays
    (a, c) of {(a, c) : c - a.p >= 0}.  The ray (0, ..., 0, 1) is interior
    to that cone, so every ray has a != 0.
    """
    p0 = points[0]
    reduced, pivots = rref([vec_sub(p, p0) for p in points[1:]])
    equations = []
    for f in range(len(p0)):
        if f not in pivots:
            n = [int(c == f) for c in range(len(p0))]
            for row, col in zip(reduced, pivots):
                n[col] = -row[f]
            n = primitive_vector(integer_scaled(n)[0])
            equations.append((n, dot(n, p0)))
    facets = []
    if pivots:
        coords = [tuple(p[c] for c in pivots) for p in points]
        for ray in extreme_rays([vec_scale(-1, y) + (1,) for y in coords],
                                len(pivots) + 1):
            normal = primitive_vector(ray[:-1])
            a = [0] * len(p0)
            for c, x in zip(pivots, normal):
                a[c] = x
            facets.append((tuple(a), max(dot(normal, y) for y in coords)))
    return equations, sorted(facets)


def solve_linear(m, b):
    """Solve m*x = b over the rationals.

    Returns (particular, nullspace_basis) or None when inconsistent.
    """
    if not m:
        return ((), [])
    ncols = len(m[0])
    aug = [tuple(row) + (bi,) for row, bi in zip(m, b)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = rows[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    null = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -rows[i][f]
        null.append(tuple(v))
    return tuple(particular), null


def solve_unique(m, b):
    """Solve m*x = b expecting a unique solution; None if none or many."""
    sol = solve_linear(m, b)
    if sol is None or sol[1]:
        return None
    return sol[0]


def unimodular_inverse(m):
    """The integer inverse of a square integer matrix of determinant +-1,
    from one ``rref`` of ``[m | I]``; raises NotUnimodular otherwise."""
    d = det(m)
    if abs(d) != 1:
        raise NotUnimodular(f"matrix has determinant {d}, expected +-1")
    k = len(m)
    reduced, _ = rref([tuple(row) + tuple(int(i == j) for j in range(k))
                       for i, row in enumerate(m)])
    return tuple(tuple(int(x) for x in row[k:]) for row in reduced)


# --- Hermite normal form ------------------------------------------------------

def _col_hnf(m, rows_order):
    """Column echelon form by unimodular column operations.

    Processes rows in ``rows_order``; returns (H, U) with H = m @ U,
    U unimodular.  Pivots are positive and off-pivot entries in a pivot row
    (in columns before the pivot) are reduced into [0, pivot).
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    cols = [[int(m[r][c]) for r in range(nrows)] for c in range(ncols)]
    ucols = [[1 if i == c else 0 for i in range(ncols)] for c in range(ncols)]

    def addmul(dst, src, q):
        cols[dst] = [a - q * b for a, b in zip(cols[dst], cols[src])]
        ucols[dst] = [a - q * b for a, b in zip(ucols[dst], ucols[src])]

    def swap(i, j):
        cols[i], cols[j] = cols[j], cols[i]
        ucols[i], ucols[j] = ucols[j], ucols[i]

    def negate(i):
        cols[i] = [-a for a in cols[i]]
        ucols[i] = [-a for a in ucols[i]]

    pivot_col = 0
    pivot_rows = []
    for row in rows_order:
        active = [c for c in range(pivot_col, ncols) if cols[c][row] != 0]
        if not active:
            continue
        # Euclid on the entries of this row across the active columns.
        while True:
            active = [c for c in range(pivot_col, ncols) if cols[c][row] != 0]
            if len(active) == 1:
                break
            cmin = min(active, key=lambda c: abs(cols[c][row]))
            for c in active:
                if c != cmin:
                    addmul(c, cmin, cols[c][row] // cols[cmin][row])
        keep = next(c for c in range(pivot_col, ncols) if cols[c][row] != 0)
        swap(pivot_col, keep)
        if cols[pivot_col][row] < 0:
            negate(pivot_col)
        piv = cols[pivot_col][row]
        for c in range(pivot_col):
            q = cols[c][row] // piv
            if q:
                addmul(c, pivot_col, q)
        pivot_rows.append(row)
        pivot_col += 1
        if pivot_col == ncols:
            break
    h = tuple(tuple(cols[c][r] for c in range(ncols)) for r in range(nrows))
    u = tuple(tuple(ucols[c][r] for c in range(ncols)) for r in range(ncols))
    return h, u, pivot_rows


def hermite_with_transform(m):
    """Column HNF together with the unimodular transform: H = m @ U."""
    if not m or not m[0]:
        raise DimensionMismatch("hermite_with_transform: empty matrix")
    h, u, _rows = _col_hnf(m, range(len(m)))
    return h, u


def kernel_basis(m):
    """Integer basis of the kernel lattice {v : m v = 0}.

    The matrix must have full row rank over the rationals, otherwise
    RankDeficient is raised.  The basis is saturated (it spans the full
    integer kernel, not a finite-index sublattice) and is put in a canonical
    form: bottom-up column HNF with positive pivots, columns ordered by the
    position of their last nonzero entry.
    """
    if not m or not m[0]:
        raise DimensionMismatch("kernel_basis: empty matrix")
    nrows, ncols = len(m), len(m[0])
    h, u, _ = _col_hnf(m, range(nrows))
    nonzero_cols = [c for c in range(ncols) if any(h[r][c] != 0 for r in range(nrows))]
    if len(nonzero_cols) < nrows:
        raise RankDeficient(
            f"kernel_basis: rank {len(nonzero_cols)} < rows {nrows}")
    kernel_cols = [c for c in range(ncols) if all(h[r][c] == 0 for r in range(nrows))]
    vecs = [tuple(u[r][c] for r in range(ncols)) for c in kernel_cols]
    if not vecs:
        return []
    # Canonicalise: column HNF processed bottom-up, then sort by last support.
    basis_mat = tuple(zip(*vecs))  # ncols x k, rows indexed by ambient coord
    h2, _u2, _ = _col_hnf(basis_mat, range(len(basis_mat) - 1, -1, -1))
    out = []
    for c in range(len(vecs)):
        v = tuple(h2[r][c] for r in range(len(basis_mat)))
        if not vec_is_zero(v):
            out.append(v)
    out.sort(key=lambda v: max(i for i, a in enumerate(v) if a != 0))
    return out


def kernel_points_in_box(m, bound):
    """Nonzero integer v with m v = 0 and every entry in [-bound, bound].

    Only the free coordinates of rref(m) are walked; each pivot coordinate
    is solved from them and kept when it is an integer inside the box.  The
    result is the box's kernel points in lexicographic order, found from
    (2*bound+1)**(ncols - rank) candidates instead of (2*bound+1)**ncols.
    """
    ncols = len(m[0])
    rows, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    # pivot value = -sum(row[f] x_f) = sum(coeffs[f] x_f) / den, in integers
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
    out.sort()
    return out


def split_positive_negative(v):
    """Write v = plus - minus with disjoint nonnegative supports."""
    plus = tuple(a if a > 0 else 0 for a in v)
    minus = tuple(-a if a < 0 else 0 for a in v)
    return plus, minus


def is_unimodular_lattice_basis(vs, lattice_basis):
    """True iff vs is a Z-basis of the lattice spanned by lattice_basis."""
    if len(vs) != len(lattice_basis):
        raise DimensionMismatch(
            f"is_unimodular_lattice_basis: {len(vs)} vs {len(lattice_basis)}")
    if not vs:
        return True
    bmat = tuple(zip(*lattice_basis))  # ambient x k
    change = []
    for v in vs:
        coeffs = solve_unique(bmat, v)
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            return False
        change.append(tuple(int(c) for c in coeffs))
    return abs(det(change)) == 1


def solve_integer(m, b, hermite=None):
    """One integer solution of m x = b, or None if none exists.

    ``hermite`` is ``hermite_with_transform(m)`` when the caller already
    holds it, so several right-hand sides share one Hermite form.
    """
    h, u = hermite or hermite_with_transform(m)
    nrows, ncols = len(m), len(m[0])
    # Forward-substitute through the column echelon structure of h.
    y = [0] * ncols
    residual = [int(x) for x in b]
    col = 0
    for row in range(nrows):
        if col < ncols and h[row][col] != 0:
            q, rem = divmod(residual[row], h[row][col])
            if rem != 0:
                return None
            y[col] = q
            for r in range(nrows):
                residual[r] -= q * h[r][col]
            col += 1
        elif residual[row] != 0:
            return None
    if any(residual):
        return None
    return mat_vec(u, tuple(y))


def in_integer_span(m_cols, v, hermite=None):
    """Whether v lies in the integer column span of m_cols (a matrix);
    ``hermite`` as in ``solve_integer``."""
    return solve_integer(m_cols, v, hermite) is not None


# --- lattice points -------------------------------------------------------------

def lattice_points(rows, dim, cap=None, cap_name=None):
    """All integer points satisfying rows of (a, b) meaning a.x <= b, in
    lexicographic order.

    The region's vertices are x / t for the extreme rays with t > 0 of
    {(x, t) : b t - a.x >= 0, t >= 0}, in the coordinates where the rows'
    coefficients have their rref pivots.  The search fixes one coordinate
    at a time.  The bounds on coordinate k, given the ones before it, come
    from ``hull_facets`` of the vertices projected onto coordinates 0..k
    (the projection of a polytope is the hull of its projected vertices);
    on the last coordinate they come from the rows themselves.  An empty
    region gives [].  A nonempty unbounded region (a ray with t = 0, or
    fewer pivots than ``dim``) raises TruncationTooLarge, as does exceeding
    ``cap`` points (the message then names ``cap_name``, the setting the cap
    came from, when given).
    """
    rows = [integer_scaled(tuple(a) + (b,))[0] for a, b in rows]
    pivots = rref([r[:-1] for r in rows])[1]
    cone = [[-r[c] for c in pivots] + [r[-1]] for r in rows]
    cone.append([0] * len(pivots) + [1])
    rays = extreme_rays(cone, len(pivots) + 1)
    vertices = {tuple(Fraction(x, r[-1]) for x in r[:-1])
                for r in rays if r[-1] > 0}
    if not vertices:
        return []
    if len(pivots) < dim or any(r[-1] == 0 for r in rays):
        raise TruncationTooLarge(
            "enumeration region is unbounded; check the weight")
    # levels[k]: integer rows (a_0..a_k, c) meaning a.x <= c with a_k != 0
    levels = []
    for k in range(dim - 1):
        equations, facets = hull_facets(sorted({v[:k + 1] for v in vertices}))
        level = facets + equations + [(vec_scale(-1, a), -c)
                                      for a, c in equations]
        levels.append([integer_scaled(a + (c,))[0] for a, c in level if a[k]])
    if dim:
        levels.append([r for r in rows if r[-2]])
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
        # the prefix lies in the projection onto coordinates 0..k-1, so it
        # extends: rows with a_k = 0 hold, and both bounds exist
        lo, hi = [], []
        for row in levels[k]:
            rest = row[-1] - sum(a * x for a, x in zip(row, prefix))
            if row[k] > 0:
                hi.append(rest // row[k])
            else:
                lo.append(-(rest // -row[k]))
        for value in range(max(lo), min(hi) + 1):
            descend(prefix + [value])

    descend([])
    return out


# --- exact strings ------------------------------------------------------------

def fraction_str(x):
    """A rational as ``"p/q"``, or ``"p"`` when it is an integer."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)
