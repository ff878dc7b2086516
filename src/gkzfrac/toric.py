"""Fans, primitive collections, Mori/Kaehler cones and the cohomology ring.

Rays carry double indices (i, j): block i of the nef-partition, position j
inside the block.  The flattened ray list follows block order, and the
extended point configuration appends one auxiliary point per block at j = 0.
"""

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import gcd, lcm

from . import exact_linalg as xl
from .errors import (EmptyInterior, NotComplete, NotSmooth, NotUnimodular,
                     RayNotPrimitive, SemanticError)


# --- fan data ------------------------------------------------------------------

class FanData:
    """A complete smooth fan with rays grouped into nef-partition blocks.

    ``rays`` is the flattened block-ordered list; ``blocks[k]`` holds the ray
    indices of block k (consecutive by construction).  ``max_cones`` are
    frozensets of ray indices.
    """

    def __init__(self, rank, rays, blocks, max_cones, name="",
                 ample_weight=None):
        self.rank = rank
        self.rays = rays
        self.blocks = blocks
        self.max_cones = max_cones
        self.name = name
        self.ample_weight = ample_weight

    @property
    def p(self):
        return len(self.rays)

    @property
    def r(self):
        return len(self.blocks)

    @property
    def block_of_ray(self):
        out = [None] * self.p
        for k, block in enumerate(self.blocks):
            for i in block:
                out[i] = k
        return out

    def double_index_of_ray(self, i_ray):
        """Ray index -> (i, j) with 1 <= j (0-based block i)."""
        k = self.block_of_ray[i_ray]
        j = self.blocks[k].index(i_ray) + 1
        return (k, j)

    def j_indices(self):
        """The ordered double-index set: (i,0), (i,1), ..., per block."""
        out = []
        for k, block in enumerate(self.blocks):
            out.append((k, 0))
            out.extend((k, j + 1) for j in range(len(block)))
        return out

    def j_position(self, i, j):
        pos = 0
        for k in range(i):
            pos += len(self.blocks[k]) + 1
        return pos + j

    def ray_of_double_index(self, i, j):
        """(i, j) with j >= 1 -> flat ray index."""
        return self.blocks[i][j - 1]

    def j_position_of_ray(self, i_ray):
        i, j = self.double_index_of_ray(i_ray)
        return self.j_position(i, j)

    @cached_property
    def cone_inverses(self):
        """Each maximal cone's sorted rays with the integer inverse of the
        matrix whose columns they are, built once per fan; raises NotSmooth
        naming the first cone that is not unimodular."""
        out = []
        for cone in self.max_cones:
            rays = sorted(cone)
            if len(rays) != self.rank:
                raise NotSmooth(
                    f"cone {rays} has {len(rays)} rays, expected {self.rank}")
            cols = tuple(zip(*(self.rays[i] for i in rays)))
            try:
                out.append((rays, xl.unimodular_inverse(cols)))
            except NotUnimodular:
                d = xl.det(cols)
                raise NotSmooth(f"cone {rays} is degenerate" if d == 0 else
                                f"cone {rays} has determinant {d}") from None
        return out


def make_fan(rank, rays, max_cones, nef_partition, name="", ample_weight=None):
    """Canonical FanData: rays reordered block by block, cones remapped."""
    p = len(rays)
    seen = sorted(i for block in nef_partition for i in block)
    if seen != list(range(p)):
        dup = [i for i in seen if seen.count(i) > 1]
        if dup:
            raise SemanticError(f"nef partition repeats ray index {dup[0]}")
        missing = sorted(set(range(p)) - set(seen))
        raise SemanticError(f"nef partition misses ray indices {missing}")
    order = [i for block in nef_partition for i in block]
    position = {old: new for new, old in enumerate(order)}
    new_rays = tuple(tuple(int(x) for x in rays[old]) for old in order)
    new_cones = tuple(frozenset(position[i] for i in cone) for cone in max_cones)
    blocks, start = [], 0
    for block in nef_partition:
        if not block:
            raise SemanticError(f"nef partition block {len(blocks)} is empty")
        blocks.append(tuple(range(start, start + len(block))))
        start += len(block)
    return FanData(rank=rank, rays=new_rays, blocks=tuple(blocks),
                   max_cones=tuple(sorted(new_cones, key=sorted)),
                   name=name,
                   ample_weight=tuple(ample_weight) if ample_weight else None)


def nu_vector(fan, i, j):
    """Lifted point of the double index (i, j) in Z^(n+r)."""
    if j == 0:
        ray = (0,) * fan.rank
    else:
        ray = fan.rays[fan.ray_of_double_index(i, j)]
    tail = tuple(1 if k == i else 0 for k in range(fan.r))
    return ray + tail


def a_ext_matrix(fan):
    """The (n+r) x (p+r) matrix whose columns are the lifted points."""
    cols = [nu_vector(fan, i, j) for (i, j) in fan.j_indices()]
    return tuple(zip(*cols))


def a_matrix(fan):
    """The n x p ray matrix (columns are the primitive ray generators)."""
    return tuple(zip(*fan.rays))


# --- validation ------------------------------------------------------------------

class ValidationReport:
    def __init__(self):
        self.checks = []

    def add(self, name, detail):
        self.checks.append((name, detail))

    def as_dict(self):
        return {name: detail for name, detail in self.checks}


def validate_fan(fan):
    """Check primitivity, smoothness, simpliciality and completeness, and
    that every ray spans a cone (SemanticError otherwise).

    Raises a typed error naming the offending ray or cone; returns a report
    when everything passes.
    """
    report = ValidationReport()
    for idx, ray in enumerate(fan.rays):
        if xl.vec_is_zero(ray):
            raise RayNotPrimitive(f"ray {idx} is zero")
        g = 0
        for x in ray:
            g = gcd(g, abs(x))
        if g != 1:
            raise RayNotPrimitive(f"ray {idx} = {ray} has entry gcd {g}")
        if not any(idx in cone for cone in fan.max_cones):
            raise SemanticError(f"ray {idx} = {ray} lies in no maximal cone")
    report.add("primitivity", f"{fan.p} rays primitive")

    fan.cone_inverses  # raises NotSmooth on the first bad cone
    report.add("smoothness", f"{len(fan.max_cones)} maximal cones unimodular")
    report.add("simpliciality", "all maximal cones simplicial")

    _check_complete(fan)
    report.add("completeness", "ridges paired and sampled directions covered")
    return report


def _check_complete(fan):
    import random
    n = fan.rank
    if n < 1:
        raise NotComplete(f"rank {n} leaves no direction to cover")
    if n == 1:
        rays = set(fan.rays)
        if rays != {(1,), (-1,)} or len(fan.max_cones) != 2:
            raise NotComplete("rank-1 fan must consist of both half-lines")
        return
    ridges = {}
    for cone in fan.max_cones:
        for ridge in combinations(sorted(cone), n - 1):
            ridges[ridge] = ridges.get(ridge, 0) + 1
    for ridge, count in sorted(ridges.items()):
        if count != 2:
            raise NotComplete(
                f"ridge {list(ridge)} lies in {count} maximal cones, expected 2")
    rng = random.Random(914)
    accepted = 0
    while accepted < 40:
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if xl.vec_is_zero(v):
            continue
        interior, boundary = 0, False
        for _rays, inverse in fan.cone_inverses:
            coeffs = xl.mat_vec(inverse, v)
            if any(c < 0 for c in coeffs):
                continue
            if any(c == 0 for c in coeffs):
                boundary = True
                break
            interior += 1
        if boundary:
            continue
        if interior == 0:
            raise NotComplete(f"direction {v} lies in no maximal cone")
        if interior > 1:
            raise NotComplete(f"direction {v} lies in {interior} maximal cones")
        accepted += 1


# --- primitive collections --------------------------------------------------------

class PrimitiveCollection:
    """A minimal non-face together with its relation data.

    ``rays`` and ``sigma`` hold flat ray indices; ``coeffs`` maps sigma rays
    to their positive integer coefficients; ``c0[i]`` is the coefficient of
    the auxiliary point of block i.  ``ell`` lives in the ray relation
    lattice, ``ell_ext`` in the extended one.
    """

    def __init__(self, rays, sigma, coeffs, c0, ell, ell_ext):
        self.rays = rays
        self.sigma = sigma
        self.coeffs = coeffs
        self.c0 = c0
        self.ell = ell
        self.ell_ext = ell_ext


def _is_face(fan, subset):
    return any(subset <= cone for cone in fan.max_cones)


def primitive_collections(fan):
    """All minimal non-faces with exact primitive-relation data.

    Every proper subset of a minimal non-face is a cone of the simplicial
    fan, so has at most ``rank`` rays: sizes stop at ``rank + 1``.  The
    relation coefficients are read through ``fan.cone_inverses``, so a cone
    that is not unimodular raises NotSmooth.
    """
    out = []
    indices = range(fan.p)
    for size in range(2, fan.rank + 2):
        for combo in combinations(indices, size):
            s = frozenset(combo)
            if _is_face(fan, s):
                continue
            if not all(_is_face(fan, s - {x}) for x in s):
                continue
            out.append(_build_collection(fan, s))
    out.sort(key=lambda pc: (len(pc.rays), sorted(pc.rays)))
    return out


def _build_collection(fan, collection):
    total = (0,) * fan.rank
    for i in collection:
        total = xl.vec_add(total, fan.rays[i])
    sigma, coeffs = frozenset(), {}
    if not xl.vec_is_zero(total):
        for rays, inverse in fan.cone_inverses:
            sol = xl.mat_vec(inverse, total)
            if all(c >= 0 for c in sol):
                coeffs = {i: c for i, c in zip(rays, sol) if c > 0}
                sigma = frozenset(coeffs)
                break
        else:
            raise NotComplete(f"sum of collection {sorted(collection)} "
                              "lies in no maximal cone")
    assert not (collection & sigma), \
        "collection meets the carrier cone, contradicting smoothness"
    block_of = fan.block_of_ray
    c0 = []
    for k in range(fan.r):
        count = sum(1 for i in collection if block_of[i] == k)
        drop = sum(c for i, c in coeffs.items() if block_of[i] == k)
        c0.append(count - drop)
    if not all(c >= 0 for c in c0):
        raise SemanticError(f"auxiliary coefficient negative for collection "
                            f"{sorted(collection)}; the block sums of the "
                            "given partition are not all nef")
    ell = [0] * fan.p
    for i in collection:
        ell[i] += 1
    for i, c in coeffs.items():
        ell[i] -= c
    ell_ext = [0] * (fan.p + fan.r)
    for i_ray in range(fan.p):
        if ell[i_ray]:
            ell_ext[fan.j_position_of_ray(i_ray)] = ell[i_ray]
    for k in range(fan.r):
        ell_ext[fan.j_position(k, 0)] = -c0[k]
    ell_ext = tuple(ell_ext)
    assert xl.vec_is_zero(xl.mat_vec(a_ext_matrix(fan), ell_ext)), \
        "lifted relation is not in the kernel"
    return PrimitiveCollection(
        rays=frozenset(collection), sigma=sigma,
        coeffs=tuple(sorted(coeffs.items())), c0=tuple(c0),
        ell=tuple(ell), ell_ext=ell_ext)


def stanley_reisner_ideal(collections):
    """Square-free generator monomials, one per primitive collection."""
    return [tuple(sorted(pc.rays)) for pc in collections]


# --- cones in the relation lattice -------------------------------------------------

class ConeDescription:
    """A pointed full-dimensional cone {y : g . y >= 0} in coordinates dual
    to the canonical relation-lattice basis, from any rows g: integer or
    Fraction, repeated, rescaled, zero or redundant.  It keeps the sorted
    primitive facet normals, the rows tight on rays of rank dim - 1, and
    the sorted primitive extreme rays, so equal cones have equal
    (inequalities, rays).  Raises EmptyInterior when the rays have rank
    below dim or their sum is not strictly inside every nonzero row.
    """

    def __init__(self, dim, inequalities):
        rows = sorted({xl.primitive_vector(xl.integer_scaled(g)[0])
                       for g in inequalities if any(g)})
        rays = xl.extreme_rays(rows, dim)
        if not xl.fm_feasible(rows, rays, dim):
            raise EmptyInterior("cone is not pointed and full-dimensional")
        self.dim = dim
        self.inequalities = tuple(
            g for g in rows
            if xl.rank([r for r in rays if xl.dot(g, r) == 0]) == dim - 1)
        self.rays = tuple(rays)

    def contains(self, y, strict=False):
        if strict:
            return all(xl.dot(g, y) > 0 for g in self.inequalities)
        return all(xl.dot(g, y) >= 0 for g in self.inequalities)


def kahler_cone(coords, collections):
    """Closure of the ample cone, dual to the Mori cone.

    Returned in coordinates dual to the canonical relation-lattice basis,
    cut out by the fan's primitive collections; ``coords`` maps a relation
    to its basis coordinates (``GkzSystem.basis_coords``).  Raises
    EmptyInterior when the input admits no ample class.
    """
    rows = [coords(pc.ell_ext) for pc in collections]
    return ConeDescription(len(rows[0]), rows)


# --- cohomology ring ----------------------------------------------------------------

def _monomials_of_degree(p, d):
    """Exponent tuples of total degree d over p variables, lex order."""
    if d == 0:
        return [(0,) * p]
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, p)
    return out


def _unit(n, i):
    """The i-th unit vector of length n."""
    return tuple(int(k == i) for k in range(n))


def _sparse(coords):
    """The nonzero (index, coefficient) pairs of a coordinate vector."""
    return tuple((k, c) for k, c in enumerate(coords) if c)


def _monomial_key(expo):
    """Sorted variable sequence of a monomial, for earliest-first ordering."""
    seq = []
    for var, e in enumerate(expo):
        seq.extend([var] * e)
    return tuple(seq)


class CohomologyRing:
    """Finite-dimensional graded quotient housing the toric divisor classes.

    Basis monomials are square-free, chosen greedily as the lexicographically
    earliest independent ones degree by degree; the intersection pairing is
    normalised so the class of a point integrates to 1.  Classes are
    integer numerators over that basis with one denominator (``CohClass``),
    multiplied through a table of basis products built once by the
    constructor, held as integers over one common denominator.
    """

    def __init__(self, fan, collections):
        self.fan = fan
        self.p = fan.p
        self.top = fan.rank
        self._sr = stanley_reisner_ideal(collections)
        self._linear = [tuple(ray[k] for ray in fan.rays)
                        for k in range(fan.rank)]
        self.basis_monomials = []
        self.basis_degrees = []
        normal = self._build()
        self.dim = len(self.basis_monomials)
        self._zero = CohClass(self, (0,) * self.dim)
        # monomial of degree <= top -> its class
        self._normal = {m: CohClass(self, [sparse.get(k, 0)
                                           for k in range(self.dim)], den)
                        for m, (sparse, den) in normal.items()}
        self._point = self._point_class()
        self._one = CohClass(self, _unit(self.dim, 0))
        # Structure constants of the basis as integers over the common
        # denominator _scale, then multiplication by each divisor class.
        # After this point the ring only fills _slot_factors, on demand.
        products = {}
        for a, ma in enumerate(self.basis_monomials):
            for b in range(a, self.dim):
                products[a, b] = self.reduce_monomial(
                    tuple(x + y for x, y in zip(ma, self.basis_monomials[b])))
        self._scale = lcm(*(cls.den for cls in products.values()))
        self._table = [[None] * self.dim for _ in range(self.dim)]
        for (a, b), cls in products.items():
            self._table[a][b] = self._table[b][a] = _sparse(
                [x * (self._scale // cls.den) for x in cls.nums])
        self._divisors = {}
        for (i, j) in fan.j_indices():
            rays = fan.blocks[i] if j == 0 else (fan.ray_of_double_index(i, j),)
            d = self.class_from_poly({_unit(self.p, r): -1 if j == 0 else 1
                                      for r in rays})
            self._divisors[(i, j)] = d, self.multiplier(d)
        self._slot_factors = {}

    # -- construction --

    def _build(self):
        """Basis and normal forms, degree by degree, from one ``xl.echelon``.

        The candidates of degree d are its monomials, square-free first,
        each group in ``_monomial_key`` order; the greedy search keeps a
        candidate unless it is congruent to a combination of earlier ones.
        A monomial divisible by a Stanley-Reisner generator is 0; the other
        ("live") candidates are the columns, in reverse order, of the linear
        relations times live monomials, so a row's leading entry sits at its
        latest candidate.  A candidate is thus skipped iff some relation has
        its leading entry there: the free columns of the echelon form, in
        candidate order, are the greedy basis, and each pivot row writes its
        monomial over them.  Returns each live monomial's normal form as
        (basis index -> numerator, denominator).
        """
        normal, cols = {}, []
        for d in range(self.top + 1):
            lower = cols  # the live monomials of degree d - 1
            cols = [m for m in sorted(
                _monomials_of_degree(self.p, d), reverse=True,
                key=lambda m: (max(m) > 1, _monomial_key(m)))
                if not any(all(m[v] for v in s) for s in self._sr)]
            pos = {m: c for c, m in enumerate(cols)}
            rows = []
            for lam in self._linear:
                for mu in lower:
                    row = [0] * len(cols)
                    for var, c in enumerate(lam):
                        m = mu[:var] + (mu[var] + 1,) + mu[var + 1:]
                        if c and m in pos:
                            row[pos[m]] += c
                    rows.append(row)
            reduced, pivots = xl.echelon(rows)
            pivot_set = set(pivots)
            free = [c for c in reversed(range(len(cols))) if c not in pivot_set]
            basis = [cols[c] for c in free]
            assert all(max(m) <= 1 for m in basis), \
                "square-free monomials do not span; input fan not smooth projective?"
            index = {f: len(self.basis_monomials) + k
                     for k, f in enumerate(free)}
            self.basis_monomials.extend(basis)
            self.basis_degrees.extend([d] * len(basis))
            for f in free:
                normal[cols[f]] = {index[f]: 1}, 1
            for row, c in zip(reduced, pivots):
                normal[cols[c]] = {index[f]: -row[f] for f in free}, row[c]
        return normal

    def reduce_monomial(self, expo):
        """The class of a monomial, read from the normal forms built by the
        constructor; a monomial without one (above the top degree, or
        divisible by a Stanley-Reisner generator) is 0."""
        return self._normal.get(tuple(expo), self._zero)

    def _point_class(self):
        ref = None
        for cone in self.fan.max_cones:
            cls = self.reduce_monomial(tuple(int(i in cone)
                                             for i in range(self.p)))
            assert ref is None or cls == ref, \
                "point classes of maximal cones disagree; fan not smooth?"
            ref = cls
        return ref

    # -- public interface --

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def generator(self, i_ray):
        return self.class_from_poly({_unit(self.p, i_ray): 1})

    def divisor_class(self, i, j):
        """Class of the double-indexed divisor; j = 0 gives the block sum's
        negative."""
        return self._divisors[(i, j)][0]

    def divisor_matrix(self, i, j):
        """``multiplier`` of the divisor class of (i, j), built once; the
        matrix is nilpotent of order rank + 1."""
        return self._divisors[(i, j)][1]

    def slot_factor(self, i, j, a, c):
        """Factor of slot (i, j) at exponent c in a product-form coefficient
        (``series.o_class``), as (class, ``multiplier`` of the class).

        With D the divisor class of (i, j) and a the slot's alpha entry, it
        is prod_{k=0}^{-c-1} (D + a - k) for c < 0, 1 for c = 0, and for
        c > 0 the inverse of prod_{m=1}^{c} (D + a + m).  It is built once
        per ring from the factor at c + 1 (c < 0) or c - 1 (c > 0), on
        integer numerators over one denominator with D = M / L, (L, M) =
        ``divisor_matrix(i, j)``: one step times (D + s), or times the
        Neumann series sum_t (-D)^t / s^(t+1) of its inverse, which stops at
        t = rank because D^(rank+1) = 0.  With s = p / q the step times
        (D + s) has denominator L q, and the series cut after its t-th term
        (L p)^t p; every s shares a's denominator q.
        """
        key = (i, j, a, c)
        found = self._slot_factors.get(key)
        if found is not None:
            return found
        if c == 0:
            cls = self._one
        else:
            prev = self.slot_factor(i, j, a, c + 1 if c < 0 else c - 1)[0]
            v, den = prev.nums, prev.den
            q = a.denominator
            p = a.numerator + (c + 1 if c < 0 else c) * q
            scale, columns = self.divisor_matrix(i, j)
            if c < 0:
                v = [q * y + scale * p * x
                     for x, y in zip(v, integer_act(columns, v))]
                den *= scale * q
            else:
                assert p != 0, "slot factor with vanishing scalar part"
                term, sign_q = v, q
                v = [q * x for x in v]
                den *= p
                for _ in range(self.top):
                    term = integer_act(columns, term)
                    if not any(term):
                        break
                    sign_q *= -q
                    v = [scale * p * x + sign_q * y for x, y in zip(v, term)]
                    den *= scale * p
            cls = CohClass(self, v, den)
        found = self._slot_factors[key] = cls, self.multiplier(cls)
        return found

    def class_from_poly(self, poly):
        """Class of a polynomial in the ray variables, given as expo -> coeff."""
        out = self._zero
        for expo, c in poly.items():
            if c:
                out = out + c * self.reduce_monomial(tuple(expo))
        return out

    def multiply(self, a, b):
        scale, columns = self.multiplier(a)
        return CohClass(self, integer_act(columns, b.nums), scale * b.den)

    def multiplier(self, cls):
        """Multiplication by ``cls`` as (L, M) with M / L the matrix: M is
        integer, L is the least positive integer that makes it so, and
        column b of M lists the nonzero (index, coefficient) pairs of L
        times the class times basis element b."""
        rows = [(self._table[a], c) for a, c in enumerate(cls.nums) if c]
        columns = []
        for b in range(self.dim):
            col = [0] * self.dim
            for row, c in rows:
                for k, t in row[b]:
                    col[k] += c * t
            columns.append(col)
        scale = cls.den * self._scale
        g = gcd(scale, *chain.from_iterable(columns))
        return scale // g, tuple(
            tuple((k, c // g) for k, c in enumerate(col) if c)
            for col in columns)

    def integral(self, cls):
        """Pairing with the fundamental class, point class normalised to 1."""
        top_idx = [i for i, d in enumerate(self.basis_degrees) if d == self.top]
        assert len(top_idx) == 1, "top degree is not one-dimensional"
        i, point = top_idx[0], self._point
        assert point.nums[i] != 0
        return Fraction(cls.nums[i] * point.den, cls.den * point.nums[i])

    def basis_names(self):
        names = []
        for m in self.basis_monomials:
            if sum(m) == 0:
                names.append("1")
                continue
            parts = []
            for i_ray, e in enumerate(m):
                if e:
                    i, j = self.fan.double_index_of_ray(i_ray)
                    parts.extend([f"a_{i + 1}_{j}"] * e)
            names.append("*".join(parts))
        return names


def integer_act(columns, v):
    """M v for an integer matrix given column by column as sparse pairs."""
    out = [0] * len(v)
    for x, column in zip(v, columns):
        if x:
            for k, c in column:
                out[k] += c * x
    return out


class CohClass:
    """Element of a CohomologyRing: integer numerators ``nums`` over its
    basis and one positive denominator ``den``, in lowest terms, so equal
    classes have equal fields; zero is all zeros over 1.  ``coords`` is
    the read-only view as Fractions."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring, nums, den=1):
        nums = tuple(nums)
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        self.ring = ring
        self.nums = nums if g == 1 else tuple(x // g for x in nums)
        self.den = den // g

    @property
    def coords(self):
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __add__(self, other):
        if isinstance(other, CohClass):
            d = lcm(self.den, other.den)
            a, b = d // self.den, d // other.den
            return CohClass(self.ring, [a * x + b * y for x, y in
                                        zip(self.nums, other.nums)], d)
        return self + other * self.ring.one()

    __radd__ = __add__

    def __neg__(self):
        return CohClass(self.ring, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        if isinstance(other, CohClass):
            return self + (-other)
        return self + (-other) * self.ring.one()

    def __rsub__(self, other):
        return (-self) + other * self.ring.one()

    def __mul__(self, other):
        if isinstance(other, CohClass):
            return self.ring.multiply(self, other)
        c = Fraction(other)
        return CohClass(self.ring, [c.numerator * x for x in self.nums],
                        c.denominator * self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CohClass):
            return self.nums == other.nums and self.den == other.den
        return self == other * self.ring.one()

    def is_zero(self):
        return not any(self.nums)

    def __repr__(self):
        items = [f"{c}*{n}" for (m, c), n in
                 zip(zip(self.ring.basis_monomials, self.coords),
                     self.ring.basis_names()) if c != 0]
        return " + ".join(items) if items else "0"


def cohomology_ring(fan, collections):
    """Quotient presentation of the even cohomology with its pairing, from
    the fan and its primitive collections."""
    return CohomologyRing(fan, collections)
