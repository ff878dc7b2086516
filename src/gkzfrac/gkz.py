"""The half-integral hypergeometric system of an extended point configuration.

The system bundles the ray matrix, its lifting, the exponent vector with
entries -1/2 on the auxiliary slots, a saturated basis of the relation
lattice, and the operator generators (Euler rows plus one box operator per
primitive collection).
"""

from fractions import Fraction
from functools import cached_property

from . import exact_linalg as xl
from . import toric
from .errors import NotInKernel, UnexpectedLocus, WeightNotAmple

# --- tiny exact polynomials -----------------------------------------------------


class Poly:
    """Sparse multivariate polynomial over the rationals.

    Keys are exponent tuples of fixed length; supports evaluation at any
    values with ring operations (rationals, cohomology classes).
    """

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                self.terms[tuple(expo)] = c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, j):
        expo = [0] * nvars
        expo[j] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (other * Fraction(-1))

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    expo = tuple(a + b for a, b in zip(e1, e2))
                    out[expo] = out.get(expo, Fraction(0)) + c1 * c2
            return Poly(self.nvars, out)
        return Poly(self.nvars,
                    {e: c * Fraction(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading_coefficient(self):
        """Coefficient of the (unique) top-degree term, if one exists."""
        d = self.degree()
        tops = [(e, c) for e, c in self.terms.items() if sum(e) == d]
        assert len(tops) == 1, "no unique leading term"
        return tops[0][1]

    def evaluate(self, values):
        """Evaluate at a value list; works for rationals and ring elements."""
        total = None
        for expo, c in sorted(self.terms.items()):
            term = c
            for j, e in enumerate(expo):
                for _ in range(e):
                    term = term * values[j]
            total = term if total is None else total + term
        return 0 if total is None else total

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        return self.terms == Poly.constant(self.nvars, other).terms

    def __repr__(self):
        return f"Poly({self.terms})"


# --- operators -------------------------------------------------------------------

class EulerOperator:
    """sum_j coeff_j x_j d_j - eigenvalue, one per row of the lifted matrix."""

    def __init__(self, row, coeffs, eigenvalue):
        self.row = row
        self.coeffs = coeffs
        self.eigenvalue = eigenvalue


class BoxOperator:
    """d^plus - d^minus for a relation vector ell = plus - minus."""

    def __init__(self, ell, plus, minus):
        self.ell = ell
        self.plus = plus
        self.minus = minus


# --- the system -------------------------------------------------------------------

class GkzSystem:
    """The lifted system of a fan: ray matrix ``a``, lifted matrix
    ``a_ext``, exponent vector ``beta``, relation-lattice ``basis``,
    primitive ``collections``, and the Kaehler cone ``kahler`` and canonical
    exponent ``alpha`` (both set by ``build_system``).

    A relation is fixed by its entries on the rays off the fan's first
    maximal cone: the cone's own entries and the auxiliary ones follow
    integrally.  So the lattice projects isomorphically onto those exponent
    positions, ``slots``, and ``inverse``, the integer inverse of the basis
    restricted to them, is the one coordinate map of the relation lattice
    (``basis_coords``)."""

    def __init__(self, fan, a, a_ext, beta, basis, collections):
        self.fan = fan
        self.a = a
        self.a_ext = a_ext
        self.beta = beta
        self.basis = basis
        self.collections = collections
        cone = fan.max_cones[0]
        self.slots = tuple(fan.j_position_of_ray(i) for i in range(fan.p)
                           if i not in cone)
        self.inverse = xl.unimodular_inverse(
            [[v[s] for v in basis] for s in self.slots])
        self.kahler = None
        self.alpha = None

    @property
    def n(self):
        return self.fan.rank

    @property
    def r(self):
        return self.fan.r

    @property
    def p(self):
        return self.fan.p

    @property
    def nvars(self):
        return self.p + self.r

    def j_indices(self):
        return self.fan.j_indices()

    def j_position(self, i, j):
        return self.fan.j_position(i, j)

    def aux_positions(self):
        """Positions of the auxiliary (i, 0) slots in the flattened order."""
        return [self.fan.j_position(i, 0) for i in range(self.r)]

    def in_kernel(self, ell):
        return xl.vec_is_zero(xl.mat_vec(self.a_ext, ell))

    def basis_coords(self, ell):
        """Integer coordinates of a lattice vector in ``basis``, read off
        ``slots`` through ``inverse``.  The basis is saturated, so a vector
        off the lattice is no relation: it raises NotInKernel."""
        m = xl.mat_vec(self.inverse, tuple(ell[s] for s in self.slots))
        if self.from_basis_coords(m) != tuple(ell):
            raise NotInKernel(f"{ell} is not a relation of the configuration")
        return m

    def from_basis_coords(self, m):
        out = [0] * self.nvars
        for coeff, vec in zip(m, self.basis):
            for idx, x in enumerate(vec):
                out[idx] += coeff * x
        return tuple(out)

    @cached_property
    def lattice_ideal(self):
        """Generators of the saturated lattice ideal
        (``triangulations.lattice_ideal_generators``); they do not depend
        on the weight, so every Groebner basis of the system starts from
        the same ones."""
        from . import triangulations as tr
        return tuple(tr.lattice_ideal_generators(self))

    @cached_property
    def indicial_locus(self):
        """``indicial_ideal_zero_locus`` of the system; it depends on the
        lifted matrix and beta only, so every chart reads the same one."""
        return indicial_ideal_zero_locus(self)

    def euler_operators(self):
        return [EulerOperator(row=k, coeffs=tuple(self.a_ext[k]),
                              eigenvalue=self.beta[k])
                for k in range(self.n + self.r)]

    def box_operators(self):
        """Generating box operators, one per primitive collection."""
        return [self.box_operator(pc.ell_ext) for pc in self.collections]

    def box_operator(self, ell):
        ell = tuple(ell)
        if not self.in_kernel(ell):
            raise NotInKernel(f"{ell} is not a relation of the configuration")
        plus, minus = xl.split_positive_negative(ell)
        return BoxOperator(ell=ell, plus=plus, minus=minus)

    def lift_weight_class(self, target):
        """Integral weight whose pairing with the basis equals ``target``.

        Exists for every integer target because the kernel basis is
        saturated.
        """
        rows = tuple(tuple(b) for b in self.basis)
        omega = xl.solve_integer(rows, tuple(target))
        assert omega is not None, "saturated kernel basis must admit a lift"
        return omega


# --- weights ------------------------------------------------------------------------

def default_weight(sys):
    """Integral lift of the sum of the ample-cone extreme rays."""
    target = tuple(sum(col) for col in zip(*sys.kahler.rays))
    return sys.lift_weight_class(target)


def weight_class(sys, omega):
    """Pairings of a weight vector with the relation-lattice basis."""
    return tuple(xl.dot(omega, b) for b in sys.basis)


def is_ample(sys, omega):
    return all(xl.dot(omega, pc.ell_ext) > 0 for pc in sys.collections)


def check_weight(sys, omega):
    omega = tuple(Fraction(x) for x in omega)
    if len(omega) != sys.nvars:
        raise WeightNotAmple(
            f"weight has {len(omega)} entries, expected {sys.nvars}")
    if not is_ample(sys, omega):
        raise WeightNotAmple(
            "weight is not strictly positive on the curve cone; "
            "series truncation would not terminate")
    return omega


def build_system(fan):
    """Assemble the system for a validated fan with its nef-partition."""
    toric.validate_fan(fan)
    a_ext = toric.a_ext_matrix(fan)
    a = toric.a_matrix(fan)
    beta = tuple([Fraction(0)] * fan.rank + [Fraction(-1, 2)] * fan.r)
    basis = xl.kernel_basis(a_ext)
    collections = toric.primitive_collections(fan)
    sys = GkzSystem(fan=fan, a=a, a_ext=a_ext, beta=beta, basis=basis,
                    collections=collections)
    for b in basis:
        assert sys.in_kernel(b)
    sys.kahler = toric.kahler_cone(sys.basis_coords, collections)
    sys.alpha = canonical_alpha(sys)
    return sys


def canonical_alpha(sys):
    """The exponent with -1/2 on each auxiliary slot and 0 elsewhere."""
    alpha = [Fraction(0)] * sys.nvars
    for pos in sys.aux_positions():
        alpha[pos] = Fraction(-1, 2)
    alpha = tuple(alpha)
    assert xl.mat_vec(sys.a_ext, alpha) == sys.beta
    return alpha


# --- indicial theory ---------------------------------------------------------------

def indicial_polynomial(sys, ell):
    """Falling-factorial polynomial attached to a relation vector.

    The symbol in slot j contributes a_j (a_j - 1) ... (a_j - plus_j + 1);
    total degree is |plus| and the top coefficient is 1.
    """
    ell = tuple(ell)
    if not sys.in_kernel(ell):
        raise NotInKernel(f"{ell} is not a relation of the configuration")
    plus, _minus = xl.split_positive_negative(ell)
    out = Poly.constant(sys.nvars, 1)
    for j, e in enumerate(plus):
        var = Poly.variable(sys.nvars, j)
        for k in range(e):
            out = out * (var - Fraction(k))
    return out


def _minimal_hitting_sets(collections_positions):
    """Inclusion-minimal sets of slots meeting every collection support."""
    universe = sorted(set().union(*collections_positions)) \
        if collections_positions else []
    hitting = []
    from itertools import combinations
    for size in range(0, len(universe) + 1):
        for combo in combinations(universe, size):
            s = frozenset(combo)
            if any(h <= s for h in hitting):
                continue
            if all(s & sup for sup in collections_positions):
                hitting.append(s)
    return hitting


def indicial_ideal_zero_locus(sys):
    """Zero locus of the indicial generators.

    The defining generators are products of single symbols (one per primitive
    collection) plus the linear rows; solving case by case over minimal
    vanishing patterns is exact and terminating.  Returns a list with at most
    one exponent vector.
    """
    supports = []
    for pc in sys.collections:
        plus, _ = xl.split_positive_negative(pc.ell_ext)
        assert all(e <= 1 for e in plus), \
            "collection lifting is not square-free"
        supports.append(frozenset(j for j, e in enumerate(plus) if e))
    points = set()
    for hitting in _minimal_hitting_sets(supports):
        rows = [tuple(row) for row in sys.a_ext]
        rhs = list(sys.beta)
        for j in sorted(hitting):
            unit = [0] * sys.nvars
            unit[j] = 1
            rows.append(tuple(unit))
            rhs.append(Fraction(0))
        sol = xl.solve_linear(rows, rhs)
        if sol is None:
            continue
        particular, null = sol
        if null:
            raise UnexpectedLocus(
                "indicial locus contains a positive-dimensional stratum; "
                "input violates the smoothness or nef assumptions")
        points.add(tuple(particular))
    if len(points) > 1:
        raise UnexpectedLocus(
            f"indicial locus has {len(points)} points, expected at most one")
    return sorted(points)


def indicial_ring_surjection_check(sys, ring):
    """Consistency of the indicial generators with the cohomology quotient.

    Substituting the divisor class plus the canonical exponent for each
    symbol must send every product generator to zero (a Stanley-Reisner
    monomial) and every linear row to zero once the eigenvalue offset is
    absorbed.
    """
    classes = []
    for (i, j) in sys.j_indices():
        classes.append(ring.divisor_class(i, j)
                       + sys.alpha[sys.j_position(i, j)] * ring.one())
    for pc in sys.collections:
        value = indicial_polynomial(sys, pc.ell_ext).evaluate(classes)
        if not value.is_zero():
            return False
    # Linear rows: sum_j A_ext[k][j] (D_j + alpha_j) - beta_k must vanish.
    for k in range(sys.n + sys.r):
        total = ring.zero()
        for j in range(sys.nvars):
            c = sys.a_ext[k][j]
            if c:
                total = total + c * classes[j]
        total = total - sys.beta[k] * ring.one()
        if not total.is_zero():
            return False
    return True
