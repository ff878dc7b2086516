"""Triangulations of the extended configuration, secondary cones, and the
binomial Groebner machinery of the toric ideal.

Points live in Z^(n+r) on the height-one slice, so top cells have n+r
points and normalized volumes are plain determinants.  The Groebner engine
works entirely with binomials: S-pairs of binomials are binomials, and the
lattice ideal is reached from a kernel basis by saturating one variable at a
time.
"""

from fractions import Fraction
from operator import le

from . import exact_linalg as xl
from .errors import (DegenerateSimplex, NonTermination, NotRegular,
                     NotUnimodular)
from .toric import ConeDescription

GB_PAIR_CAP = 20000
GB_BASIS_CAP = 2000


class PointConfiguration:
    """The extended point set, indexed like the columns of the lifted matrix."""

    def __init__(self, points):
        self.points = points

    @classmethod
    def from_system(cls, sys):
        cols = tuple(zip(*sys.a_ext))
        return cls(points=cols)

    @property
    def dim(self):
        return len(self.points[0])

    def __len__(self):
        return len(self.points)


class Triangulation:
    """Top-dimensional simplices given by point index tuples."""

    def __init__(self, simplices, weight=None):
        self.simplices = simplices
        self.weight = weight

    def simplex_set(self):
        return {frozenset(s) for s in self.simplices}

    def vertex_indices(self):
        return sorted({i for s in self.simplices for i in s})


class Subdivision:
    """A regular subdivision with at least one non-simplex cell."""

    def __init__(self, cells, weight=None):
        self.cells = cells
        self.weight = weight


def maximal_triangulation(sys, fan):
    """The triangulation induced by the fan of the total bundle space.

    Every simplex consists of the lifted rays of one maximal cone together
    with all auxiliary points, and is unimodular by smoothness.
    """
    pc = PointConfiguration.from_system(sys)
    aux = sys.aux_positions()
    simplices = []
    for cone in sorted(fan.max_cones, key=sorted):
        idx = sorted(aux + [fan.j_position_of_ray(i) for i in cone])
        simplices.append(tuple(idx))
    tri = Triangulation(simplices=tuple(sorted(simplices)))
    for s in tri.simplices:
        mat = [pc.points[i] for i in s]
        d = xl.det(mat)
        if abs(d) != 1:
            raise NotUnimodular(
                f"simplex {list(s)} has determinant {d}; input fan cannot be "
                "smooth")
        assert all(a in s for a in aux)
    return tri


def normalized_volume(pc, tri):
    """Sum of absolute determinants of the simplices."""
    total = 0
    for s in tri.simplices:
        mat = [pc.points[i] for i in s]
        d = xl.det(mat)
        if d == 0:
            raise DegenerateSimplex(f"simplex {list(s)} is degenerate")
        total += abs(d)
    return total


def regular_subdivision(pc, omega):
    """Lower-hull subdivision of the lifted cone for the given weight.

    The cells are the vertices u of {u : u . p_i <= omega_i}, each holding
    the points whose inequality u makes tight.  The vertices are x / t for
    the rays with t > 0 of {(x, t) : t omega_i - x . p_i >= 0}; no row
    t >= 0 is needed, since such a ray is extreme exactly when its tight
    point rows have rank m.  Returns a Triangulation when every cell is a
    simplex; otherwise a Subdivision carrying the cells.
    """
    omega = tuple(Fraction(w) for w in omega)
    m = pc.dim
    rows = [tuple(-x for x in p) + (w,) for p, w in zip(pc.points, omega)]
    ordered = tuple(sorted(
        tuple(i for i, (p, w) in enumerate(zip(pc.points, omega))
              if xl.dot(r[:-1], p) == r[-1] * w)
        for r in xl.extreme_rays(rows, m + 1) if r[-1] > 0))
    if all(len(c) == m for c in ordered):
        return Triangulation(simplices=ordered, weight=omega)
    return Subdivision(cells=ordered, weight=omega)


def nonvertex_points(pc, tri):
    """Indices that are not vertices of any simplex of the triangulation."""
    used = set(tri.vertex_indices())
    return sorted(set(range(len(pc.points))) - used)


def secondary_cone(sys, pc, tri):
    """Inequality description of the weights inducing the triangulation.

    One covector per (simplex, outside point) pair: the value the simplex's
    linear interpolation assigns to the point must not exceed the point's own
    weight.  This covers both the wall-folding conditions and the condition
    on points that are vertices of no simplex; the latter clause is vacuous
    exactly when ``nonvertex_points`` is empty.  Covectors are kernel
    vectors, reported in coordinates dual to the relation-lattice basis.
    Raises NotRegular when the cone has empty interior.
    """
    npts = len(pc.points)
    covectors = set()
    for s in tri.simplices:
        mat = tuple(zip(*(pc.points[i] for i in s)))
        for outside in range(npts):
            if outside in s:
                continue
            coeffs = xl.solve_unique(mat, pc.points[outside])
            if coeffs is None:
                raise DegenerateSimplex(f"simplex {list(s)} is degenerate")
            lam = [Fraction(0)] * npts
            lam[outside] = Fraction(1)
            for i, c in zip(s, coeffs):
                lam[i] -= c
            lam = xl.primitive_vector(xl.integer_scaled(lam)[0])
            assert sys.in_kernel(lam)
            covectors.add(lam)
    rows = sorted(sys.basis_coords(lam) for lam in covectors)
    dim = len(sys.basis)
    strict_rows = [(tuple(-Fraction(x) for x in g), Fraction(0), True)
                   for g in rows]
    if not xl.fm_feasible(strict_rows, dim):
        raise NotRegular("triangulation admits no strictly convex weight")
    # Redundant: a secondary cone is pointed here, so past this test the
    # constructor's EmptyInterior cannot fire; ROADMAP C1 + 1 deletes it.
    return ConeDescription(dim, rows)


# --- binomial Groebner bases -----------------------------------------------------

class TermOrder:
    """Matrix term order: compare weight rows lexicographically.

    Each row is scaled to integers by the lcm of its denominators, which
    leaves the order unchanged, and kept as its nonzero (slot, weight)
    pairs; each monomial's key is computed once and kept for the life of
    the order.
    """

    def __init__(self, rows):
        self._rows = tuple(
            tuple((j, w) for j, w in enumerate(xl.integer_scaled(row)[0]) if w)
            for row in rows)
        self._keys = {}

    def key(self, mono):
        key = self._keys.get(mono)
        if key is None:
            key = self._keys[mono] = tuple(
                sum(w * mono[j] for j, w in row) for row in self._rows)
        return key

    def greater(self, a, b):
        return self.key(a) > self.key(b)


def weight_order(omega, nvars):
    """Weight first, then lexicographic on the slot order (documented
    tie-break)."""
    rows = [tuple(Fraction(w) for w in omega)]
    for j in range(nvars):
        rows.append(tuple(1 if i == j else 0 for i in range(nvars)))
    return TermOrder(rows=tuple(rows))


def grevlex_last_order(nvars, last):
    """Graded reverse lexicographic order with the given variable cheapest."""
    sequence = [j for j in range(nvars) if j != last] + [last]
    rows = [tuple(1 for _ in range(nvars))]
    for var in reversed(sequence):
        rows.append(tuple(-1 if i == var else 0 for i in range(nvars)))
    return TermOrder(rows=tuple(rows))


class BinomialIdeal:
    """Reduced Groebner generators y^u - y^v with u the leading exponent."""

    def __init__(self, generators, weight, nvars):
        self.generators = generators
        self.weight = weight
        self.nvars = nvars

    def leading_exponents(self):
        return [u for u, _v in self.generators]


def _orient(u, v, order):
    if u == v:
        return None
    return (u, v) if order.greater(u, v) else (v, u)


def _divides(u, a):
    return all(map(le, u, a))


def _reduce(binomial, basis, order):
    """Full reduction; returns an oriented binomial or None when it drops to
    zero."""
    if binomial is None:
        return None
    a, b = binomial
    changed = True
    while changed:
        changed = False
        for u, v in basis:
            if _divides(u, a):
                a = tuple(x - y + z for x, y, z in zip(a, u, v))
                ori = _orient(a, b, order)
                if ori is None:
                    return None
                a, b = ori
                changed = True
                break
    return _orient(a, _rewrite(b, basis), order)


def _rewrite(mono, basis):
    """``mono`` rewritten by the first binomial whose leading exponent
    divides it, until none does."""
    while True:
        for u, v in basis:
            if _divides(u, mono):
                mono = tuple(x - y + z for x, y, z in zip(mono, u, v))
                break
        else:
            return mono


def _spair(g1, g2):
    (u1, v1), (u2, v2) = g1, g2
    w = tuple(max(a, b) for a, b in zip(u1, u2))
    t1 = tuple(x - y + z for x, y, z in zip(w, u1, v1))
    t2 = tuple(x - y + z for x, y, z in zip(w, u2, v2))
    return t1, t2


def buchberger(generators, order):
    """Buchberger specialized to binomials, with an iteration guard."""
    basis = []
    for u, v in generators:
        ori = _orient(tuple(u), tuple(v), order)
        red = _reduce(ori, basis, order)
        if red is not None:
            basis.append(red)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    processed = 0
    while pairs:
        i, j = pairs.pop(0)
        processed += 1
        if processed > GB_PAIR_CAP:
            raise NonTermination(
                f"more than {GB_PAIR_CAP} S-pairs (cap GB_PAIR_CAP); "
                "instance too large")
        u1, _ = basis[i]
        u2, _ = basis[j]
        if all(a == 0 or b == 0 for a, b in zip(u1, u2)):
            continue  # coprime leading terms reduce to zero
        s = _orient(*_spair(basis[i], basis[j]), order=order)
        red = _reduce(s, basis, order)
        if red is None:
            continue
        basis.append(red)
        if len(basis) > GB_BASIS_CAP:
            raise NonTermination(
                f"basis grew past {GB_BASIS_CAP} binomials (cap GB_BASIS_CAP)")
        pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return reduce_basis(basis, order)


def reduce_basis(basis, order):
    """The unique reduced basis of a Groebner basis, by leading term.

    Taken by total degree, so every proper divisor comes first, an element
    is dropped when the leading exponent of one kept before it divides its
    own; each tail of that minimal basis is then rewritten once against it.
    """
    minimal = []
    for u, v in sorted(set(basis), key=lambda g: sum(g[0])):
        if not any(_divides(w, u) for w, _ in minimal):
            minimal.append((u, v))
    minimal.sort(key=lambda g: order.key(g[0]))
    return [(u, _rewrite(v, minimal)) for u, v in minimal]


def _saturate_variable(basis, nvars, var):
    """Divide out the cheapest variable after a grevlex-last basis."""
    order = grevlex_last_order(nvars, var)
    gb = buchberger(basis, order)
    out = []
    for u, v in gb:
        m = min(u[var], v[var])
        if m:
            u = tuple(x - m if j == var else x for j, x in enumerate(u))
            v = tuple(x - m if j == var else x for j, x in enumerate(v))
        if u != v:
            out.append((u, v))
    return out


def lattice_ideal_generators(sys):
    """Generators of the saturated lattice ideal from the kernel basis.

    The basis binomials generate the ideal only up to saturation by the
    product of all variables; saturating one variable at a time (each via a
    graded reverse-lex basis with that variable cheapest) reaches the full
    toric ideal.
    """
    gens = [xl.split_positive_negative(b) for b in sys.basis]
    for var in range(sys.nvars):
        gens = _saturate_variable(gens, sys.nvars, var)
    return gens


def toric_groebner_basis(sys, omega):
    """Reduced Groebner basis of the toric ideal for the weight order."""
    order = weight_order(omega, sys.nvars)
    basis = buchberger(sys.lattice_ideal, order)
    return BinomialIdeal(generators=tuple(basis),
                         weight=tuple(Fraction(w) for w in omega),
                         nvars=sys.nvars)


def primitive_collection_binomials(sys, omega):
    """The candidate basis y^(plus) - y^(minus) over primitive collections.

    With a weight from the ample cone the collection side always leads.
    """
    order = weight_order(omega, sys.nvars)
    out = []
    for pc in sys.collections:
        plus, minus = xl.split_positive_negative(pc.ell_ext)
        assert xl.dot(omega, pc.ell_ext) > 0, \
            "weight is not ample: collection side does not lead"
        out.append(_orient(plus, minus, order))
    return sorted(out, key=lambda g: order.key(g[0]))


# --- full fan enumeration -------------------------------------------------------------

FAN_CHAMBER_CAP = 200


def _facets(cone):
    """(rays, inward normal) of each facet of a full-dimensional chamber, in
    decreasing order of det(rays + [outward normal]) for a facet of dim - 1
    rays and 0 for any other; in rank 2 this puts the counterclockwise
    facet first."""
    def turn(facet):
        rays, normal = facet
        if len(rays) != cone.dim - 1:
            return 0
        return xl.det(rays + (tuple(-x for x in normal),))

    facets = [(tuple(r for r in cone.rays if xl.dot(normal, r) == 0), normal)
              for normal in cone.inequalities]
    return sorted(facets, key=turn, reverse=True)


def walk_fan(chamber_of, start):
    """Enumerate a complete fan of pointed chambers by a depth-first walk
    across their facets.

    ``chamber_of(direction)`` returns (label, ConeDescription) for a
    direction strictly inside a maximal cone, or raises NotRegular on a
    wall.  The walk starts at the chamber of ``start`` and crosses a facet
    at ``primitive(scale * sum of its rays - inward normal)``, moving the
    probe closer (scale 2, 8, ..., 2 * 4^11) until a chamber holds it
    strictly together with every ray of the facet.  The chambers already
    found are tried at every scale before ``chamber_of`` is called, so a
    facet shared with a known chamber costs no call, nor does a probe
    strictly inside any chamber returned before.  Every facet of every
    returned chamber is crossed into a returned chamber, so the list closes
    up.  In rank 2 the chambers come counterclockwise from the start; in
    rank 1 the facet is the origin.
    """
    seen = []  # every (label, cone) chamber_of returned

    def lookup(direction):
        for label, cone in seen:
            if cone.contains(direction, strict=True):
                return label, cone
        seen.append(chamber_of(direction))
        return seen[-1]

    label, cone = lookup(start)
    assert cone.contains(start, strict=True), "start direction lies on a wall"
    chambers = [(cone, label)]

    def cross(rays, normal):
        """The chamber across a facet, or None when it is already found."""
        probes = [xl.primitive_vector(
            tuple(2 * 4 ** k * sum(r[i] for r in rays) - n
                  for i, n in enumerate(normal))) for k in range(12)]
        known = [c for c, _ in chambers if all(r in c.rays for r in rays)]
        if any(c.contains(p, strict=True) for p in probes for c in known):
            return None
        for probe in probes:
            try:
                label, chamber = lookup(probe)
            except NotRegular:
                continue
            if (chamber.contains(probe, strict=True)
                    and all(r in chamber.rays for r in rays)):
                return chamber, label
        raise NonTermination("could not step across a chamber wall")

    def visit(chamber):
        for rays, normal in _facets(chamber):
            found = cross(rays, normal)
            if found is not None:
                chambers.append(found)
                if len(chambers) > FAN_CHAMBER_CAP:
                    raise NonTermination(
                        f"fan walk passed {FAN_CHAMBER_CAP} chambers "
                        "(cap FAN_CHAMBER_CAP)")
                visit(found[0])

    visit(cone)
    return chambers


def secondary_fan(sys):
    """All maximal secondary cones with their regular triangulations.

    Returns a list of (ConeDescription, Triangulation) covering the whole
    relation-lattice dual, walked from the Kaehler chamber.
    """
    pc = PointConfiguration.from_system(sys)

    def chamber_of(direction):
        omega = sys.lift_weight_class(direction)
        result = regular_subdivision(pc, omega)
        if not isinstance(result, Triangulation):
            raise NotRegular(
                f"direction {direction} lies on a wall of the secondary fan")
        return result, secondary_cone(sys, pc, result)

    return walk_fan(chamber_of, tuple(map(sum, zip(*sys.kahler.rays))))


def groebner_fan(sys):
    """All maximal leading-term cones with their leading exponent sets.

    Each chamber is cut out by the exponent differences of the reduced
    basis computed at an interior direction; the result refines the
    secondary fan.
    """
    def chamber_of(direction):
        ideal = toric_groebner_basis(sys, sys.lift_weight_class(direction))
        cone = ConeDescription(len(sys.basis), [
            sys.basis_coords(tuple(a - b for a, b in zip(u, v)))
            for u, v in ideal.generators])
        return frozenset(ideal.leading_exponents()), cone

    return walk_fan(chamber_of, tuple(map(sum, zip(*sys.kahler.rays))))


def minimal_gb_is_primitive_collections(sys, omega, candidates=None):
    """Do the collection binomials form a Groebner basis with Stanley-Reisner
    leading terms?

    Checks that every S-pair of the candidate set reduces to zero against it
    and that the leading exponents are exactly the square-free collection
    indicators.
    """
    order = weight_order(omega, sys.nvars)
    candidates = candidates or primitive_collection_binomials(sys, omega)
    for i in range(len(candidates)):
        for j in range(i):
            u1, _ = candidates[i]
            u2, _ = candidates[j]
            if all(a == 0 or b == 0 for a, b in zip(u1, u2)):
                continue
            s = _orient(*_spair(candidates[i], candidates[j]), order=order)
            if _reduce(s, candidates, order) is not None:
                return False
    sr = set()
    for pc in sys.collections:
        indicator = [0] * sys.nvars
        for i_ray in pc.rays:
            indicator[sys.fan.j_position_of_ray(i_ray)] = 1
        sr.add(tuple(indicator))
    leading = {u for u, _v in candidates}
    return leading == sr
