"""Truncated series with logarithms: period series, Gamma series and the
cohomology-valued solution family.

Exponents are stored as integer offsets against a fixed base exponent, so a
term (ell, m) -> c stands for c * x^(ell + alpha) * prod_k y_k^(m_k), the
log slots y_k = sum_j log_map[k][j] log(x_j) read off the series' log map;
slot logs y_j = log(x_j), the identity map, are the default.
Coefficients are exact rationals, except in the B-series, whose log-free
terms hold cohomology classes (see ``b_series``).  Truncation keeps
offsets ell with weight degree at most the stated order; after applying an
operator, the ``shifts`` record which inputs feed each output so the reliable
region can be cut exactly.
"""

import os
from fractions import Fraction
from itertools import product
from math import factorial, floor, lcm, perm
from operator import sub

from . import exact_linalg as xl
from .errors import (ConfigError, InMoriCone, NotInKernel, NotInRegion,
                     TruncationTooLarge)
from .gkz import BoxOperator, EulerOperator, check_weight, weight_class
from .toric import CohClass, integer_act

DEFAULT_MAX_TERMS = 100000


def max_terms():
    """Enumeration cap, configurable through GKZFRAC_MAX_TERMS: a positive
    integer, or unset or empty for DEFAULT_MAX_TERMS."""
    value = os.environ.get("GKZFRAC_MAX_TERMS")
    if not value:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ConfigError(
            f"GKZFRAC_MAX_TERMS must be a positive integer, got {value!r}")
    return cap


# --- rational protagonists -------------------------------------------------------

def _sqrt_coefficients(k_max):
    """r_k = r_(k-1) (1 - 2k) / 2k as unreduced integer pairs (num, den)."""
    out = [(1, 1)]
    for k in range(1, k_max + 1):
        out.append((out[-1][0] * (1 - 2 * k), out[-1][1] * 2 * k))
    return out


def _region_split(sys, ell):
    """Per-block data (k_i, ray multidegrees) of a summation-region vector."""
    ell = tuple(ell)
    ks, rays = [], []
    for i in range(sys.r):
        pos0 = sys.j_position(i, 0)
        if ell[pos0] > 0:
            raise NotInRegion(
                f"slot ({i + 1},0) of {ell} is positive")
        ks.append(-ell[pos0])
        block = []
        for j in range(1, len(sys.fan.blocks[i]) + 1):
            e = ell[sys.j_position(i, j)]
            if e < 0:
                raise NotInRegion(
                    f"slot ({i + 1},{j}) of {ell} is negative")
            block.append(e)
        rays.append(tuple(block))
    return ks, rays


def period_coefficient_C(sys, ell):
    """Exact period coefficient of x^ell over the summation region, in
    integers over one denominator."""
    ell = tuple(ell)
    if not sys.in_kernel(ell):
        raise NotInKernel(f"{ell} is not a relation of the configuration")
    ks, rays = _region_split(sys, ell)
    r = _sqrt_coefficients(max(ks, default=0))
    num, den = 1, 1
    for k_i, block in zip(ks, rays):
        num *= (-1) ** k_i * r[k_i][0] * factorial(k_i)
        den *= r[k_i][1]
        for e in block:
            den *= factorial(e)
    return Fraction(num, den)


def residue_oracle(sys, ell):
    """Constant-term extraction oracle for the period coefficients.

    Expands the product over blocks of (-x_{i,1} t^{rho} - ...)^{k_i} by
    iterated polynomial multiplication and reads the torus-constant
    coefficient of x^ell.  A block monomial's torus exponent is sum_j
    xdeg_j rho_j, so terms are keyed by the x-degree alone (a mixed-radix
    integer, digit j in base target_j + 1) and the torus exponent is read
    off the one monomial of the target x-degree.  A monomial whose x-exponent
    in some slot passes that slot's exponent in ell divides no x^ell term,
    so it is never formed.  No Gamma factors appear anywhere; this is an
    independent route to period_coefficient_C.
    """
    ks, targets = _region_split(sys, ell)
    cap = max_terms()
    r = _sqrt_coefficients(max(ks, default=0))
    num, den = 1, 1
    texp = [0] * sys.n
    for i, (k_i, target) in enumerate(zip(ks, targets)):
        digits, size = [], 1  # (place value, base, target digit) per slot
        for top in target:
            digits.append((size, top + 1, top))
            size *= top + 1
        terms = {0: 1}
        for _ in range(k_i):
            new = {}
            for xdeg, c in terms.items():
                for place, base, top in digits:
                    if xdeg // place % base != top:
                        new[xdeg + place] = new.get(xdeg + place, 0) - c
            terms = new
            if len(terms) > cap:
                raise TruncationTooLarge(
                    f"residue expansion grew past {cap} monomials "
                    f"(cap GKZFRAC_MAX_TERMS)")
        num *= terms.get(size - 1, 0) * r[k_i][0]  # every digit at target
        den *= r[k_i][1]
        for b, e in zip(sys.fan.blocks[i], target):
            texp = [t + e * x for t, x in zip(texp, sys.fan.rays[b])]
    return Fraction(0 if any(texp) else num, den)


# --- slab enumeration ------------------------------------------------------------

def _slab(sys, omega, order, extra_rows):
    """Integer points of {ell in L_ext : constraints, weight deg <= order}."""
    k = len(sys.basis)
    wclass = weight_class(sys, omega)
    rows = [(tuple(wclass), Fraction(order))]
    rows.extend(extra_rows)
    points = xl.lattice_points(rows, k, cap=max_terms(),
                               cap_name="GKZFRAC_MAX_TERMS")
    ells = [sys.from_basis_coords(m) for m in points]
    weights = xl.integer_scaled(omega)[0]  # same order, integer degrees
    ells.sort(key=lambda e: (xl.dot(weights, e), e))
    return ells


def region_slab(sys, omega, order):
    """Summation-region vectors up to the truncation order."""
    rows = []
    for i in range(sys.r):
        for j in range(1, len(sys.fan.blocks[i]) + 1):
            pos = sys.j_position(i, j)
            rows.append((tuple(-Fraction(b[pos]) for b in sys.basis),
                         Fraction(0)))
    return _slab(sys, omega, order, rows)


def mori_slab(sys, omega, order):
    """Curve-cone lattice vectors up to the truncation order."""
    rows = []
    for ray in sys.kahler.rays:
        rows.append((tuple(-Fraction(x) for x in ray), Fraction(0)))
    return _slab(sys, omega, order, rows)


def in_mori_cone(sys, ell):
    return coords_in_mori_cone(sys, sys.basis_coords(ell))


def coords_in_mori_cone(sys, coords):
    """Curve-cone test on relation-lattice basis coordinates."""
    return all(xl.dot(ray, coords) >= 0 for ray in sys.kahler.rays)


# --- the series container -------------------------------------------------------------

def slot_log_map(nvars):
    """The identity log map: log slot j is log(x_j)."""
    return tuple(tuple(int(j == k) for j in range(nvars))
                 for k in range(nvars))


class LogSeries:
    """Truncated sum of c * x^(ell + alpha) * prod_k y_k^(m_k), with
    y_k = sum_j log_map[k][j] log(x_j); slot logs unless a map is given."""

    def __init__(self, alpha, weight, order, terms=None, shifts=None,
                 log_map=None):
        self.alpha = alpha
        self.weight = weight
        self.order = order
        self.terms = {} if terms is None else terms
        self.shifts = ((0,) * len(alpha),) if shifts is None else shifts
        self.log_map = slot_log_map(len(alpha)) if log_map is None \
            else log_map

    def replace(self, **changes):
        """A new series with the given fields changed and the others shared
        with this one; the kept integer form is not carried over."""
        fields = {"alpha": self.alpha, "weight": self.weight,
                  "order": self.order, "terms": self.terms,
                  "shifts": self.shifts, "log_map": self.log_map}
        fields.update(changes)
        return LogSeries(**fields)

    def add_term(self, ell, logdeg, coeff):
        if coeff == 0:
            return
        key = (tuple(ell), tuple(logdeg))
        if key in self.terms:
            merged = self.terms[key] + coeff
            if merged == 0:
                del self.terms[key]
            else:
                self.terms[key] = merged
        else:
            self.terms[key] = coeff

    def sorted_items(self):
        weights = xl.integer_scaled(self.weight)[0]  # same order, integers
        return sorted(self.terms.items(),
                      key=lambda kv: (xl.dot(weights, kv[0][0]),
                                      kv[0][0], kv[0][1]))

    def coefficient(self, ell, logdeg=None):
        if logdeg is None:
            logdeg = (0,) * len(self.log_map)
        return self.terms.get((tuple(ell), tuple(logdeg)), 0)

    def _reliable(self):
        """Whether every input feeding an exponent offset lies inside the
        truncation order, as a function of the offset built once for many:
        the weight is scaled to integers and the largest shift's degree is
        taken off the order scaled alike, so each offset costs one integer
        dot product."""
        weights, den = xl.integer_scaled(self.weight)
        top = self.order * den - max(xl.dot(weights, s) for s in self.shifts)
        return lambda ell: xl.dot(weights, ell) <= top

    def is_zero_on_reliable_region(self):
        reliable = self._reliable()
        return not any(reliable(ell) for ell, _ in self.terms)

    def first_nonzero_component(self):
        """For a stacked series, the index of the first component with a
        nonzero term on the reliable region, or None."""
        reliable = self._reliable()
        return min((i for (ell, _), row in self.terms.items()
                    if reliable(ell)
                    for i, c in enumerate(row) if c), default=None)

    def components(self):
        """The scalar series of a stacked series, one per entry of its
        coefficient tuples, each holding its nonzero entries."""
        width = len(next(iter(self.terms.values()), ()))
        return [self.replace(terms={key: row[i]
                                    for key, row in self.terms.items()
                                    if row[i]})
                for i in range(width)]

    def integer_form(self):
        """(stacked, denominators, groups): each component written once as
        integers over its own common denominator, and the terms grouped by
        exponent offset, ``groups[ell] = [(logdeg, ((component, numerator),
        ...))]`` with nonzero numerators only.  Kept for the next call while
        the keys and coefficients are the same objects or equal."""
        keys, values = list(self.terms), list(self.terms.values())
        cached = self.__dict__.get("_integer_form")
        if cached is not None and cached[:2] == (keys, values):
            return cached[2]
        stacked = bool(values) and isinstance(values[0], tuple)
        scaled = [xl.integer_scaled(column)
                  for column in (zip(*values) if stacked else [values])]
        return self._keep_integer_form(
            stacked, [d for _, d in scaled],
            ((key, [(i, n) for i, n in enumerate(row) if n])
             for key, row in zip(keys, zip(*(n for n, _ in scaled)))))

    def _keep_integer_form(self, stacked, denominators, rows):
        """Group the rows ``(key, nonzero (component, numerator) pairs)``,
        keep the form for ``integer_form`` against the current terms and
        return it."""
        groups = {}
        for (ell, logdeg), nz in rows:
            if nz:
                groups.setdefault(ell, []).append((logdeg, tuple(nz)))
        form = (stacked, denominators, groups)
        self._integer_form = (list(self.terms), list(self.terms.values()),
                              form)
        return form


# --- series builders --------------------------------------------------------------------

def normalized_period_series(sys, omega, order, slab=None):
    """Period series: coefficients C_ell over the summation region.

    The leading transcendental prefactor is dropped and the base exponent is
    recorded in ``alpha``; printed tables show the coefficients C_ell alone.
    ``slab`` is ``region_slab(sys, omega, order)`` when the caller already
    holds it.
    """
    omega = check_weight(sys, omega)
    s = LogSeries(alpha=sys.alpha, weight=omega, order=order)
    for ell in region_slab(sys, omega, order) if slab is None else slab:
        s.add_term(ell, (0,) * sys.nvars, period_coefficient_C(sys, ell))
    return s


def gamma_series(period):
    """The Gamma series: the normalized period with each coefficient times
    the quotient parity of its offset (``parity_sign``), so its coefficients
    live on the sign-flipped quotient coordinates, as the unit pairing's do.
    Alpha, weight and order are the period's."""
    sign = parity_sign(period.alpha)
    return period.replace(terms={key: sign(key[0]) * c
                                 for key, c in period.terms.items()})


def o_class(sys, ring, ell):
    """Cohomology-valued coefficient of x^(ell + alpha) in product form.

    Each slot (i, j) with c = ell[pos] != 0 and a = alpha[pos] contributes
    the factor ``ring.slot_factor(i, j, a, c)``: prod_{k=0}^{-c-1} (D + a - k)
    for c < 0, and for c > 0 the inverse of prod_{m=1}^{c} (D + a + m), D
    the divisor class of the slot.  The ring builds each factor once, with
    its integer multiplier, so the coefficient costs one integer act per
    nonzero slot on a vector of integer numerators over one denominator,
    brought to lowest terms once at the end.  The factors commute, so every
    lowering slot (c < 0) acts before any inverse: off the curve cone the
    lowering factors of a primitive collection kill the vector, and the
    zero class is returned before any raising factor is looked up or built.
    """
    ell = tuple(ell)
    alpha = sys.alpha
    slots = [(ell[pos], alpha[pos], i, j) for (i, j) in sys.j_indices()
             for pos in [sys.j_position(i, j)] if ell[pos]]
    slots.sort(key=lambda slot: slot[0] > 0)  # lowering slots first
    v, den = ring.one().nums, 1
    for c, a, i, j in slots:
        scale, columns = ring.slot_factor(i, j, a, c)[1]
        v = integer_act(columns, v)
        if not any(v):
            return ring.zero()
        den *= scale
    return CohClass(ring, v, den)


def _log_multidegrees(nvars, top):
    out = [[(0,) * nvars]]
    for d in range(1, top + 1):
        level = []
        for prev in out[d - 1]:
            start = next((i for i in range(nvars - 1, -1, -1)
                          if prev[i] > 0), 0) if any(prev) else 0
            for j in range(start, nvars):
                m = list(prev)
                m[j] += 1
                level.append(tuple(m))
        out.append(sorted(set(level)))
    return [m for level in out for m in level]


def log_part(ring, classes, top):
    """The nonzero log-slot classes L_m = prod_j classes[j]^m_j / m_j! over
    all log multidegrees m of total degree at most ``top``.

    L_m is its parent L_(m - e_j), j the last slot of m, times classes[j]
    / m_j: one integer act of that class's ``ring.multiplier``.
    """
    acts = [ring.multiplier(cls) for cls in classes]
    m0, *degrees = _log_multidegrees(len(classes), top)
    kept = {m0: ring.one()}  # the nonzero L_m
    for m in degrees:
        j = max(k for k, e in enumerate(m) if e)
        parent = kept.get(m[:j] + (m[j] - 1,) + m[j + 1:])
        if parent is None:
            continue
        scale, columns = acts[j]
        v = integer_act(columns, parent.nums)
        if any(v):
            kept[m] = CohClass(ring, v, parent.den * scale * m[j])
    return list(kept.items())


def b_series(sys, ring, omega, order):
    """Cohomology-valued solution series sum_ell O_ell x^(ell + alpha + D).

    Only the nonzero product-form classes O_ell of the Mori slab are stored,
    as log-free terms; the factor x^D = prod_j exp(D_j log x_j) shared by
    every term is left unexpanded (``pair_with_dual`` expands it, in any
    log slots whose classes write sum_j D_j log x_j).
    """
    omega = check_weight(sys, omega)
    s = LogSeries(alpha=sys.alpha, weight=omega, order=order)
    no_logs = (0,) * sys.nvars
    for ell in mori_slab(sys, omega, order):
        base = o_class(sys, ring, ell)
        if not base.is_zero():
            s.terms[(ell, no_logs)] = base
    return s


def pair_with_dual(ring, b, classes, log_map=None):
    """The B-series ``b`` paired with the dual basis, as one stacked series
    with x^D expanded in the log slots whose divisor classes are
    ``classes``: term (ell, m) holds the coordinate tuple of
    O_ell * L_m, L_m = prod_k classes[k]^m_k / m_k! from ``log_part``,
    entry h pairing against the h-th dual-basis functional.  Keys whose
    coordinates are all 0 are dropped.

    Log slot k is y_k = sum_j log_map[k][j] log x_j (``LogSeries``), slot
    logs when no map is given; the expansion is x^D when sum_k classes[k]
    y_k = sum_j D_j log x_j, that is D_j = sum_k log_map[k][j] classes[k].

    Each product is one integer act of O_ell's ``ring.multiplier`` on L_m;
    O_0 = 1 and L_0 = 1 enter as they are.  Entries are shared Fractions,
    one per (numerator, denominator) pair, and the series keeps the integer
    form ``apply_operator`` reads, over one common denominator.
    """
    logs = [(m, cls.coords, cls.nums, cls.den)
            for m, cls in log_part(ring, classes, ring.top)]
    one = ring.one()
    fractions = {}  # denominator -> numerator -> the shared Fraction
    rows = []  # (key, coordinates, numerators, denominator)
    for (ell, _), base in b.terms.items():
        if base == one:  # O_0 is the unit class
            rows.extend(((ell, m), *row) for m, *row in logs)
            continue
        rows.append(((ell, logs[0][0]), base.coords,  # the m = 0 class is 1
                     base.nums, base.den))
        scale, columns = ring.multiplier(base)
        for m, _, ints, den in logs[1:]:
            v = integer_act(columns, ints)
            if any(v):
                d = scale * den
                shared = fractions.setdefault(d, {})
                for x in set(v).difference(shared):
                    shared[x] = Fraction(x, d)
                rows.append(((ell, m), tuple(map(shared.__getitem__, v)), v, d))
    out = b.replace(terms={key: prod for key, prod, _, _ in rows},
                    log_map=log_map)
    assert len(out.log_map) == len(classes), "one class per log slot"
    common = lcm(*{d for *_, d in rows})
    out._keep_integer_form(True, [common] * ring.dim, (
        (key, [(i, x * (common // d)) for i, x in enumerate(v) if x])
        for key, _, v, d in rows))
    return out


# --- formal operators -----------------------------------------------------------------

def apply_operator(op, s):
    """Apply an Euler or box operator to a truncated rational series, scalar
    or stacked (see ``pair_with_dual``); a scalar series is the
    one-component case.

    Each component is written once as integers over its own common
    denominator (``LogSeries.integer_form``, kept between passes) and the
    exponent factors are scaled to integers, so the per-term work is
    integer arithmetic; Fractions are built only for the output terms.
    The terms are grouped by exponent offset, so the work that depends only
    on ``ell`` (weight degree, output exponent, exponent factors) is done
    once per offset for every log degree and component.
    theta_j = x_j d_j acts on log slot k with coefficient log_map[k][j]
    (``LogSeries``): an Euler row lowers log slot k by its pairing with
    row k of the map, which is 0 on lattice logs (rows in the relation
    lattice), so there it is the scalar a_i . (alpha + ell) - beta_i; a box
    monomial lowers the logs by prod_j (sum_k log_map[k][j] d_k)^(i_j),
    expanded once per monomial (``_derivations``).  Slot logs are the
    identity map.
    The result records the exponent shifts of the operator monomials so
    that zero tests can be restricted to the reliable region, and a box
    operator computes nothing outside that region.
    """
    if not isinstance(op, (EulerOperator, BoxOperator)):
        raise TypeError(f"unsupported operator {op!r}")
    stacked, denoms, groups = s.integer_form()
    acc = {}
    width = len(denoms)
    if isinstance(op, EulerOperator):
        # only the integer part sum_j c_j ell_j changes from offset to offset
        active = [(j, c) for j, c in enumerate(op.coeffs) if c]
        base = sum((Fraction(c) * s.alpha[j] for j, c in active),
                   Fraction(0)) - op.eigenvalue
        shift, scale = base.numerator, base.denominator
        # the row's coefficient on each log slot, scaled like the value
        logs = [(k, scale * c) for k, row in enumerate(s.log_map)
                for c in [sum(c * row[j] for j, c in active)] if c]
        lowerings = {}
        for ell, terms in groups.items():
            value = shift + scale * sum(c * ell[j] for j, c in active)
            for logdeg, nz in terms:
                pattern = lowerings.get(logdeg)
                if pattern is None:
                    pattern = lowerings[logdeg] = [
                        (logdeg[:k] + (logdeg[k] - 1,) + logdeg[k + 1:],
                         c * logdeg[k])
                        for k, c in logs if logdeg[k]]
                for lg, c in [(logdeg, value)] + pattern if value else pattern:
                    row = acc.get((ell, lg))
                    if row is None:
                        row = acc[(ell, lg)] = [0] * width
                    for i, n in nz:
                        row[i] += n * c
        shifts = ((0,) * len(s.alpha),)
    else:
        # exponents alpha_j + ell_j become integers after scaling by a_scale;
        # both monomials are brought to the larger power of a_scale
        alpha, a_scale = xl.integer_scaled(s.alpha)
        top = max(sum(op.plus), sum(op.minus))
        scale = a_scale ** top
        weight, w_scale = xl.integer_scaled(s.weight)
        weight = [(k, w) for k, w in enumerate(weight) if w]
        w_plus, w_minus = (sum(w * mono[k] for k, w in weight)
                           for mono in (op.plus, op.minus))
        degree = {ell: sum(w * ell[k] for k, w in weight) for ell in groups}
        # an output is reliable when both of its sources lie inside the order
        cut = floor(w_scale * s.order) - max(w_plus, w_minus)
        for mono, w_shift, factor in (
                (op.plus, w_plus, a_scale ** (top - sum(op.plus))),
                (op.minus, w_minus, -a_scale ** (top - sum(op.minus)))):
            _apply_monomial(acc, groups, degree, mono, factor, alpha, a_scale,
                            cut + w_shift, width, s.log_map)
        shifts = (op.plus, op.minus)
    terms = {}
    for key, row in acc.items():
        if any(row):
            coeffs = tuple(Fraction(v, d * scale) if v else 0
                           for v, d in zip(row, denoms))
            terms[key] = coeffs if stacked else coeffs[0]
    return s.replace(shifts=shifts, terms=terms)


def _apply_monomial(acc, groups, degree, mono, factor, alpha, a_scale, limit,
                    width, log_map):
    """Add ``factor`` times d^mono of every integer term whose weight degree
    is at most ``limit`` into ``acc``, everything scaled by a_scale^|mono|;
    ``alpha``, ``degree`` and ``limit`` are already scaled to integers.

    In slot j with e = mono[j] and gamma = alpha_j + ell_j,
    d_j^e x^gamma f = x^(gamma-e) sum_i [z^i] ff(gamma + z, e) * D_j^i f,
    with ff the falling factorial and D_j = sum_k log_map[k][j] d/dy_k the
    log derivative of slot j; the z^i coefficients of
    prod_{t<e} (a_scale (gamma - t + z)) are integers.  The products of the
    D_j^(i_j) are expanded once per monomial (``_derivations``), when the
    first log degree other than 0 needs them; the lowering of a log degree
    (targets, weights, the powers i_j) depends on no exponent and is built
    once per log degree.
    """
    slots = [(j, e) for j, e in enumerate(mono) if e]
    derivations = None
    zero = (0,) * len(log_map)
    lowerings = {zero: [(zero, 1, 0)]}  # only the digits i_j = 0
    for ell, terms in groups.items():
        if degree[ell] > limit:
            continue
        # factor * prod_j [z^(i_j)] of slot j's polynomial, indexed by the
        # digits i_j in mixed radix (e_j + 1), first slot most significant
        coef = [factor]
        for j, e in slots:
            poly = [1]
            y = alpha[j] + a_scale * ell[j]
            for t in range(e):
                root = y - t * a_scale
                poly = [root * p + a_scale * q
                        for p, q in zip(poly + [0], [0] + poly)]
            coef = [c * p for c in coef for p in poly]
        out_ell = tuple(x - d for x, d in zip(ell, mono))
        for logdeg, nz in terms:
            pattern = lowerings.get(logdeg)
            if pattern is None:
                if derivations is None:
                    derivations = _derivations(slots, log_map)
                pattern = lowerings[logdeg] = _lowering(logdeg, derivations)
            for lg, weight, index in pattern:
                c = weight * coef[index]
                if c:
                    row = acc.get((out_ell, lg))
                    if row is None:
                        row = acc[(out_ell, lg)] = [0] * width
                    for i, n in nz:
                        row[i] += n * c


def _derivations(slots, log_map):
    """prod_j D_j^(i_j), D_j = sum_k log_map[k][j] d/dy_k, for every digit
    tuple i_j <= e_j of the slots (j, e_j), in mixed radix (e_j + 1) with
    the first slot most significant: per index, the nonzero coefficients
    keyed by the multidegree n of d/dy.  Each is its predecessor in the
    last slot times one D_j."""
    parts = [{(0,) * len(log_map): 1}]
    for j, e in slots:
        column = [(k, row[j]) for k, row in enumerate(log_map) if row[j]]
        grown = []
        for part in parts:
            grown.append(part)
            for _ in range(e):
                times = {}
                for n, c in part.items():
                    for k, b in column:
                        key = n[:k] + (n[k] + 1,) + n[k + 1:]
                        times[key] = times.get(key, 0) + c * b
                part = {key: c for key, c in times.items() if c}
                grown.append(part)
        parts = grown
    return parts


def _lowering(logdeg, derivations):
    """Every (lowered log degree m - n, c * prod_k m_k!/(m_k-n_k)!, index)
    with c the coefficient of d/dy^n, n <= m, in ``derivations[index]``."""
    out = []
    below = list(product(*(range(m + 1) for m in logdeg)))  # every n <= m
    for index, part in enumerate(derivations):
        for n in below:
            c = part.get(n)
            if c:
                for m, d in zip(logdeg, n):
                    if d:
                        c *= perm(m, d)
                out.append((tuple(map(sub, logdeg, n)), c, index))
    return out


def _aux_positions_from_alpha(alpha):
    return [j for j, a in enumerate(alpha) if a != 0]


def parity_sign(alpha):
    """The quotient parity as a function of ell: -1 to its sum over the
    slots where alpha is nonzero, which are found once."""
    aux = _aux_positions_from_alpha(alpha)
    return lambda ell: (-1) ** (sum(ell[j] for j in aux) % 2)


def vanishing_check_outside_mori(sys, ring, ell):
    """Product-form coefficient vanishes for vectors outside the curve cone."""
    ell = tuple(ell)
    if not sys.in_kernel(ell):
        raise NotInKernel(f"{ell} is not a relation of the configuration")
    if in_mori_cone(sys, ell):
        raise InMoriCone(f"{ell} lies inside the curve cone")
    return o_class(sys, ring, ell).is_zero()


# --- serialization ------------------------------------------------------------------------

def series_to_dict(s):
    """JSON-ready dict of a rational series; rationals appear as exact
    strings."""
    return {
        "alpha": [xl.fraction_str(a) for a in s.alpha],
        "weight": [xl.fraction_str(w) for w in s.weight],
        "order": xl.fraction_str(s.order),
        "terms": [{"l": list(ell), "logdeg": list(logdeg),
                   "coeff": xl.fraction_str(coeff)}
                  for (ell, logdeg), coeff in s.sorted_items()],
    }
