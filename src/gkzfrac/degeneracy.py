"""Canonical coordinates on regular maximal cones and the degeneracy
certificate.

A chart is a unimodular basis of the relation lattice sitting inside the
dual of a smooth maximal cone.  On such a chart the period series re-indexes
to a plain power series; among the solution pairings exactly one is free of
logarithms, which is the executable content of the degeneracy statement.
That solution belongs to the point, not to a chart: it is found once.
"""

from fractions import Fraction
from itertools import product
from math import floor, lcm

from . import exact_linalg as xl
from . import series as se
from .errors import NegativeExponent, SubdivisionFailed

SUBDIVISION_DEPTH_CAP = 32


class CanonicalChart:
    """A smooth maximal cone with its canonical monomial coordinates.

    ``basis_vectors`` are the relation-lattice vectors dual to the cone's
    extreme rays; coordinate k is the monomial of basis vector k times the
    sign ``signs[k]``, the quotient parity of that vector
    (``series.parity_sign``), kept for the reports.  A relation's
    exponents in these monomials are its ``chart_coordinates``.
    """

    def __init__(self, cone_rays, basis_vectors, signs):
        self.cone_rays = cone_rays
        self.basis_vectors = basis_vectors
        self.signs = signs


def _chart_from_simplicial_cone(sys, rays):
    """Chart of a smooth maximal cone given by its extreme rays."""
    inv = xl.unimodular_inverse(tuple(rays))
    basis_vectors = tuple(sys.from_basis_coords(col) for col in zip(*inv))
    assert xl.is_unimodular_lattice_basis(basis_vectors, sys.basis)
    signs = tuple(map(se.parity_sign(sys.alpha), basis_vectors))
    return CanonicalChart(cone_rays=tuple(rays), basis_vectors=basis_vectors,
                          signs=signs)


def _triangulate_cone(cone):
    """Pulling triangulation of a ConeDescription in any rank
    (De Loera-Rambau-Santos, Triangulations, 4.3): a face is the union of
    the cones over its first ray and the pieces of its facets missing that
    ray, each piece listed as the facet's piece, then that ray.  The cone is
    pulled from its least ray, each proper face, its rays sorted, from its
    least ray.  The facets of a face of rank k are its rank k - 1 cuts by
    the cone's facet hyperplanes.
    """
    def pull(face, k):
        if len(face) == k:
            return [face]
        facets = []
        for normal in cone.inequalities:
            facet = tuple(sorted(r for r in face if xl.dot(normal, r) == 0))
            if face[0] not in facet and facet not in facets and \
                    xl.rank(facet) == k - 1:
                facets.append(facet)
        return [piece + (face[0],) for facet in facets
                for piece in pull(facet, k - 1)]

    return pull(cone.rays, cone.dim)


def _stellar_refine(cones, depth=0):
    """Make every cone unimodular by stellar subdivision at short witnesses."""
    if depth > SUBDIVISION_DEPTH_CAP:
        raise SubdivisionFailed(
            f"stellar subdivision deeper than {SUBDIVISION_DEPTH_CAP} levels "
            f"(cap SUBDIVISION_DEPTH_CAP)")
    out = []
    for rays in cones:
        if abs(xl.det(rays)) == 1:
            out.append(rays)
            continue
        witness = _parallelepiped_witness(rays)
        pieces = []
        for drop in range(len(rays)):
            new = tuple(witness if i == drop else r
                        for i, r in enumerate(rays))
            if xl.det(new) != 0:
                pieces.append(new)
        out.extend(_stellar_refine(pieces, depth + 1))
    return out


def _parallelepiped_witness(rays):
    """Shortest nonzero lattice point in the half-open span of the rays, by
    (max norm, vector); None for a lattice basis.  The points are the
    classes of Z^d / R Z^d, R the rays as columns: the Hermite form of R is
    lower triangular, so 0 <= z_i < H_ii lists each class once, and
    z - R floor(R^-1 z) is its point (Cohen, GTM 138, 2.4).
    """
    r = xl.transpose(rays)
    h = xl.hermite_with_transform(r)[0]
    points = []
    for z in product(*(range(h[i][i]) for i in range(len(rays)))):
        if any(z):
            floors = [floor(c) for c in xl.solve_unique(r, z)]
            points.append(xl.vec_sub(z, xl.mat_vec(r, floors)))
    return min(points, key=lambda v: (max(abs(x) for x in v), v),
               default=None)


def subdivide_kahler_cone(sys):
    """Charts covering the closed ample cone by smooth maximal subcones:
    the pieces of its pulling triangulation, made unimodular by stellar
    subdivision, in sorted order; a unimodular simplicial cone is one chart.
    """
    pieces = _stellar_refine(_triangulate_cone(sys.kahler))
    return [_chart_from_simplicial_cone(sys, rays) for rays in sorted(pieces)]


# --- chart re-expansion -------------------------------------------------------------

def chart_coordinates(sys, chart, offsets):
    """``{ell: m}`` in the order of ``offsets``: the exponents m of x^ell in
    the chart monomials, the cone rays applied to the system coordinates of
    ell (``GkzSystem.basis_coords``); ell decomposes when m is nonnegative."""
    return {ell: xl.mat_vec(chart.cone_rays, sys.basis_coords(ell))
            for ell in offsets}


def period_in_chart(chart, coordinates, series):
    """Re-index a log-free series by the chart monomials, each coefficient
    times the quotient parity of its offset (``series.parity_sign``), which
    is the product of the chart signs to the chart exponents.

    ``coordinates`` holds the exponents of each stored offset
    (``chart_coordinates``); a negative one raises NegativeExponent, which
    falsifies holomorphy.  A chart monomial has the weight degree of its ell.
    """
    out = se.LogSeries(alpha=(0,) * len(chart.basis_vectors),
                       weight=tuple(xl.dot(series.weight, v)
                                    for v in chart.basis_vectors),
                       order=series.order)
    no_logs = (0,) * len(chart.basis_vectors)
    sign = se.parity_sign(series.alpha)
    for (ell, logdeg), coeff in series.sorted_items():
        assert all(x == 0 for x in logdeg), "chart transport needs log-free input"
        m = coordinates[ell]
        if any(x < 0 for x in m):
            raise NegativeExponent(f"{ell} needs negative chart exponents {m}")
        out.add_term(m, no_logs, sign(ell) * coeff)
    return out


def _dual_divisor_classes(sys, ring, chart):
    """Classes pairing as a dual basis against the chart basis vectors.

    Row k of ``cone_rays`` times the system's inverse, placed on the
    system's slots, pairs to the k-th unit vector against the chart basis,
    so W_k is the sum over t of that row's entry t times D_(slots[t]).
    """
    d_classes = [ring.divisor_class(i, j) for (i, j) in sys.j_indices()]
    w_classes = []
    for row in xl.mat_mul(chart.cone_rays, sys.inverse):
        cls = ring.zero()
        for slot, w in zip(sys.slots, row):
            if w:
                cls = cls + w * d_classes[slot]
        w_classes.append(cls)
    # the divisor classes must re-assemble from the duals
    for j in range(sys.nvars):
        recomposed = ring.zero()
        for k, v in enumerate(chart.basis_vectors):
            if v[j]:
                recomposed = recomposed + v[j] * w_classes[k]
        assert recomposed == d_classes[j], "dual classes are inconsistent"
    return w_classes


def chart_pairings(sys, ring, chart, b):
    """Solution pairings in the chart's logs, as one stacked series keyed
    by the lattice offsets ell.

    ``b`` is the B-series of ``sys``, paired with x^D expanded in the
    chart's dual divisor classes W_k: log slot k is the log of basis vector
    k's monomial, as D_j = sum_k v_k[j] W_k.  Entry k of each coefficient
    tuple pairs against the k-th dual basis functional.  The
    quotient parity is already part of the product-form classes, so no sign
    enters here (unlike the period, whose coefficients are untwisted).
    """
    return se.pair_with_dual(ring, b, _dual_divisor_classes(sys, ring, chart),
                             log_map=chart.basis_vectors)


# --- the certificate -----------------------------------------------------------------

class CertificateReport:
    """Per-clause outcome of the degeneracy check on one chart."""

    def __init__(self, order):
        self.order = order
        self.clauses = []

    def add(self, name, ok, detail):
        self.clauses.append({"clause": name, "ok": bool(ok),
                             "detail": detail})

    @property
    def passed(self):
        return all(c["ok"] for c in self.clauses)

    def as_dict(self):
        return {"order": self.order, "passed": self.passed,
                "clauses": self.clauses}


def maximal_degeneracy_check(sys, ring, charts, period, pairings):
    """One report per chart, in order, certifying it at the order and
    weight of ``period``, the normalized period series of ``sys``:
    ``charts`` pairs each chart with its ``chart_coordinates`` of the
    period's offsets, and ``pairings`` are the solution pairings
    (``chart_pairings``) there, keyed by lattice offsets, in any chart's logs.

    Three clauses: the period series extends as a genuine power series on
    the chart (``period_in_chart``, the one clause read per chart); the
    log-free solutions among the dual-basis pairings are one dimensional and
    match the period, signed by ``series.parity_sign``, up to one scalar
    (only on charts whose transport succeeded); the indicial locus is the
    single canonical exponent.  Two charts' logs differ by a unimodular
    integer matrix, so a combination is log-free in one exactly when it is
    in the other, with the same coefficients: the last two clauses are
    worked out once, in lattice offsets.
    """
    # the combinations of the pairings that vanish on every log key
    _, dens, groups = pairings.integer_form()
    common = lcm(*dens)
    scale = [common // d for d in dens]
    null = xl.null_basis([[(i, n * scale[i]) for i, n in nz]
                          for terms in groups.values()
                          for logdeg, nz in terms if any(logdeg)], ring.dim)
    shared = []  # the clauses after the first, the same on every chart
    if len(null) == 1:
        combo, den = xl.integer_scaled([c * s for c, s in zip(null[0], scale)])
        log_free = {(ell, logdeg): Fraction(value, den * common)
                    for ell, terms in groups.items() for logdeg, nz in terms
                    for value in [sum(combo[i] * n for i, n in nz)] if value}
        ok = bool(log_free) and not any(any(lg) for _, lg in log_free)
        shared.append(("unique_log_free_solution", ok,
                       "one-dimensional log-free subspace" if ok else
                       "log-free combination degenerates"))
        if ok:
            # the period's stored terms are nonzero; one nonzero scalar must
            # carry them, signed, onto the log-free solution, which has no
            # other key
            free = {ell: c for (ell, _), c in log_free.items()}
            sign = se.parity_sign(period.alpha)
            signed = {ell: sign(ell) * c
                      for (ell, _), c in period.terms.items()}
            ratio = next((free.get(e, 0) / c for e, c in signed.items()), 0)
            consistent = bool(ratio) and \
                free == {ell: ratio * c for ell, c in signed.items()}
            shared.append(("log_free_matches_period", consistent,
                           f"global scalar {xl.fraction_str(ratio)}"
                           if consistent else "coefficient mismatch"))
    else:
        shared.append(("unique_log_free_solution", False,
                       f"log-free subspace has dimension {len(null)}"))
    locus = sys.indicial_locus
    shared.append(("indicial_locus_is_canonical", locus == [sys.alpha],
                   "single canonical exponent" if locus == [sys.alpha]
                   else f"locus {locus}"))

    reports = []
    for chart, coordinates in charts:
        report = CertificateReport(order=period.order)
        try:
            terms = period_in_chart(chart, coordinates, period).terms
            report.add("holomorphic_extension", True,
                       f"{len(terms)} monomials, all exponents nonnegative")
        except NegativeExponent as exc:
            report.add("holomorphic_extension", False, str(exc))
        for name, ok, detail in shared:
            if name != "log_free_matches_period" or report.clauses[0]["ok"]:
                report.add(name, ok, detail)
        reports.append(report)
    return reports
