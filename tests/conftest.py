"""Corpus fans shared across the test suite."""

import pytest

from gkzfrac.toric import make_fan


def p1_fan():
    return make_fan(1, [(1,), (-1,)], [[0], [1]], [[0, 1]], name="p1")


def p2_fan():
    return make_fan(2, [(1, 0), (0, 1), (-1, -1)],
                    [[0, 1], [1, 2], [0, 2]], [[0, 1, 2]], name="p2")


def p1xp1_fan_r2():
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cones = [[0, 2], [0, 3], [1, 2], [1, 3]]
    return make_fan(2, rays, cones, [[0, 1], [2, 3]], name="p1xp1")


def p1xp1_fan_r1():
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cones = [[0, 2], [0, 3], [1, 2], [1, 3]]
    return make_fan(2, rays, cones, [[0, 1, 2, 3]], name="p1xp1_r1")


def f1_fan():
    rays = [(1, 0), (0, 1), (-1, 1), (0, -1)]
    cones = [[0, 1], [1, 2], [2, 3], [3, 0]]
    return make_fan(2, rays, cones, [[0, 1, 2, 3]], name="f1")


def f1_fan_r2():
    # asymmetric two-block partition: both block sums are nef on F1
    rays = [(1, 0), (0, 1), (-1, 1), (0, -1)]
    cones = [[0, 1], [1, 2], [2, 3], [3, 0]]
    return make_fan(2, rays, cones, [[0, 1, 2], [3]], name="f1_r2")


def divisor_classes(sys, ring):
    """The system's divisor classes in slot order: the classes of the slot
    logs log x_j, which the ``bseries`` report expands."""
    return [ring.divisor_class(i, j) for (i, j) in sys.j_indices()]


def lattice_log_classes(sys, ring):
    """The classes of the lattice logs ``Instance.pairings`` expands, the
    logs of the first chart's basis vectors: its dual divisor class W_k
    for log slot k."""
    from gkzfrac import degeneracy as dg
    chart = dg.subdivide_kahler_cone(sys)[0]
    return dg._dual_divisor_classes(sys, ring, chart)


def slot_log_pairings(inst):
    """The pairings of ``inst`` in slot logs, built as ``bseries`` builds
    them: the reference form of ``inst.pairings``."""
    from gkzfrac import series as se
    return se.pair_with_dual(inst.ring, inst.b,
                             divisor_classes(inst.sys, inst.ring))


def substitute(s):
    """A series in lattice logs (a chart's, say) written in slot logs: each
    y_k replaced by sum_j log_map[k][j] log x_j and y^m expanded by the
    multinomial theorem, scalar or stacked coefficients alike; keys whose
    coefficients sum to 0 are dropped."""
    from gkzfrac import series as se
    nvars = len(s.alpha)
    linear = [{tuple(int(i == j) for i in range(nvars)): b
               for j, b in enumerate(row) if b} for row in s.log_map]
    expansions = {}  # log degree m -> {slot log degree: integer coefficient}
    stacked = isinstance(next(iter(s.terms.values()), ()), tuple)
    acc = {}
    for (ell, m), coeff in s.terms.items():
        if m not in expansions:
            poly = {(0,) * nvars: 1}
            for k, e in enumerate(m):
                for _ in range(e):
                    poly = _product(poly, linear[k])
            expansions[m] = poly
        row = coeff if stacked else (coeff,)
        for logdeg, c in expansions[m].items():
            old = acc.get((ell, logdeg), (0,) * len(row))
            acc[ell, logdeg] = tuple(o + c * x for o, x in zip(old, row))
    terms = {key: row if stacked else row[0]
             for key, row in acc.items() if any(row)}
    return se.LogSeries(alpha=s.alpha, weight=s.weight, order=s.order,
                        terms=terms, shifts=s.shifts)


def _product(p, q):
    """The product of two polynomials keyed by exponent tuples."""
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


CORPUS = {
    "p1": p1_fan,
    "p2": p2_fan,
    "p1xp1": p1xp1_fan_r2,
    "p1xp1_r1": p1xp1_fan_r1,
    "f1": f1_fan,
    "f1_r2": f1_fan_r2,
}


@pytest.fixture(params=sorted(CORPUS))
def corpus_fan(request):
    return CORPUS[request.param]()
