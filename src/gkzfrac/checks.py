"""Named invariant checks over one fan, shared by the CLI and the tests.

Each check reads one ``Instance`` and returns (ok, detail).  ``run_all``
executes every registered check and returns a list of result dicts; the
identifiers are stable and are referenced by the traceability table in the
README.
"""

from itertools import takewhile

from . import degeneracy as dg
from . import exact_linalg as xl
from . import gkz
from . import polytopes as pt
from . import series as se
from . import triangulations as tr
from .errors import EmptyInterior
from .instance import Instance  # re-exported: checks.Instance


def _check_exact_linalg_hnf(inst):
    h, u = xl.hermite_with_transform(inst.sys.a_ext)
    ok = abs(xl.det(u)) == 1 and xl.mat_mul(inst.sys.a_ext, u) == h
    return ok, "transform unimodular and exact"


def _check_exact_linalg_kernel(inst):
    sys = inst.sys
    bmat = tuple(zip(*sys.basis))
    span = xl.hermite_with_transform(bmat)  # one form for every box vector
    bound = 2
    while (2 * bound + 1) ** sys.nvars > 200000 and bound > 1:
        bound -= 1
    missing = 0
    for v in xl.kernel_points_in_box(sys.a_ext, bound):
        if sys.in_kernel(v) and not xl.in_integer_span(bmat, v, span):
            missing += 1
    # the certificate: relations, as many as the kernel's rank, and unit
    # Hermite pivots (the gcd of the maximal minors is 1), so saturated
    hnf = xl.hermite_with_transform(tuple(sys.basis))[0]
    pivots = [next(x for x in col if x) for col in zip(*hnf) if any(col)]
    certified = (all(sys.in_kernel(b) for b in sys.basis)
                 and len(sys.basis) == sys.nvars - xl.rank(sys.a_ext)
                 and pivots == [1] * len(sys.basis))
    return missing == 0 and certified, \
        f"saturation verified on the [-{bound},{bound}] box"


def _check_nef_roundtrip(inst):
    nabla = inst.nabla
    ok = pt.is_reflexive(nabla) and nabla.dual.dual == nabla
    return ok, "Minkowski sum reflexive with exact double dual"


def _check_minkowski_comm(inst):
    nablas = inst.nablas
    if len(nablas) < 2:
        return True, "single block, nothing to commute"
    a, b = nablas[0], nablas[1]
    return pt.minkowski_sum(a, b) == pt.minkowski_sum(b, a), "vertex sets agree"


def _check_sections_in_dual(inst):
    dual = inst.nabla.dual
    for k, delta in enumerate(inst.nablas.sections):
        for v in delta.vertices:
            if not dual.contains(v):
                return False, f"vertex {v} of block {k} escapes the dual body"
    return True, "all section vertices inside the dual body"


def _check_lifting(inst):
    sys = inst.sys
    for pc in sys.collections:
        if not sys.in_kernel(pc.ell_ext):
            return False, f"collection {sorted(pc.rays)} lifting not a relation"
        plus, _ = xl.split_positive_negative(pc.ell_ext)
        expected = [0] * sys.nvars
        for i_ray in pc.rays:
            expected[sys.fan.j_position_of_ray(i_ray)] = 1
        if plus != tuple(expected):
            return False, f"positive part of {sorted(pc.rays)} malformed"
    return True, f"{len(sys.collections)} liftings verified"


def _check_c0_nonnegative(inst):
    for pc in inst.sys.collections:
        if any(c < 0 for c in pc.c0):
            return False, f"collection {sorted(pc.rays)} has negative c0"
    return True, "auxiliary coefficients nonnegative"


def _check_ring_dimension(inst):
    ring = inst.ring
    tops = [d for d in ring.basis_degrees if d == inst.fan.rank]
    ok = ring.dim == len(inst.fan.max_cones) and len(tops) == 1
    return ok, f"dimension {ring.dim}, top degree one-dimensional"


def _check_ample_positive(inst):
    omega = inst.omega
    for pc in inst.sys.collections:
        if xl.dot(omega, pc.ell_ext) <= 0:
            return False, f"weight not positive on {sorted(pc.rays)}"
    return True, "weight strictly positive on all relations"


def _check_euler_eigenvalue(inst):
    import random
    sys = inst.sys
    # alpha times den is integral, so each row is one integer dot product
    # against its eigenvalue times den
    alpha, den = xl.integer_scaled(sys.alpha)
    rows = [(op.row, op.coeffs, op.eigenvalue * den)
            for op in sys.euler_operators()]
    rng = random.Random(47)
    for _ in range(20):
        coeffs = [rng.randint(-4, 4) for _ in sys.basis]
        ell = sys.from_basis_coords(coeffs)
        gamma = [a + den * e for a, e in zip(alpha, ell)]
        for row, op_coeffs, eigenvalue in rows:
            if xl.dot(op_coeffs, gamma) != eigenvalue:
                return False, f"row {row} misses eigenvalue at {ell}"
    return True, "20 random relation monomials hit the eigenvalues"


def _check_indicial_monic(inst):
    sys = inst.sys
    for pc in sys.collections:
        poly = gkz.indicial_polynomial(sys, pc.ell_ext)
        plus, _ = xl.split_positive_negative(pc.ell_ext)
        if poly.degree() != sum(plus) or poly.leading_coefficient() != 1:
            return False, f"indicial polynomial of {sorted(pc.rays)} not monic"
    return True, "degrees and leading coefficients as stated"


def _check_indicial_locus(inst):
    ok = inst.sys.indicial_locus == [inst.sys.alpha]
    return ok, "zero locus is the single canonical exponent"


def _check_surjection(inst):
    ok = gkz.indicial_ring_surjection_check(inst.sys, inst.ring)
    return ok, "indicial generators vanish in the quotient ring"


def _check_oracle_match(inst):
    sys, period = inst.sys, inst.period
    for ell in low_degree_slab(inst.region_slab, inst.omega,
                               min(inst.order, 8)):
        if period.coefficient(ell) != se.residue_oracle(sys, ell):
            return False, f"coefficient mismatch at {ell}"
    return True, "period coefficients equal the residue expansion"


def _check_annihilation(inst):
    # two passes per operator: gamma (the parity-signed period) and the
    # stacked pairings; a failure is named in the order gamma, pairing_0, ...
    sys = inst.sys
    ops = [(op, f"Euler row {op.row}") for op in sys.euler_operators()]
    ops += [(box, f"box {box.ell}") for box in sys.box_operators()]
    for op, label in ops:
        if not se.apply_operator(op, inst.gamma).is_zero_on_reliable_region():
            return False, f"{label} fails on gamma"
        first = se.apply_operator(op, inst.pairings).first_nonzero_component()
        if first is not None:
            return False, f"{label} fails on pairing_{first}"
    return True, (f"{sys.n + sys.r} Euler rows and {len(sys.collections)} "
                  f"box operators kill all solutions at order {inst.order}")


def _check_mori_support(inst):
    """Off the curve cone the ray slots with ell_j < 0 hold a primitive
    collection P (the support half of the B-series theorem); O_ell is then 0
    as prod_{j in P} D_j = 0, alpha_j = 0 and the factor at c = -1 is D_j."""
    sys, ring = inst.sys, inst.ring
    for pc in sys.collections:
        cls = ring.one()
        for i_ray in pc.rays:
            cls *= ring.divisor_class(*sys.fan.double_index_of_ray(i_ray))
        if not cls.is_zero():
            return False, f"collection {sorted(pc.rays)} has a nonzero product"
    for (i, j), a in zip(sys.j_indices(), sys.alpha):
        if j and a:
            return False, f"ray slot {(i, j)} has alpha {a}"
        if j and ring.slot_factor(i, j, a, -1)[0] != ring.divisor_class(i, j):
            return False, f"lowering factor of slot {(i, j)} is not its class"
    return True, "slab coefficients vanish off the curve cone"


def _check_mori_vanishing_samples(inst):
    sys, ring = inst.sys, inst.ring
    samples = mori_vanishing_samples(sys, bound=3, limit=10)
    if not samples:
        return False, "no sample vectors available"
    for ell in samples:
        if not se.vanishing_check_outside_mori(sys, ring, ell):
            return False, f"coefficient at {ell} does not vanish"
    return True, f"{len(samples)} sampled vectors vanish"


def mori_vanishing_samples(sys, bound=3, limit=10):
    """Relation vectors outside the curve cone from small generator mixes:
    the first ``limit`` nonzero coefficient vectors in [-bound, bound]^k
    off the cone, by increasing L1 norm and lexicographically within a
    norm, walked shell by shell so only the vectors up to the last sample
    are formed."""
    k = len(sys.basis)
    out = []
    for norm in range(1, k * bound + 1):
        for c in _shell(k, norm, bound):
            if se.coords_in_mori_cone(sys, c):
                continue
            out.append(sys.from_basis_coords(c))
            if len(out) == limit:
                return out
    return out


def _shell(k, norm, bound):
    """The vectors of [-bound, bound]^k with L1 norm ``norm``, in
    lexicographic order."""
    if k == 0:
        if norm == 0:
            yield ()
        return
    top = min(bound, norm)
    for x in range(-top, top + 1):
        rest = norm - abs(x)
        if rest <= bound * (k - 1):
            for tail in _shell(k - 1, rest, bound):
                yield (x,) + tail


def low_degree_keys(series, omega, cap):
    """Sorted term keys of the series whose weight degree is at most cap.

    The weight is scaled to integers once, so each distinct exponent costs
    one integer dot product against ``cap`` times the scale.
    """
    weights, den = xl.integer_scaled(omega)
    bound = cap * den
    low, keys = {}, []
    for key in series.terms:
        ell = key[0]
        ok = low.get(ell)
        if ok is None:
            ok = low[ell] = sum(w * e for w, e in zip(weights, ell)) <= bound
        if ok:
            keys.append(key)
    return sorted(keys)


def low_degree_slab(slab, omega, cap):
    """The head of a slab sorted by weight degree, up to degree ``cap``:
    in the same order, the slab that ``region_slab`` enumerates at ``cap``."""
    weights, den = xl.integer_scaled(omega)
    bound = cap * den
    return list(takewhile(lambda ell: xl.dot(weights, ell) <= bound, slab))


def _check_solution_rank(inst):
    # the pairings truncated at weight degree min(order, 6), one coordinate
    # tuple per key
    ring, cap, pairings = inst.ring, min(inst.order, 6), inst.pairings
    rank = xl.rank([pairings.terms[key]
                    for key in low_degree_keys(pairings, inst.omega, cap)])
    ok = rank == ring.dim == len(inst.fan.max_cones)
    return ok, f"solution rank {rank} matches the ring dimension"


def _check_ample_chamber(inst):
    result = tr.regular_subdivision(inst.points, inst.omega)
    ok = isinstance(result, tr.Triangulation) and \
        result.simplex_set() == inst.tmax.simplex_set()
    return ok, "ample weight induces the maximal triangulation"


def _check_volume_rank(inst):
    volume = tr.normalized_volume(inst.points, inst.tmax)
    ok = volume == len(inst.fan.max_cones) == inst.ring.dim
    return ok, f"normalized volume {volume}"


def _check_secondary_contains_ample(inst):
    # the secondary cone of T_max is the Kahler cone (Oda-Park); one that
    # lost a facet may not be pointed, which its constructor refuses
    try:
        cone = tr.secondary_cone(inst.sys, inst.points, inst.tmax)
    except EmptyInterior as exc:
        return False, f"secondary cone of the maximal triangulation: {exc}"
    for kind in ("inequalities", "rays"):
        odd = set(getattr(cone, kind)) ^ set(getattr(inst.sys.kahler, kind))
        if odd:
            return False, (f"{min(odd)} is in the {kind} of only one of the "
                           "secondary and ample cones")
    return True, "ample cone inside the secondary cone"


def _check_groebner_minimal(inst):
    sys = inst.sys
    candidates = tr.primitive_collection_binomials(sys, inst.omega)
    if not tr.minimal_gb_is_primitive_collections(sys, inst.omega,
                                                  candidates):
        return False, "collection binomials fail the S-pair or leading test"
    ideal = tr.toric_groebner_basis(sys, inst.omega)
    ok = sorted(ideal.generators) == sorted(candidates)
    return ok, "reduced basis equals the collection binomials"


def _check_tmax_contains_aux(inst):
    aux = set(inst.sys.aux_positions())
    for s in inst.tmax.simplices:
        if not aux <= set(s):
            return False, f"simplex {list(s)} misses an auxiliary point"
    return True, "every simplex contains all auxiliary points"


def _check_region_decomposition(inst):
    for _, coordinates in inst.chart_coordinates:
        for ell, m in coordinates.items():
            if any(x < 0 for x in m):
                return False, f"{ell} fails to decompose"
    return True, "summation region decomposes with nonnegative exponents"


def _check_certificate(inst):
    reports = dg.maximal_degeneracy_check(inst.sys, inst.ring,
                                          inst.chart_coordinates,
                                          inst.gamma, inst.pairings)
    for idx, report in enumerate(reports):
        if not report.passed:
            failed = [c["clause"] for c in report.clauses if not c["ok"]]
            return False, f"chart {idx} fails {failed}"
    return True, "every chart certifies a maximal degeneracy point"


CHECKS = [
    ("exact_linalg.hnf", _check_exact_linalg_hnf),
    ("exact_linalg.kernel", _check_exact_linalg_kernel),
    ("polytopes.nef_roundtrip", _check_nef_roundtrip),
    ("polytopes.minkowski_comm", _check_minkowski_comm),
    ("polytopes.sections_in_dual", _check_sections_in_dual),
    ("toric.lifting", _check_lifting),
    ("toric.c0_nonnegative", _check_c0_nonnegative),
    ("toric.ring_dimension", _check_ring_dimension),
    ("toric.ample_positive", _check_ample_positive),
    ("gkz.euler_eigenvalue", _check_euler_eigenvalue),
    ("gkz.indicial_monic", _check_indicial_monic),
    ("gkz.indicial_locus", _check_indicial_locus),
    ("gkz.surjection", _check_surjection),
    ("series.oracle_match", _check_oracle_match),
    ("series.annihilation", _check_annihilation),
    ("series.mori_support", _check_mori_support),
    ("series.mori_vanishing", _check_mori_vanishing_samples),
    ("series.solution_rank", _check_solution_rank),
    ("triangulations.ample_chamber", _check_ample_chamber),
    ("triangulations.volume_rank", _check_volume_rank),
    ("triangulations.secondary_contains_ample", _check_secondary_contains_ample),
    ("triangulations.groebner_minimal", _check_groebner_minimal),
    ("triangulations.tmax_aux", _check_tmax_contains_aux),
    ("degeneracy.region_decomposition", _check_region_decomposition),
    ("degeneracy.certificate", _check_certificate),
]


def run_all(inst):
    """Run every registered check on an Instance; returns result dicts."""
    results = []
    for check_id, fn in CHECKS:
        ok, detail = fn(inst)
        results.append({"id": check_id, "ok": bool(ok), "detail": detail})
    return results
