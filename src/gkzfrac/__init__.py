"""Exact-arithmetic toolkit for fractional GKZ hypergeometric systems.

Given a smooth projective toric fan with a nef-partition, the library builds
the extended point configuration and its half-integral GKZ system, computes
period series and cohomology-valued solution bases in exact rational
arithmetic, and verifies the structural identities relating triangulations,
Groebner bases, the Stanley-Reisner ring and maximal degeneracy at desk
scale.

Typical use::

    from gkzfrac import build_system, default_weight, make_fan
    from gkzfrac import normalized_period_series

    fan = make_fan(1, [(1,), (-1,)], [[0], [1]], [[0, 1]], name="p1")
    system = build_system(fan)
    omega = default_weight(system)
    period = normalized_period_series(system, omega, 8)
"""

__version__ = "0.1.0"

# Each public name and the module it lives in.  The package imports none of
# them up front: a name is imported from its home on first access (PEP 562),
# so ``from gkzfrac import build_system`` loads only what that name needs.
_HOMES = {
    "GkzfracError": "errors",
    "b_series": "series",
    "build_system": "gkz",
    "canonical_alpha": "gkz",
    "cohomology_ring": "toric",
    "convex_hull": "polytopes",
    "default_weight": "gkz",
    "dual_nef_partition": "polytopes",
    "gamma_series": "series",
    "make_fan": "toric",
    "maximal_degeneracy_check": "degeneracy",
    "maximal_triangulation": "triangulations",
    "normalized_period_series": "series",
    "pair_with_dual": "series",
    "subdivide_kahler_cone": "degeneracy",
    "toric_groebner_basis": "triangulations",
    "validate_fan": "toric",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
