"""The layer boundaries the traced run wraps, and what each one reports.

Layer names are module names.  Each target is ``(module, name, flags,
size, busiest)``:

- ``name`` is a function, or ``Class.method``; ``CohomologyRing.build`` is
  the constructor.
- ``flags``: ``calls`` adds a ``.calls`` count; ``total`` reports the
  inclusive ``.total_s`` instead of ``.self_s``.
- ``size`` names the size the span records (see ``tracer.SIZES``), or None.
- ``busiest`` lists the workloads the layer table in README.md names as
  doing the most work in this function (for a function it does not name,
  the workloads whose jobs call it); a traced run of one of them fails when
  the wrapper recorded no call there.
"""

CHECK_ALL = ("corpus", "threefold", "surfaces")
EVERY = ("corpus", "threefold", "surfaces", "cli")

TARGETS = [
    ("exact_linalg", "lattice_points", "calls", "len", ("threefold", "surfaces")),
    ("exact_linalg", "in_integer_span", "calls", None, ("threefold", "surfaces")),
    ("exact_linalg", "kernel_basis", "", None, EVERY),
    ("exact_linalg", "hermite_with_transform", "", None, CHECK_ALL),
    ("exact_linalg", "solve_linear", "", None, EVERY),
    ("exact_linalg", "solve_unique", "calls", None, EVERY),
    ("exact_linalg", "rank", "", None, CHECK_ALL),
    ("exact_linalg", "fm_feasible", "", None, EVERY),
    ("polytopes", "dual_nef_partition", "calls", None, CHECK_ALL),
    ("polytopes", "minkowski_sum", "", None, CHECK_ALL),
    ("polytopes", "polar_dual", "", None, CHECK_ALL),
    ("toric", "make_fan", "", None, EVERY),
    ("toric", "validate_fan", "", None, ("cli",)),
    ("toric", "primitive_collections", "calls", None, CHECK_ALL),
    ("toric", "kahler_cone", "calls", None, CHECK_ALL),
    ("toric", "CohomologyRing.build", "calls", None, ("cli",)),
    ("toric", "CohomologyRing.multiply", "calls", None, ("threefold", "surfaces")),
    ("toric", "CohomologyRing.reduce_monomial", "calls", None, ("threefold", "surfaces")),
    ("gkz", "build_system", "calls", None, CHECK_ALL),
    ("gkz", "indicial_ideal_zero_locus", "calls", None, CHECK_ALL),
    ("gkz", "indicial_ring_surjection_check", "", None, CHECK_ALL),
    ("series", "region_slab", "calls", "len", ("corpus", "cli")),
    ("series", "mori_slab", "calls", "len", CHECK_ALL),
    ("series", "period_coefficient_C", "calls", None, ("corpus", "cli")),
    ("series", "residue_oracle", "calls", None, ("corpus", "cli")),
    ("series", "o_class", "calls", "nonzero", ("threefold", "surfaces")),
    ("series", "normalized_period_series", "calls", None, CHECK_ALL),
    ("series", "gamma_series", "", None, CHECK_ALL),
    ("series", "b_series", "calls", "terms", CHECK_ALL),
    ("series", "pair_with_dual", "calls", None, ("threefold", "surfaces")),
    ("series", "apply_operator", "calls", "terms_in", ("threefold", "corpus")),
    ("triangulations", "PointConfiguration.from_system", "calls", None, CHECK_ALL),
    ("triangulations", "maximal_triangulation", "calls", None, CHECK_ALL),
    ("triangulations", "regular_subdivision", "", None, ("cli", "threefold")),
    ("triangulations", "secondary_cone", "", None, ("cli", "threefold")),
    ("triangulations", "toric_groebner_basis", "calls", None, CHECK_ALL),
    ("triangulations", "buchberger", "calls", "len", ("cli", "threefold")),
    ("triangulations", "minimal_gb_is_primitive_collections", "", None, ("cli", "threefold")),
    ("triangulations", "secondary_fan", "", None, ("cli",)),
    ("triangulations", "groebner_fan", "", None, ("cli",)),
    ("degeneracy", "subdivide_kahler_cone", "calls", None, CHECK_ALL),
    ("degeneracy", "chart_pairings", "calls", "terms", ("corpus", "cli")),
    ("degeneracy", "period_in_chart", "", None, ("corpus", "cli")),
    ("degeneracy", "maximal_degeneracy_check", "total", None, ("corpus", "cli")),
    ("cli", "parse_input", "", None, EVERY),
    ("cli", "run_command", "total", None, EVERY),
    ("cli", "Report.to_json", "", "bytes", EVERY),
]

# The check registry is wrapped entry by entry; each reports a total time.
CHECK_IDS = [
    "exact_linalg.hnf", "exact_linalg.kernel", "polytopes.nef_roundtrip",
    "polytopes.minkowski_comm", "polytopes.sections_in_dual",
    "toric.lifting", "toric.c0_nonnegative", "toric.ring_dimension",
    "toric.ample_positive", "gkz.euler_eigenvalue", "gkz.indicial_monic",
    "gkz.indicial_locus", "gkz.surjection", "series.oracle_match",
    "series.annihilation", "series.mori_support", "series.mori_vanishing",
    "series.solution_rank", "triangulations.ample_chamber",
    "triangulations.volume_rank",
    "triangulations.secondary_contains_ample",
    "triangulations.groebner_minimal", "triangulations.tmax_aux",
    "degeneracy.region_decomposition", "degeneracy.certificate",
]


def span_name(module, name):
    return f"{module}.{name}"
