"""Degeneracy certificates across the whole bundled corpus.

For each fan the ample cone carries a single smooth chart (its extreme-ray
dual basis is already unimodular), the period series extends to a genuine
power series there, and among the dual-basis solution pairings exactly one
is free of logarithms.  The Hirzebruch surface is the interesting case: one
chart coordinate carries a negative sign and one curve-cone generator leaves
the naive summation region, yet the certificate still closes.
"""

from gkzfrac import cli, degeneracy, gkz, series, toric

for name in ("p1", "p2", "p1xp1", "f1"):
    spec = cli.parse_input(cli.fixture_path(name))
    fan = spec.fan()
    system = gkz.build_system(fan)
    ring = toric.cohomology_ring(fan, system.collections)
    omega = gkz.default_weight(system)
    period = series.normalized_period_series(system, omega, 8)
    b = series.b_series(system, ring, omega, 8)
    b6 = series.b_series(system, ring, omega, 6)
    print(f"=== {name} ===")
    for chart in degeneracy.subdivide_kahler_cone(system):
        print("chart relations:", [list(v) for v in chart.basis_vectors],
              "signs:", list(chart.signs))
        report, = degeneracy.maximal_degeneracy_check(
            system, ring, [(chart, degeneracy.chart_coordinates(
                system, chart, [ell for ell, _ in period.terms]))],
            period, degeneracy.chart_pairings(system, ring, chart, b))
        for clause in report.clauses:
            status = "pass" if clause["ok"] else "FAIL"
            print(f"    [{status}] {clause['clause']}: {clause['detail']}")
        pairings = degeneracy.chart_pairings(system, ring, chart, b6)
        log_profile = sorted(
            max((sum(logdeg) for _, logdeg in s.terms), default=0)
            for s in pairings.components())
        print("    log-degree profile of the solution basis:", log_profile)
    print()
