"""Walk through the period series of the double cover of the projective line.

The double cover of P^1 branched at four points is an elliptic curve, and
its normalized period in the canonical modulus is the classical series
sum_k (4k)!/(16^k (2k)! (k!)^2) z^k.  This script rebuilds that series three
independent ways: from the closed Gamma-quotient formula, from the residue
(constant-term) expansion, and by transporting the period series into the
canonical chart.
"""

from fractions import Fraction
from math import factorial

from gkzfrac import cli, degeneracy, gkz, series
from gkzfrac import exact_linalg as xl

spec = cli.parse_input(cli.fixture_path("p1"))
fan = spec.fan()
system = gkz.build_system(fan)

print("fan:", fan.name)
print("lifted point matrix (columns):")
for row in system.a_ext:
    print("   ", list(row))
print("fractional exponent beta:", [xl.fraction_str(b)
                                    for b in system.beta])
print("relation lattice basis:", system.basis)
print()

omega = gkz.default_weight(system)
print("ample truncation weight:", omega)
period = series.normalized_period_series(system, omega, 8)
print("period coefficients C_ell up to order 8:")
for (ell, _), coeff in period.sorted_items():
    oracle = series.residue_oracle(system, ell)
    marker = "ok" if oracle == coeff else "MISMATCH"
    print(f"    x^{list(ell)}: {xl.fraction_str(coeff):>12}   "
          f"residue oracle {xl.fraction_str(oracle):>12}   {marker}")
print()

chart = degeneracy.subdivide_kahler_cone(system)[0]
print("canonical chart monomial:", chart.basis_vectors[0],
      "with sign", chart.signs[0])
gamma = series.gamma_series(period)
z_series = degeneracy.period_in_chart(chart, degeneracy.chart_coordinates(
    system, chart, [ell for ell, _ in gamma.terms]), gamma)
print("period in the canonical coordinate z:")
for k in range(5):
    closed = Fraction(factorial(4 * k),
                      16 ** k * factorial(2 * k) * factorial(k) ** 2)
    value = z_series.coefficient((k,))
    marker = "ok" if value == closed else "MISMATCH"
    print(f"    z^{k}: {xl.fraction_str(value):>16}   closed form "
          f"{xl.fraction_str(closed):>16}   {marker}")
