"""Cohomology ring of the projective plane and its indicial counterpart.

Shows the quotient presentation (one cubic Stanley-Reisner monomial plus two
linear relations), evaluates the intersection pairing, and solves the
indicial constraints: products over primitive collections and the linear
rows pin the local exponent to the single half-integral point.
"""

from gkzfrac import cli, gkz, toric
from gkzfrac import exact_linalg as xl

spec = cli.parse_input(cli.fixture_path("p2"))
fan = spec.fan()
system = gkz.build_system(fan)
ring = toric.cohomology_ring(fan, system.collections)

print("ring dimension:", ring.dim, "(= number of maximal cones:",
      len(fan.max_cones), ")")
print("basis monomials by degree:")
for name, degree in zip(ring.basis_names(), ring.basis_degrees):
    print(f"    degree {degree}: {name}")
print()

h = ring.generator(0)
print("hyperplane class H = class of the first ray divisor")
print("H^2 integrates to", ring.integral(h * h))
print("H^3 is zero:", (h * h * h).is_zero())
print()

print("Stanley-Reisner monomials (as double indices):")
for mono in toric.stanley_reisner_ideal(system.collections):
    print("   ", [fan.double_index_of_ray(i) for i in mono])
print()

for pc in system.collections:
    poly = gkz.indicial_polynomial(system, pc.ell_ext)
    print("indicial polynomial of collection", sorted(pc.rays), ":",
          poly.terms)

locus = gkz.indicial_ideal_zero_locus(system)
print("indicial zero locus:",
      [[xl.fraction_str(x) for x in point] for point in locus])
print("surjection onto the indicial ring is consistent:",
      gkz.indicial_ring_surjection_check(system, ring))
