"""Triangulations, secondary cones and the toric Groebner correspondence.

For the quadric surface (a product of two projective lines) the extended
configuration has six points; the maximal triangulation consists of four
unimodular simplices all containing the two auxiliary points.  An ample
weight reproduces that triangulation as a lower hull, its secondary cone
contains the ample cone, and the primitive-collection binomials are the
reduced Groebner basis of the toric ideal with Stanley-Reisner leading
terms.
"""

from gkzfrac import cli, gkz, triangulations as tri

spec = cli.parse_input(cli.fixture_path("p1xp1"))
fan = spec.fan()
system = gkz.build_system(fan)
points = tri.PointConfiguration.from_system(system)

print("extended points:")
for idx, ((i, j), point) in enumerate(zip(system.j_indices(), points.points)):
    print(f"    #{idx} = nu_({i + 1},{j}) = {list(point)}")
print()

tmax = tri.maximal_triangulation(system, fan)
print("maximal triangulation simplices:", [list(s) for s in tmax.simplices])
print("normalized volume:", tri.normalized_volume(points, tmax),
      "= number of maximal cones:", len(fan.max_cones))
print()

omega = gkz.default_weight(system)
print("default ample weight:", omega)
chamber = tri.regular_subdivision(points, omega)
print("lower hull of the lifted weight reproduces the maximal triangulation:",
      isinstance(chamber, tri.Triangulation)
      and chamber.simplex_set() == tmax.simplex_set())

cone = tri.secondary_cone(system, points, tmax)
print("secondary cone inequalities:", [list(g) for g in cone.inequalities])
print("secondary cone extreme rays:", [list(r) for r in cone.rays])
print("contains the ample cone:",
      all(cone.contains(r) for r in system.kahler.rays))
print()

ideal = tri.toric_groebner_basis(system, omega)
print("reduced Groebner basis of the toric ideal:")
for u, v in ideal.generators:
    print(f"    leading {list(u)}  trailing {list(v)}")
print("equals the primitive-collection binomials:",
      sorted(ideal.generators)
      == sorted(tri.primitive_collection_binomials(system, omega)))
print("leading terms form the Stanley-Reisner ideal:",
      tri.minimal_gb_is_primitive_collections(system, omega))
print()

# The whole chamber structure is walked one chamber facet at a time.
print("secondary fan (chamber rays and simplex counts):")
for cone, t in tri.secondary_fan(system):
    print(f"    {[list(r) for r in cone.rays]} -> {len(t.simplices)} simplices")
print("Groebner fan (chamber rays and leading-term counts):")
for cone, leading in tri.groebner_fan(system):
    print(f"    {[list(r) for r in cone.rays]} -> {len(leading)} leading terms")
print("the two fans coincide here; on the Hirzebruch surface the Groebner "
      "fan strictly refines the secondary one (4 vs 7 chambers)")
