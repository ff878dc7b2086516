"""Seeded smooth surface fans for the ``surfaces`` workload.

The fans come from the generator of ``tests/test_random_fans.py``: iterated
stellar subdivision of the plane fan, keeping a subdivision only when every
ray's self-intersection stays at least -2, so the anticanonical class is nef
and the one-block partition is valid.  One fan is drawn per size from a
fixed base seed, so every run does the same kind of work; the run's seed
then varies the shape of each fan (a unimodular change of coordinates, a
rotation or reflection of the ray order) and which nef bipartition comes
first.  Bipartitions are tested with the intersection numbers of the
torus-invariant curves, which generate the Mori cone of a smooth complete
surface.  Nothing here imports the package: the program under test only
sees the JSON this module writes.
"""

import random

SIZES = (1, 2, 3)       # extra rays over the plane fan: 4-, 5- and 6-ray fans
ORDER = 5
BASE_SEED = 0           # the stellar draws; the run's seed varies their shape


def _self_intersections(rays):
    """-c_i with rays[i-1] + rays[i+1] = c_i rays[i], or None if not smooth."""
    out = []
    m = len(rays)
    for i in range(m):
        u, v, w = rays[i - 1], rays[i], rays[(i + 1) % m]
        total = (u[0] + w[0], u[1] + w[1])
        k = 0 if v[0] else 1
        if total[k] % v[k]:
            return None
        c = total[k] // v[k]
        if total != (c * v[0], c * v[1]):
            return None
        out.append(-c)
    return out


def _stellar_fan(rng, extra_rays):
    """Rays of a random stellar subdivision, or None after 50 failed tries."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    for _ in range(extra_rays):
        for _attempt in range(50):
            i = rng.randrange(len(rays))
            j = (i + 1) % len(rays)
            new = (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1])
            candidate = rays[:i + 1] + [new] + rays[i + 1:]
            selfint = _self_intersections(candidate)
            if selfint is not None and min(selfint) >= -2:
                rays = candidate
                break
        else:
            return None
    return rays


def _is_nef(block, selfint):
    """Whether the sum of the block's divisors meets every invariant curve
    nonnegatively (adjacent divisors meet once, D_i^2 = selfint[i])."""
    m = len(selfint)
    members = set(block)
    for j in range(m):
        degree = selfint[j] if j in members else 0
        degree += ((j - 1) % m in members) + ((j + 1) % m in members)
        if degree < 0:
            return False
    return True


def _first_nef_bipartition(rng, m, selfint):
    """First nef bipartition in a seeded order over all of them, or None."""
    splits = []
    for mask in range(1, 2 ** (m - 1)):      # ray m-1 always in the 2nd block
        block = [i for i in range(m) if mask >> i & 1]
        other = [i for i in range(m) if not mask >> i & 1]
        splits.append((block, other))
    rng.shuffle(splits)
    for block, other in splits:
        if _is_nef(block, selfint) and _is_nef(other, selfint):
            return [block, other]
    return None


def _base_fans():
    """One stellar draw per size that has a nef bipartition, in ray order."""
    rng = random.Random(BASE_SEED)
    fans = []
    for extra in SIZES:
        while True:
            rays = _stellar_fan(rng, extra)
            if rays is None:
                continue
            selfint = _self_intersections(rays)
            if _first_nef_bipartition(rng, len(rays), selfint) is not None:
                break
        fans.append(rays)
    return fans


def _unimodular(rng):
    """A random integer 2x2 matrix of determinant +-1 with small entries."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        k = rng.choice((-1, 1))
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b
    return a, b, c, d


def _reshape(rng, rays):
    """The same fan in new coordinates and a rotated or reflected order."""
    a, b, c, d = _unimodular(rng)
    moved = [(a * x + b * y, c * x + d * y) for x, y in rays]
    shift = rng.randrange(len(moved))
    moved = moved[shift:] + moved[:shift]
    if rng.random() < 0.5:
        moved.reverse()
    return moved


def surface_inputs(seed):
    """Input documents for one seed: per size, the fan in a seeded shape
    under its one-block partition and under its first nef bipartition.

    No input is dropped for what the program does with it.
    """
    rng = random.Random(seed)
    docs = []
    for base in _base_fans():
        rays = _reshape(rng, base)
        m = len(rays)
        split = _first_nef_bipartition(rng, m, _self_intersections(rays))
        cones = [[i, (i + 1) % m] for i in range(m)]
        for tag, partition in (("r1", [list(range(m))]), ("r2", split)):
            docs.append({
                "name": f"surface{seed}_{m}rays_{tag}",
                "rank": 2,
                "rays": [list(r) for r in rays],
                "max_cones": cones,
                "nef_partition": partition,
                "order": ORDER,
            })
    return docs
