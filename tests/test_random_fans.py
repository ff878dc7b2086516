"""Randomized integration sweep over smooth toric surfaces.

Iterated stellar subdivision of the plane fan produces every smooth complete
surface fan; keeping only those whose ray self-intersections are at least -2
guarantees the anticanonical class is nef, so the one-block partition is
valid.  Random bipartitions are kept when both block sums pair
nonnegatively with every primitive relation.  Each surviving input runs the
full invariant registry.
"""

import hashlib
import random

import pytest

from gkzfrac import checks, cli, toric
from gkzfrac import exact_linalg as xl


def random_smooth_surface_fan(rng, extra_rays):
    """Stellar subdivisions of the plane fan with nef anticanonical class."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    for _ in range(extra_rays):
        attempts = 0
        while True:
            attempts += 1
            if attempts > 50:
                return None
            i = rng.randrange(len(rays))
            j = (i + 1) % len(rays)
            candidate = rays[:i + 1] + \
                [xl.vec_add(rays[i], rays[j])] + rays[i + 1:]
            if _self_intersections_at_least(candidate, -2):
                rays = candidate
                break
    cones = [[i, (i + 1) % len(rays)] for i in range(len(rays))]
    return rays, cones


def _self_intersections_at_least(rays, bound):
    m = len(rays)
    for i in range(m):
        u = rays[(i - 1) % m]
        v = rays[i]
        w = rays[(i + 1) % m]
        # u + w = c v with c the negated self-intersection of the v divisor
        total = xl.vec_add(u, w)
        # express total = c * v exactly (consecutive smooth cones force it)
        if v[0] != 0:
            if total[0] % v[0]:
                return False
            c = total[0] // v[0]
        else:
            if total[1] % v[1]:
                return False
            c = total[1] // v[1]
        if total != xl.vec_scale(c, v):
            return False
        if -c < bound:
            return False
    return True


def nef_bipartitions(fan_rays, cones, rng, tries=10):
    """Random two-block partitions whose block sums are nef."""
    fan = toric.make_fan(2, fan_rays, cones,
                         [list(range(len(fan_rays)))])
    relations = [pc.ell for pc in toric.primitive_collections(fan)]
    found = []
    for _ in range(tries):
        block = sorted(rng.sample(range(len(fan_rays)),
                                  rng.randint(1, len(fan_rays) - 1)))
        other = [i for i in range(len(fan_rays)) if i not in block]
        ok = True
        for ell in relations:
            for part in (block, other):
                if sum(ell[i] for i in part) < 0:
                    ok = False
        if ok and (block, other) not in found:
            found.append((block, other))
    return found


INVARIANT_SEEDS = [2024, 7, 99]
BIPARTITION_SEEDS = [11, 42]


def invariant_fans(seed):
    """Two one-block surface fans drawn with the given seed."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < 2:
        result = random_smooth_surface_fan(rng, rng.randint(1, 3))
        if result is None:
            continue
        rays, cones = result
        fans.append(toric.make_fan(2, rays, cones, [list(range(len(rays)))],
                                   name=f"random{seed}_{len(fans)}"))
    return fans


def bipartition_fans(seed):
    """At most one surface fan with a nef bipartition, drawn with the seed."""
    rng = random.Random(seed)
    fans = []
    attempts = 0
    while not fans and attempts < 10:
        attempts += 1
        result = random_smooth_surface_fan(rng, rng.randint(1, 2))
        if result is None:
            continue
        rays, cones = result
        partitions = nef_bipartitions(rays, cones, rng)
        for block, other in partitions[:1]:
            fans.append(toric.make_fan(2, rays, cones, [block, other],
                                       name=f"random2_{seed}"))
    return fans


@pytest.mark.parametrize("seed", INVARIANT_SEEDS)
def test_random_surface_invariants(seed):
    for fan in invariant_fans(seed):
        results = checks.run_all(checks.Instance(fan, order=5))
        bad = [r for r in results if not r["ok"]]
        assert not bad, (fan.rays, bad)


@pytest.mark.parametrize("seed", BIPARTITION_SEEDS)
def test_random_surface_bipartitions(seed):
    fans = bipartition_fans(seed)
    assert fans, "no nef bipartition found; loosen the generator"
    for fan in fans:
        results = checks.run_all(checks.Instance(fan, order=5))
        bad = [r for r in results if not r["ok"]]
        assert not bad, (fan.rays, fan.blocks, bad)


# The fan drawn with seed 17 and five extra rays.  Plain Fourier-Motzkin
# elimination took about 24 s over its secondary cones in `check-all` and
# in `fans`; the reports are pinned as they were written then.
SEED17_RAYS = [(1, 0), (0, 1), (-1, 0), (-2, -1), (-1, -1), (0, -1), (1, -1),
               (2, -1)]
SEED17_DIGESTS = {
    "check-all":
        "ff6007cc2ae3ef7d9221b2c44f924e07c4acf9de59dabce87152dfd846dcc95f",
    "fans":
        "c157fcb36747d0adca7be5c6b720043d8e75455961cf91849a96f1139795bff4",
}


def test_seed_17_fan_passes_check_all_with_the_pinned_reports():
    rays, cones = random_smooth_surface_fan(random.Random(17), 5)
    assert rays == SEED17_RAYS
    spec = cli.InputSpec(name="seed17", rank=2, rays=[list(r) for r in rays],
                         max_cones=cones,
                         nef_partition=[list(range(len(rays)))])
    reports = {command: cli.run_command(command, spec, {"order": 5})
               for command in SEED17_DIGESTS}
    results = reports["check-all"].payload["checks"]
    assert len(results) == 25
    assert all(r["ok"] for r in results), [r for r in results if not r["ok"]]
    assert {command: hashlib.sha256(report.to_json().encode("utf-8"))
            .hexdigest() for command, report in reports.items()} == \
        SEED17_DIGESTS
