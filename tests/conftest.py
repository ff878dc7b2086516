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
    """The system's divisor classes in slot order: the B-series log slots."""
    return [ring.divisor_class(i, j) for (i, j) in sys.j_indices()]


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
