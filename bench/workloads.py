"""The four workloads: which ``gkzfrac`` jobs make up one pass.

A job is one command line of the ``gkzfrac`` program, run in a fresh
process.  Inputs are either the bundled fixtures or JSON documents written
here, so the program only ever sees JSON files.  See README.md for why
each workload exists.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import surfaces

FIXTURES = ("f1", "p1", "p1xp1", "p1xp1_r1", "p2")
CLI_COMMANDS = ("validate", "system", "cohomology", "series", "bseries",
                "fans", "groebner", "degeneracy")
DEEP_COMMANDS = ("series", "bseries", "degeneracy")

F1_R2 = {   # F1 with the asymmetric two-block partition of tests/conftest.py
    "name": "f1_r2",
    "rank": 2,
    "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
    "nef_partition": [[0, 1, 2], [3]],
    "order": 8,
}

_P1_CUBED_RAYS = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                  [0, 0, -1]]
_P1_CUBED_CONES = [[i, j, k] for i in (0, 1) for j in (2, 3) for k in (4, 5)]
THREEFOLDS = [   # P1 x P1 x P1 as in tests/test_threefold.py
    {"name": f"p1p1p1_{tag}", "rank": 3, "rays": _P1_CUBED_RAYS,
     "max_cones": _P1_CUBED_CONES, "nef_partition": partition, "order": 4}
    for tag, partition in (("r1", [[0, 1, 2, 3, 4, 5]]),
                           ("r3", [[0, 1], [2, 3], [4, 5]]))
]


@dataclass(frozen=True)
class Job:
    id: str
    args: tuple      # gkzfrac arguments: command, input path, flags


@dataclass
class Workload:
    name: str
    jobs: list
    inputs: list     # every input file the jobs read
    generated: list  # documents written for this run, printed for replay


def _write(directory, doc):
    path = Path(directory) / f"{doc['name']}.json"
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _job(command, path, *flags):
    name = Path(path).stem
    return Job(" ".join((command, name) + flags), (command, str(path)) + flags)


def build(name, seed, src, directory):
    """Jobs of one workload; generated inputs are written to ``directory``."""
    fixtures = [Path(src) / "gkzfrac" / "fixtures" / f"{f}.json"
                for f in FIXTURES]
    if name == "corpus":
        docs = [F1_R2]
        paths = fixtures + [_write(directory, d) for d in docs]
        jobs = [_job("check-all", p, "--order", "8") for p in paths]
    elif name == "threefold":
        docs = THREEFOLDS
        paths = [_write(directory, d) for d in docs]
        jobs = [_job("check-all", p, "--order", "4") for p in paths]
    elif name == "surfaces":
        docs = surfaces.surface_inputs(seed)
        paths = [_write(directory, d) for d in docs]
        jobs = [_job("check-all", p, "--order", str(surfaces.ORDER))
                for p in paths]
    elif name == "cli":
        docs = []
        paths = fixtures
        jobs = [_job(c, p) for p in paths for c in CLI_COMMANDS]
        deep = fixtures[FIXTURES.index("p1xp1")]
        jobs += [_job(c, deep, "--order", "12") for c in DEEP_COMMANDS]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, jobs, [str(p) for p in paths], docs)


NAMES = ("corpus", "threefold", "surfaces", "cli")
