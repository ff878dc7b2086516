"""gkzfrac benchmark: cold command-line jobs, one at a time.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout; the package is taken from ``src/``.
One driver process runs the jobs of a workload in sequence (a closed loop
with one client), each job in a fresh Python process exactly as the
``gkzfrac`` console script runs it, so no cache survives from one job to the
next.

``--trace 0`` measures set-up time, then repeats passes over every job until
``--seconds`` is used up (at least two passes) and prints the end-to-end
metrics.  Times are wall times scaled to one machine speed with a yardstick
read between processes (see ``yardstick``).  ``--trace 1`` runs one untraced and one traced pass, where each job
goes through ``tracer.py``, and prints the per-layer metrics.  Every job's
report is checked, and its bytes must repeat across passes and between the
traced and untraced runs.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The body of the installed ``gkzfrac`` console script.
CLI_ENTRY = "import sys; from gkzfrac.cli import main; sys.exit(main())"
# What every job pays before its command runs: import, then parse inputs.
SETUP_ENTRY = ("import sys; from gkzfrac import cli\n"
               "for path in sys.argv[1:]:\n    cli.parse_input(path)")
SETUP_REPEATS = 11
JOB_TIMEOUT_S = 150
MIN_PASSES = 2
MAX_MEASURE_S = 120
# Seconds the yardstick takes at the speed all reported times are quoted in.
YARDSTICK_S = 0.009


# --- running one process -------------------------------------------------------------

def _environment():
    env = dict(os.environ)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _spawn(argv, out_path, err_path):
    """Run one process to completion; returns (seconds, peak RSS KiB, code).

    The process is reaped with ``wait4`` so its own peak resident set is
    read, and it is killed if it outlives JOB_TIMEOUT_S.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=_environment())
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss, proc.returncode


def _yardstick_once():
    n = 6
    for shift in range(30):
        m = [[Fraction(1, i + j + 1 + shift) for j in range(n)]
             for i in range(n)]
        for c in range(n):
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]


def yardstick():
    """Seconds of a fixed exact-arithmetic computation, median of three.

    On the 2-core virtual machine the benchmark was calibrated on, speed
    changes by up to 1.8x within a minute, for every process alike.  Each process is timed
    between two yardstick readings and its wall time is scaled by
    YARDSTICK_S over their mean, so reported times are quoted at one speed.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        _yardstick_once()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _scaled_spawn(argv, out_path, err_path, before):
    """``_spawn`` between two yardstick readings.

    Returns (wall seconds, scale, peak RSS KiB, code, the reading after).
    """
    seconds, rss, code = _spawn(argv, out_path, err_path)
    after = yardstick()
    return seconds, 2 * YARDSTICK_S / (before + after), rss, code, after


def _false_checks(value, path="payload"):
    """Paths of every object in a report whose ``ok`` field is false."""
    found = []
    if isinstance(value, dict):
        if value.get("ok") is False:
            found.append(value.get("id") or value.get("clause") or path)
        for key, inner in value.items():
            found.extend(_false_checks(inner, f"{path}/{key}"))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            found.extend(_false_checks(inner, f"{path}/{i}"))
    return found


def _program_error(stderr_text):
    """The typed error line ``gkzfrac: <Error>: <message>``, if any."""
    for line in stderr_text.splitlines():
        if line.startswith("gkzfrac: ") and " finished in " not in line:
            return line[len("gkzfrac: "):]
    return None


class JobResult:
    """Outcome of one job run.

    ``status`` is ``ok``; ``rejected`` when the program refused the input
    with a typed error (exit 1, no report), which counts as failed but is
    not a wrong answer; or ``wrong`` for a report with a false check, a
    crash, a timeout or any other exit code.
    """

    def __init__(self, job, wall, scale, rss_kib, code, report, stderr_text):
        self.job = job
        self.wall = wall
        self.scale = scale
        self.seconds = wall * scale
        self.rss_kib = rss_kib
        self.digest = hashlib.sha256(report).hexdigest()
        self.size = len(report)
        error = _program_error(stderr_text)
        false = []
        if report:
            try:
                false = _false_checks(json.loads(report))
            except ValueError:
                false = ["report is not JSON"]
        if code == 0 and report and not false:
            self.status, self.detail = "ok", ""
        elif code == 1 and not report and error:
            self.status, self.detail = "rejected", error
        elif false:
            self.status = "wrong"
            self.detail = f"exit {code}, false checks: {', '.join(false)}"
        else:
            tail = stderr_text.strip().splitlines()[-1:] or ["no output"]
            self.status, self.detail = "wrong", f"exit {code}: {tail[0]}"


def run_job(job, work, before, spans_file=None):
    """One job after a yardstick reading; returns (result, next reading)."""
    if spans_file is None:
        argv = [sys.executable, "-c", CLI_ENTRY, *job.args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_file),
                job.id, "--", *job.args]
    out_path, err_path = work / "report.out", work / "report.err"
    wall, scale, rss, code, after = _scaled_spawn(argv, out_path, err_path,
                                                  before)
    result = JobResult(job, wall, scale, rss, code, out_path.read_bytes(),
                       err_path.read_text(encoding="utf-8", errors="replace"))
    return result, after


def run_pass(load, work, traced=False):
    """Every job once, in order; returns (scaled seconds, results, spans).

    The pass time is the sum of the jobs' scaled times, so the yardstick
    readings between jobs do not count.
    """
    results, spans = [], []
    reading = yardstick()
    for i, job in enumerate(load.jobs):
        spans_file = work / f"spans-{i}.json" if traced else None
        result, reading = run_job(job, work, reading, spans_file)
        results.append(result)
        spans.append((spans_file, result.scale))
    return sum(r.seconds for r in results), results, spans


def measure_setup(load, work):
    """Median scaled time of a fresh process that imports and parses inputs."""
    argv = [sys.executable, "-c", SETUP_ENTRY, *load.inputs]
    out_path, err_path = work / "setup.out", work / "setup.err"
    times = []
    reading = yardstick()
    for i in range(SETUP_REPEATS + 1):       # the first one compiles bytecode
        wall, scale, _, code, reading = _scaled_spawn(argv, out_path,
                                                      err_path, reading)
        if code != 0:
            err = err_path.read_text(encoding="utf-8", errors="replace")
            raise SystemExit(f"set-up process failed (exit {code}):\n{err}")
        if i:
            times.append(wall * scale)
    return statistics.median(times)


# --- checking outputs -----------------------------------------------------------------

def check_passes(passes):
    """Compare every pass with the first one.

    Returns (failed job runs, correct, problems).  A job run fails unless its
    status is ok and its report bytes equal those of the first pass; the
    run stays correct while every failure is a repeatable typed rejection.
    """
    first = passes[0]
    failed, correct, problems = 0, True, []
    for results in passes:
        for base, res in zip(first, results):
            if res.status != "ok":
                failed += 1
                if res.status == "wrong":
                    correct = False
                    problems.append(f"{res.job.id}: {res.detail}")
            if res.digest != base.digest or res.status != base.status:
                correct = False
                if res.status == "ok":
                    failed += 1
                problems.append(f"{res.job.id}: report differs between runs")
    return failed, correct, problems


def workload_digest(results):
    h = hashlib.sha256()
    for res in results:
        h.update(f"{res.job.id}\0{res.digest}\n".encode("utf-8"))
    return h.hexdigest()


# --- per-layer aggregation ------------------------------------------------------------

def aggregate_spans(span_files):
    """Sum spans over the jobs of a traced pass, by span name.

    ``span_files`` holds (path, scale) per job; span durations are scaled
    like the job's wall time.
    """
    stats = defaultdict(lambda: {"calls": 0, "self": 0.0, "total": 0.0,
                                 "size_sum": 0, "size_max": 0})
    counters = defaultdict(int)
    caps = {}
    for path, scale in span_files:
        if not path.exists():
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        caps = {"max_terms": doc["max_terms"],
                "gb_basis_cap": doc["gb_basis_cap"]}
        for key, value in doc["counters"].items():
            counters[key] += value
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, size), child in zip(spans, covered):
            entry = stats[name]
            entry["calls"] += 1
            entry["total"] += (end - start) * scale
            entry["self"] += (end - start - child) * scale
            if size is not None:
                entry["size_sum"] += size
                entry["size_max"] = max(entry["size_max"], size)
    return stats, counters, caps


def layer_metrics(stats, counters, caps):
    """Every per-layer metric, by name: (value, unit)."""
    out = {}
    for module, name, flags, size, _ in layers.TARGETS:
        span = layers.span_name(module, name)
        entry = stats[span]
        if "total" in flags:
            out[f"{span}.total_s"] = (entry["total"], "s")
        else:
            out[f"{span}.self_s"] = (entry["self"], "s")
        if "calls" in flags:
            out[f"{span}.calls"] = (entry["calls"], "count")
    for check_id in layers.CHECK_IDS:
        out[f"checks.{check_id}.total_s"] = (
            stats[f"checks.{check_id}"]["total"], "s")
    for span, size in (("exact_linalg.lattice_points", "points"),
                       ("series.region_slab", "points"),
                       ("series.mori_slab", "points"),
                       ("series.b_series", "terms"),
                       ("series.apply_operator", "terms_in"),
                       ("degeneracy.chart_pairings", "terms")):
        out[f"{span}.{size}"] = (stats[span]["size_sum"], "count")
    out["cli.report_bytes"] = (stats["cli.Report.to_json"]["size_sum"], "bytes")
    o_class = stats["series.o_class"]
    out["series.o_class.nonzero_ratio"] = (
        o_class["size_sum"] / o_class["calls"] if o_class["calls"] else 0.0,
        "ratio")
    monomials = counters["monomials"]
    out["toric.CohomologyRing.cache_hit_ratio"] = (
        1 - counters["reductions"] / monomials if monomials else 0.0, "ratio")
    largest_slab = max(stats["series.region_slab"]["size_max"],
                       stats["series.mori_slab"]["size_max"])
    out["series.slab_cap_headroom"] = (
        1 - largest_slab / caps["max_terms"], "ratio")
    out["triangulations.gb_basis_cap_headroom"] = (
        1 - stats["triangulations.buchberger"]["size_max"]
        / caps["gb_basis_cap"], "ratio")
    return out


def silent_wrappers(stats, workload):
    """Listed functions that recorded no call on a workload they are busiest on."""
    missing = [layers.span_name(m, n) for m, n, _, _, busiest in layers.TARGETS
               if workload in busiest
               and not stats[layers.span_name(m, n)]["calls"]]
    if workload in layers.CHECK_ALL:
        missing += [f"checks.{c}" for c in layers.CHECK_IDS
                    if not stats[f"checks.{c}"]["calls"]]
    return missing


# --- run metadata -------------------------------------------------------------------

def metadata(workload, seed):
    lines = 0
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += sum(1 for line in data.decode("utf-8").splitlines()
                             if line.strip())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": src_hash.hexdigest(),
            "src_nonblank_lines": lines}


# --- one workload -------------------------------------------------------------------

def _print_pass(label, results):
    for res in results:
        mark = "" if res.status == "ok" else f"  [{res.status}] {res.detail}"
        print(f"  {label} {res.job.id:<36} {res.seconds:8.3f} s "
              f"(wall {res.wall:.3f} s x {res.scale:.3f}) "
              f"{res.rss_kib / 1024:7.1f} MiB {res.size:8d} B{mark}")


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def run_untraced(load, work, seconds):
    setup_s = measure_setup(load, work)
    passes, times = [], []
    started = time.perf_counter()
    while True:
        pass_s, results, _ = run_pass(load, work)
        passes.append(results)
        times.append(pass_s)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and (
                elapsed * (len(passes) + 1) / len(passes) > seconds
                or elapsed > MAX_MEASURE_S):
            break
    for k, results in enumerate(passes):
        _print_pass(f"pass{k + 1}", results)
    failed, correct, problems = check_passes(passes)
    attempted = sum(len(r) for r in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(times), "s"),
        "slowest_job_s": (max(
            statistics.median(run.seconds for run in runs)
            for runs in zip(*passes)), "s"),
        "peak_rss_mib": (max(r.rss_kib for results in passes
                             for r in results) / 1024, "MiB"),
    }
    return passes, times, metrics, attempted, failed, correct, problems


def run_traced(load, work):
    plain_s, plain, _ = run_pass(load, work)
    traced_s, traced, span_files = run_pass(load, work, traced=True)
    _print_pass("plain ", plain)
    _print_pass("traced", traced)
    failed, correct, problems = check_passes([plain, traced])
    stats, counters, caps = aggregate_spans(span_files)
    return (plain_s, traced_s, plain, stats, counters, caps,
            failed, correct, problems)


def declared_metrics():
    """Names of the end-to-end and per-layer metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (result line, summary) or exits."""
    end_to_end, per_layer = declared_metrics()
    work = BENCH / "_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        load = workloads.build(name, seed, SRC, work)
        meta = metadata(name, seed)
        print(f"meta {json.dumps(meta, sort_keys=True)}")
        for doc in load.generated:
            print(f"input {json.dumps(doc, sort_keys=True)}")
        print(f"workload {name}: {len(load.jobs)} jobs per pass, seed {seed}")
        if trace:
            (plain_s, traced_s, results, stats, counters, caps,
             failed, correct, problems) = run_traced(load, work)
            attempted = 2 * len(load.jobs)
            silent = silent_wrappers(stats, name)
            everything = layer_metrics(stats, counters, caps)
            everything["trace_overhead_s"] = (traced_s - plain_s, "s")
            print(f"trace overhead: traced pass {traced_s:.3f} s - "
                  f"untraced pass {plain_s:.3f} s = "
                  f"{traced_s - plain_s:.3f} s")
            for metric, (value, unit) in everything.items():
                print(f"  layer {metric:<58} {value:>14.6g} {unit}")
            print("layers " + json.dumps(
                {k: v for k, (v, _) in everything.items()}, sort_keys=True))
            if silent:
                raise SystemExit("wrappers recorded no call on workload "
                                 f"{name}: {', '.join(silent)}")
            wanted = per_layer
            metrics = {k: v for k, v in everything.items() if k in wanted}
        else:
            (passes, times, metrics, attempted, failed, correct,
             problems) = run_untraced(load, work, seconds)
            results = passes[0]
            print(f"passes: {len(passes)}, "
                  f"times {', '.join(f'{t:.3f}' for t in times)} s")
            wanted = end_to_end
        missing = sorted(wanted - set(metrics))
        if missing:
            raise SystemExit(f"metrics not produced: {', '.join(missing)}")
        for res in results:
            if res.status != "ok":
                print(f"FAILED {res.job.id}: {res.detail}")
        for problem in problems:
            print(f"WRONG {problem}")
        print(f"digest {name} {workload_digest(results)}")
        summary = ({"trace_overhead_s": metrics["trace_overhead_s"]} if trace
                   else dict(metrics))
        summary["fail_share"] = (failed / attempted, "ratio")
        summary["job_runs"] = (attempted, "count")
        print("summary " + ", ".join(f"{k}={v:.6g} {u}"
                                     for k, (v, u) in summary.items()))
        return _result_line(correct, attempted, failed, metrics), summary
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gkzfrac" / "cli.py").is_file():
        print(f"no gkzfrac sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        line, _ = run_workload(args.workload, args.seed, args.seconds,
                               args.trace)
        print(line)
        return 0
    table = {}
    for name in workloads.NAMES:
        _, table[name] = run_workload(name, args.seed, args.seconds,
                                      args.trace)
    for name, row in table.items():
        print(f"{name:<10} " + "  ".join(f"{key} {value:.4g} {unit}"
                                         for key, (value, unit) in row.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
