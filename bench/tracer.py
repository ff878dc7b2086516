"""Traced launcher: one ``gkzfrac`` job with spans around every layer.

Usage::

    python3 bench/tracer.py SPANS_FILE JOB_ID -- <gkzfrac arguments>

The package is imported (from ``PYTHONPATH``) and left unedited: each
function listed in ``layers.TARGETS`` and each entry of
``checks.CHECKS`` is replaced by a wrapper in every namespace that holds it
(module globals, names bound by ``from .x import y``, the check registry and
class dictionaries).  Then ``gkzfrac.cli.main(argv)`` runs exactly as the
console script would.  Spans are kept in memory and written to SPANS_FILE
as one JSON document when the job ends, together with the cap values the
headroom metrics need.
"""

import functools
import json
import sys
from time import perf_counter

import layers

# One record per call: [name, start, end, parent index, size or None].
_spans = []
_stack = []
# class_from_poly bookkeeping for the ring cache-hit ratio.
_counters = {"monomials": 0, "reductions": 0}
_in_class_from_poly = [0]


SIZES = {
    "len": lambda args, result: len(result),
    "terms": lambda args, result: (
        sum(len(s.terms) for s in result) if isinstance(result, list)
        else len(result.terms)),
    "terms_in": lambda args, result: len(args[1].terms),
    "nonzero": lambda args, result: 0 if result.is_zero() else 1,
    "bytes": lambda args, result: len(result.encode("utf-8")),
}


def _wrap(name, fn, size=None):
    measure = SIZES[size] if size else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = [name, 0.0, 0.0, _stack[-1] if _stack else -1, None]
        _stack.append(len(_spans))
        _spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            _stack.pop()
        if measure is not None:
            rec[4] = measure(args, result)
        return result

    return wrapper


def _rebind(package_modules, original, replacement):
    """Point every module-level name bound to ``original`` at the wrapper."""
    for module in package_modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install():
    """Wrap every target; returns the imported package modules by name."""
    import importlib

    from gkzfrac import checks, toric

    names = sorted({m for m, *_ in layers.TARGETS} | {"checks"})
    mods = {m: importlib.import_module(f"gkzfrac.{m}") for m in names}
    package = [mod for key, mod in sys.modules.items()
               if key == "gkzfrac" or key.startswith("gkzfrac.")]

    for module, name, _flags, size, _busiest in layers.TARGETS:
        span = layers.span_name(module, name)
        if "." not in name:
            original = getattr(mods[module], name)
            _rebind(package, original, _wrap(span, original, size))
            continue
        cls_name, attr = name.split(".")
        cls = getattr(mods[module], cls_name)
        attr = "__init__" if attr == "build" else attr
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(span, raw.__func__, size)))
        else:
            setattr(cls, attr, _wrap(span, raw, size))

    for i, (check_id, fn) in enumerate(checks.CHECKS):
        checks.CHECKS[i] = (check_id, _wrap(f"checks.{check_id}", fn))

    # Counters, not spans: monomials handed to class_from_poly and how many
    # of them went through reduce_monomial.
    ring_cls = toric.CohomologyRing
    class_from_poly = ring_cls.class_from_poly
    reduce_monomial = ring_cls.reduce_monomial

    @functools.wraps(class_from_poly)
    def counted_class_from_poly(self, poly):
        _counters["monomials"] += sum(1 for c in poly.values() if c != 0)
        _in_class_from_poly[0] += 1
        try:
            return class_from_poly(self, poly)
        finally:
            _in_class_from_poly[0] -= 1

    @functools.wraps(reduce_monomial)
    def counted_reduce_monomial(self, expo):
        if _in_class_from_poly[0]:
            _counters["reductions"] += 1
        return reduce_monomial(self, expo)

    ring_cls.class_from_poly = counted_class_from_poly
    ring_cls.reduce_monomial = counted_reduce_monomial
    return mods


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_FILE JOB_ID -- <gkzfrac arguments>",
              file=sys.stderr)
        return 2
    spans_file, job_id, cli_argv = argv[0], argv[1], argv[3:]
    mods = install()
    try:
        return mods["cli"].main(cli_argv)
    finally:
        doc = {
            "job": job_id,
            "max_terms": mods["series"].max_terms(),
            "gb_basis_cap": mods["triangulations"].GB_BASIS_CAP,
            "counters": _counters,
            "spans": _spans,
        }
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
