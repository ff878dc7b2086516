"""Command line surface: JSON input schema, commands, reports.

Reports are deterministic for a fixed input: JSON payloads are dumped with
sorted keys and contain no timestamps (timing goes to standard error).
Exit codes: 0 success, 1 check failure, 2 usage or input errors.

Each command imports only the layers it runs (see ``run_command``), so a
cold ``gkzfrac validate`` loads the fan layer alone and only ``check-all``
loads every module.
"""

import argparse
import json
import sys as _sysmod
import time
from json.encoder import encode_basestring_ascii as _quote

from . import exact_linalg as xl
from . import toric
from .errors import (ConfigError, GkzfracError, ParseError, SchemaError,
                     SemanticError)

COMMANDS = ("validate", "system", "cohomology", "series", "bseries",
            "fans", "groebner", "degeneracy", "check-all")


class InputSpec:
    """A validated input document: the fan, its partition, an optional ample
    weight and the truncation order."""

    def __init__(self, name, rank, rays, max_cones, nef_partition,
                 ample_weight=None, order=8):
        self.name = name
        self.rank = rank
        self.rays = rays
        self.max_cones = max_cones
        self.nef_partition = nef_partition
        self.ample_weight = ample_weight
        self.order = order

    def fan(self):
        return toric.make_fan(self.rank, self.rays, self.max_cones,
                              self.nef_partition, name=self.name,
                              ample_weight=self.ample_weight)


def _is_int(value):
    """Whether a decoded JSON value is an integer (JSON booleans are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(data, key, kind, pointer):
    if key not in data:
        raise SchemaError(f"missing field at {pointer}/{key}")
    value = data[key]
    if kind == "int" and not _is_int(value):
        raise SchemaError(f"expected integer at {pointer}/{key}")
    if kind == "str" and not isinstance(value, str):
        raise SchemaError(f"expected string at {pointer}/{key}")
    if kind == "list" and not isinstance(value, list):
        raise SchemaError(f"expected array at {pointer}/{key}")
    return value


def _int_matrix(value, pointer, width=None):
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not all(_is_int(x) for x in row):
            raise SchemaError(f"expected integer array at {pointer}/{i}")
        if width is not None and len(row) != width:
            raise SchemaError(
                f"expected {width} entries at {pointer}/{i}, got {len(row)}")
        out.append(tuple(row))
    return out


def parse_input(path):
    """Validated InputSpec from a UTF-8 JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise SchemaError("top-level value must be an object")
    name = _expect(data, "name", "str", "")
    rank = _expect(data, "rank", "int", "")
    if rank < 1:
        raise SchemaError("expected positive integer at /rank")
    rays = _int_matrix(_expect(data, "rays", "list", ""), "/rays", width=rank)
    cones = _int_matrix(_expect(data, "max_cones", "list", ""), "/max_cones")
    partition = _int_matrix(_expect(data, "nef_partition", "list", ""),
                            "/nef_partition")
    p = len(rays)
    for ci, cone in enumerate(cones):
        for x in cone:
            if not 0 <= x < p:
                raise SemanticError(
                    f"/max_cones/{ci}: ray index {x} out of range 0..{p - 1}")
    for bi, block in enumerate(partition):
        for x in block:
            if not 0 <= x < p:
                raise SemanticError(
                    f"/nef_partition/{bi}: ray index {x} out of range")
    weight = None
    if "ample_weight" in data:
        weight = _expect(data, "ample_weight", "list", "")
        if not all(_is_int(x) for x in weight):
            raise SchemaError("expected integer array at /ample_weight")
        if len(weight) != p + len(partition):
            raise SchemaError(
                f"/ample_weight must have {p + len(partition)} entries")
    order = data.get("order", 8)
    if not _is_int(order) or order < 0:
        raise SchemaError("expected nonnegative integer at /order")
    spec = InputSpec(name=name, rank=rank, rays=rays, max_cones=cones,
                     nef_partition=partition, ample_weight=weight,
                     order=order)
    spec.fan()  # surfaces SemanticError for bad partitions early
    return spec


def fixture_path(name):
    """Filesystem path of a bundled corpus input."""
    from importlib import resources
    return str(resources.files("gkzfrac.fixtures").joinpath(f"{name}.json"))


# --- reports -----------------------------------------------------------------------

class Report:
    """One command's payload on one input, and whether a check failed."""

    def __init__(self, command, name, payload, failed=False):
        self.command = command
        self.name = name
        self.payload = payload
        self.failed = failed

    def to_json(self):
        """The bytes of ``json.dumps(body, sort_keys=True, indent=2)`` and a
        newline, written by ``_write_json``."""
        body = {"command": self.command, "input": self.name,
                "payload": self.payload}
        out = []
        _write_json(body, out, "\n")
        out.append("\n")
        return "".join(out)

    def to_markdown(self):
        lines = [f"# {self.command} on {self.name}", ""]
        lines.extend(_markdown_value(self.payload, 0))
        return "\n".join(lines) + "\n"


def _write_json(value, out, pad):
    """Append ``value`` to ``out`` as ``json.dumps(sort_keys=True,
    indent=2)`` writes it, ``pad`` being a newline and the current indent.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set;
    this writer makes one call per container and writes an all-integer
    list in one join.  It takes only dicts with str keys, lists, str, int,
    bool and None, and raises TypeError on anything else, a float included.
    """
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if all(type(x) is int for x in value):  # bools are not ints here
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}"
                       f"{pad}]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(
                    f"report keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{_quote(key)}: ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot write {kind.__name__} in a report")


def _markdown_value(value, depth):
    pad = "  " * depth
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}- **{key}**:")
                lines.extend(_markdown_value(inner, depth + 1))
            else:
                lines.append(f"{pad}- **{key}**: {inner}")
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_markdown_value(inner, depth + 1))
            else:
                lines.append(f"{pad}- {inner}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _binomial_string(sys, u, v):
    def mono(expo):
        parts = []
        for (i, j), e in zip(sys.j_indices(), expo):
            if e:
                head = f"y_{i + 1}_{j}"
                parts.append(head if e == 1 else f"{head}^{e}")
        return "*".join(parts) if parts else "1"

    return f"{mono(u)} - {mono(v)}"


def run_command(cmd, spec, flags=None):
    """Execute one command over a parsed input; returns a Report."""
    flags = dict(flags or {})
    if cmd == "validate":
        report = toric.validate_fan(spec.fan())
        return Report("validate", spec.name, {"checks": report.as_dict()})

    from .instance import Instance

    order = flags.get("order")
    inst = Instance(spec.fan(), spec.order if order is None else order,
                    flags.get("weight"))
    fan, sys, order, omega = inst.fan, inst.sys, inst.order, inst.omega

    if cmd == "system":
        payload = {
            "rank": fan.rank,
            "blocks": [list(b) for b in fan.blocks],
            "double_indices": [[i + 1, j] for (i, j) in sys.j_indices()],
            "a_matrix": [list(row) for row in sys.a],
            "a_ext_matrix": [list(row) for row in sys.a_ext],
            "beta": [xl.fraction_str(x) for x in sys.beta],
            "relation_basis": [list(b) for b in sys.basis],
            "canonical_alpha": [xl.fraction_str(x) for x in sys.alpha],
            "box_generators": [list(pc.ell_ext) for pc in sys.collections],
        }
        return Report("system", spec.name, payload)

    if cmd == "cohomology":
        from . import gkz
        ring = inst.ring
        sr = toric.stanley_reisner_ideal(sys.collections)
        payload = {
            "dimension": ring.dim,
            "basis": ring.basis_names(),
            "basis_degrees": list(ring.basis_degrees),
            "stanley_reisner": [[list(fan.double_index_of_ray(i)) for i in s]
                                for s in sr],
            "surjection_consistent":
                gkz.indicial_ring_surjection_check(sys, ring),
        }
        return Report("cohomology", spec.name, payload)

    if cmd == "series":
        from . import series as se
        oracle_ok = all(
            coeff == se.residue_oracle(sys, ell)
            for (ell, _), coeff in inst.period.terms.items())
        payload = {
            "weight": [xl.fraction_str(w) for w in omega],
            "order": order,
            "period": se.series_to_dict(inst.period),
            "gamma": se.series_to_dict(inst.gamma),
            "oracle_match": oracle_ok,
        }
        return Report("series", spec.name, payload, failed=not oracle_ok)

    if cmd == "bseries":
        from . import series as se
        ring = inst.ring
        # the report prints the pairings in slot logs, one per divisor class
        pairings = se.pair_with_dual(ring, inst.b, [
            ring.divisor_class(i, j) for (i, j) in sys.j_indices()])
        payload = {
            "weight": [xl.fraction_str(w) for w in omega],
            "order": order,
            "dual_basis": ring.basis_names(),
            "pairings": [se.series_to_dict(s)
                         for s in pairings.components()],
        }
        return Report("bseries", spec.name, payload)

    if cmd == "fans":
        from . import triangulations as tr
        pc, tmax = sys.points, sys.tmax
        cones = {"secondary_cone": tr.secondary_cone(sys, pc, tmax),
                 "kahler_cone": sys.kahler}
        payload = {
            "points": [list(p) for p in pc.points],
            "maximal_triangulation": [list(s) for s in tmax.simplices],
            "normalized_volume": tr.normalized_volume(pc, tmax),
            "max_cones": len(fan.max_cones),
            **{field: {"inequalities": [list(g) for g in c.inequalities],
                       "rays": [list(r) for r in c.rays]}
               for field, c in cones.items()},
            "weight_chamber_is_maximal": tr.induces_tmax(sys, omega),
            "nonvertex_clause_vacuous":
                tr.nonvertex_points(pc, tmax) == [],
        }
        if len(sys.basis) <= 2:
            payload["secondary_fan"] = [
                {"rays": [list(r) for r in c.rays],
                 "simplices": [list(s) for s in t.simplices]}
                for c, t in tr.secondary_fan(sys)]
            payload["groebner_fan"] = [
                {"rays": [list(r) for r in c.rays],
                 "leading_terms": sorted(list(lt) for lt in label)}
                for c, label in tr.groebner_fan(sys)]
        return Report("fans", spec.name, payload)

    if cmd == "groebner":
        from . import triangulations as tr
        ideal = tr.toric_groebner_basis(sys, omega)
        candidates = tr.primitive_collection_binomials(sys, omega)
        minimal = tr.minimal_gb_is_primitive_collections(sys, omega,
                                                         candidates)
        matches = sorted(ideal.generators) == sorted(candidates)
        payload = {
            "weight": [xl.fraction_str(w) for w in omega],
            "reduced_basis": [
                {"leading": list(u), "trailing": list(v),
                 "binomial": _binomial_string(sys, u, v)}
                for u, v in ideal.generators],
            "leading_terms_are_stanley_reisner": minimal,
            "equals_primitive_collection_binomials": matches,
        }
        return Report("groebner", spec.name, payload,
                      failed=not (minimal and matches))

    if cmd == "degeneracy":
        from . import degeneracy as dg
        reports = dg.maximal_degeneracy_check(sys, inst.ring,
                                              inst.chart_coordinates,
                                              inst.gamma, inst.pairings)
        chart_reports = [{
            "cone_rays": [list(r) for r in chart.cone_rays],
            "coordinate_relations": [list(v) for v in chart.basis_vectors],
            "coordinate_signs": list(chart.signs),
            "certificate": report.as_dict(),
        } for chart, report in zip(inst.charts, reports)]
        return Report("degeneracy", spec.name, {"charts": chart_reports},
                      failed=not all(r.passed for r in reports))

    if cmd == "check-all":
        from . import checks
        results = checks.run_all(inst)
        ok = all(r["ok"] for r in results)
        return Report("check-all", spec.name,
                      {"checks": results, "passed": ok}, failed=not ok)

    raise SchemaError(f"unknown command {cmd!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gkzfrac",
        description="Exact fractional GKZ systems of nef-partitioned smooth "
                    "toric fans: periods, cohomology-valued solutions and "
                    "structural checks.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="path to a fan description (JSON)")
    parser.add_argument("--order", type=int, default=None,
                        help="series truncation order (default: input file)")
    parser.add_argument("--weight", type=str, default=None,
                        help="comma-separated ample weight over the "
                             "extended point set")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--format", dest="fmt", choices=("json", "md"),
                        default="json")
    args = parser.parse_args(argv)

    try:
        spec = parse_input(args.input)
        if args.order is not None and args.order < 0:
            raise SchemaError(f"--order must be nonnegative, got {args.order}")
        flags = {"order": args.order}
        if args.weight is not None:
            try:
                weight = tuple(int(x) for x in args.weight.split(","))
            except ValueError as exc:
                raise SchemaError(f"bad --weight: {exc}") from exc
            expected = len(spec.rays) + len(spec.nef_partition)
            if len(weight) != expected:
                raise SchemaError(f"--weight must have {expected} entries, "
                                  f"got {len(weight)}")
            flags["weight"] = weight
        started = time.perf_counter()
        report = run_command(args.command, spec, flags)
        elapsed = time.perf_counter() - started
        print(f"gkzfrac: {args.command} on {spec.name} finished in "
              f"{elapsed:.3f}s", file=_sysmod.stderr)
    except (ParseError, SchemaError, SemanticError, ConfigError) as exc:
        print(f"gkzfrac: input error: {exc}", file=_sysmod.stderr)
        return 2
    except GkzfracError as exc:
        print(f"gkzfrac: {type(exc).__name__}: {exc}", file=_sysmod.stderr)
        print("hint: run the validate command for a structural report",
              file=_sysmod.stderr)
        return 1

    text = report.to_json() if args.fmt == "json" else report.to_markdown()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"gkzfrac: cannot write {args.out}: {exc.strerror or exc}",
                  file=_sysmod.stderr)
            return 2
    else:
        _sysmod.stdout.write(text)
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
