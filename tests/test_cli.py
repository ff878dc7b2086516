import functools
import json
import os
import subprocess
import sys as _sysmod
from fractions import Fraction

import pytest

from test_degeneracy import SURFACE0_6
from test_exact_linalg import cyclic_surface
from test_threefold import threefold
from gkzfrac import cli
from gkzfrac.errors import ParseError, SchemaError, SemanticError


def run_cli(args, env_extra=None, flags=()):
    """The command line in a fresh interpreter, under ``flags`` such as
    ``-O``."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [_sysmod.executable, *flags, "-m", "gkzfrac.cli", *args],
        capture_output=True, text=True, env=env)


# --- parse_input -------------------------------------------------------------------

def test_parse_bundled_p1():
    spec = cli.parse_input(cli.fixture_path("p1"))
    assert spec.name == "p1"
    assert spec.rank == 1
    assert spec.fan().rays == ((1,), (-1,))


def test_parse_overlapping_partition(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "rank": 1, "rays": [[1], [-1]],
        "max_cones": [[0], [1]], "nef_partition": [[0, 1], [1]]}))
    with pytest.raises(SemanticError) as err:
        cli.parse_input(str(path))
    assert "1" in str(err.value)


def test_parse_truncated_file(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"name": "x", "rank": 1, ')
    with pytest.raises(ParseError) as err:
        cli.parse_input(str(path))
    assert "byte offset" in str(err.value)


def test_parse_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"name": "x", "rank": 1}))
    with pytest.raises(SchemaError) as err:
        cli.parse_input(str(path))
    assert "/rays" in str(err.value)


def test_parse_bad_ray_width(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "name": "x", "rank": 2, "rays": [[1, 0], [0]],
        "max_cones": [[0, 1]], "nef_partition": [[0, 1]]}))
    with pytest.raises(SchemaError) as err:
        cli.parse_input(str(path))
    assert "/rays/1" in str(err.value)


def test_parse_cone_index_out_of_range(tmp_path):
    path = tmp_path / "oob.json"
    path.write_text(json.dumps({
        "name": "x", "rank": 1, "rays": [[1], [-1]],
        "max_cones": [[0], [7]], "nef_partition": [[0, 1]]}))
    with pytest.raises(SemanticError) as err:
        cli.parse_input(str(path))
    assert "7" in str(err.value)


P1_DOCUMENT = {"name": "x", "rank": 1, "rays": [[1], [-1]],
               "max_cones": [[0], [1]], "nef_partition": [[0, 1]]}


@pytest.mark.parametrize("field,value,pointer", [
    ("rank", True, "/rank"),
    ("rays", [[True], [-1]], "/rays/0"),
    ("max_cones", [[False], [1]], "/max_cones/0"),
    ("nef_partition", [[0, True]], "/nef_partition/0"),
    ("ample_weight", [0, True, 1], "/ample_weight"),
    ("order", True, "/order"),
])
def test_parse_rejects_json_booleans(field, value, pointer, tmp_path):
    # bool is an int subclass in Python; JSON true and false are not integers
    path = tmp_path / "bools.json"
    path.write_text(json.dumps({**P1_DOCUMENT, field: value}))
    with pytest.raises(SchemaError) as err:
        cli.parse_input(str(path))
    assert str(err.value).endswith(f" at {pointer}")


@pytest.mark.parametrize("rank", [0, -1])
def test_parse_rejects_rank_below_one(rank, tmp_path):
    path = tmp_path / "rank.json"
    path.write_text(json.dumps({"name": "r", "rank": rank, "rays": [],
                                "max_cones": [], "nef_partition": []}))
    with pytest.raises(SchemaError) as err:
        cli.parse_input(str(path))
    assert str(err.value) == "expected positive integer at /rank"


# --- commands in process -----------------------------------------------------------

def test_series_report_contains_expected_value():
    spec = cli.parse_input(cli.fixture_path("p1"))
    report = cli.run_command("series", spec, {"order": 8})
    blob = report.to_json()
    assert "105/64" in blob
    assert json.loads(blob)["payload"]["oracle_match"] is True


def test_validate_report():
    spec = cli.parse_input(cli.fixture_path("p2"))
    report = cli.run_command("validate", spec)
    assert "completeness" in report.payload["checks"]


def test_groebner_report():
    spec = cli.parse_input(cli.fixture_path("p1xp1"))
    report = cli.run_command("groebner", spec)
    assert report.payload["leading_terms_are_stanley_reisner"] is True
    assert report.payload["equals_primitive_collection_binomials"] is True


def test_degeneracy_report():
    spec = cli.parse_input(cli.fixture_path("p2"))
    report = cli.run_command("degeneracy", spec, {"order": 6})
    chart = report.payload["charts"][0]
    assert chart["coordinate_signs"] == [-1]
    assert chart["certificate"]["passed"] is True


def test_markdown_rendering():
    spec = cli.parse_input(cli.fixture_path("p1"))
    report = cli.run_command("system", spec)
    md = report.to_markdown()
    assert md.startswith("# system on p1")
    assert "a_ext_matrix" in md


# --- report writer ------------------------------------------------------------------

FIXTURES = sorted(f[:-5] for f in os.listdir(os.path.dirname(
    cli.fixture_path("p1"))) if f.endswith(".json"))


def dumps_reference(body):
    """The bytes ``Report.to_json`` must write: ``json.dumps`` with the
    indent that sends it down its pure-Python encoder."""
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def written(body):
    out = []
    cli._write_json(body, out, "\n")
    return "".join(out) + "\n"


def assert_same_bytes(report):
    body = {"command": report.command, "input": report.name,
            "payload": report.payload}
    assert report.to_json() == dumps_reference(body), report.command


@pytest.mark.parametrize("order", [None, 12], ids=["own", "order12"])
@pytest.mark.parametrize("name", FIXTURES)
def test_reports_are_the_bytes_of_json_dumps(name, order):
    spec = cli.parse_input(cli.fixture_path(name))
    for cmd in cli.COMMANDS:
        assert_same_bytes(cli.run_command(cmd, spec, {"order": order}))


@pytest.mark.parametrize("fan", [
    lambda: threefold([[0, 1, 2, 3, 4, 5]], "p1p1p1_r1"),
    lambda: threefold([[0, 1], [2, 3], [4, 5]], "p1p1p1_r3"),
    lambda: cyclic_surface(SURFACE0_6, "surface0_6rays_r1"),
], ids=["p1p1p1_r1", "p1p1p1_r3", "surface0_6rays_r1"])
def test_check_all_reports_are_the_bytes_of_json_dumps(fan):
    fan = fan()
    spec = cli.InputSpec(fan.name, fan.rank, fan.rays, fan.max_cones,
                         fan.blocks, order=4)
    report = cli.run_command("check-all", spec)
    assert not report.failed
    assert_same_bytes(report)


@pytest.mark.parametrize("body", [
    {}, [], {"a": {}, "b": [], "c": [{}, []], "d": [[[]]]},
    [1, True, 0], [True, False], [0, None, -1], None, True, 0, "",
    {"quote": 'say "hi"', "slash": "a\\b/c", "control": "\x00\x1f\t\n\r",
     "accent": "\u00e9", "separator": "\u2028", "astral": "\U0001d11e"},
    {"\u00e9\"\\": 1, "\u2028": [2]},
    [-(10 ** 40), 10 ** 40, {"n": -12345678901234567890}],
    {"b": 1, "a": 2, "B": [3, "x"], "": None},
])
def test_writer_matches_json_dumps_on_synthetic_bodies(body):
    assert written(body) == dumps_reference(body)


@pytest.mark.parametrize("body,kind", [
    ([1, 0.5], "float"),
    ({"x": Fraction(1, 2)}, "Fraction"),
    ({"x": (1, 2)}, "tuple"),
    ({1: "x"}, "int"),
])
def test_writer_rejects_what_a_report_never_holds(body, kind):
    with pytest.raises(TypeError, match=kind):
        written(body)
    with pytest.raises(TypeError, match=kind):
        cli.Report("system", "x", body).to_json()


# --- subprocess behaviour -------------------------------------------------------------

def test_cli_series_stdout():
    result = run_cli(["series", cli.fixture_path("p1"), "--order", "8"])
    assert result.returncode == 0
    assert "105/64" in result.stdout
    assert "finished" in result.stderr


def test_cli_check_all_p2():
    result = run_cli(["check-all", cli.fixture_path("p2"), "--order", "6"])
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)["payload"]
    assert payload["passed"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_cli_order_zero_is_honoured():
    result = run_cli(["series", cli.fixture_path("p2"), "--order", "0"])
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)["payload"]
    assert payload["order"] == 0
    assert len(payload["period"]["terms"]) == 1


def test_cli_negative_order_exit_2():
    result = run_cli(["series", cli.fixture_path("p2"), "--order", "-3"])
    assert result.returncode == 2
    assert result.stderr.startswith("gkzfrac: input error: ")
    assert "--order" in result.stderr
    assert not result.stdout


def test_cli_unknown_command_exit_2():
    result = run_cli(["frobnicate", cli.fixture_path("p1")])
    assert result.returncode == 2


def test_cli_parse_error_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    result = run_cli(["validate", str(path)])
    assert result.returncode == 2
    assert "input error" in result.stderr


def test_cli_determinism():
    args = ["series", cli.fixture_path("p1xp1"), "--order", "6"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_cli_term_cap(tmp_path):
    result = run_cli(["series", cli.fixture_path("p1"), "--order", "8"],
                     env_extra={"GKZFRAC_MAX_TERMS": "2"})
    assert result.returncode == 1
    assert "TruncationTooLarge" in result.stderr


def test_cli_bad_term_cap_is_usage_error():
    result = run_cli(["series", cli.fixture_path("p1"), "--order", "8"],
                     env_extra={"GKZFRAC_MAX_TERMS": "abc"})
    assert result.returncode == 2
    assert result.stderr == ("gkzfrac: input error: GKZFRAC_MAX_TERMS must be "
                             "a positive integer, got 'abc'\n")
    assert not result.stdout


def test_cli_out_file(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(["fans", cli.fixture_path("f1"), "--out", str(out)])
    assert result.returncode == 0
    data = json.loads(out.read_text())
    assert data["payload"]["normalized_volume"] == 4


def test_cli_unwritable_out_is_usage_error(tmp_path):
    out = tmp_path / "missing" / "report.json"
    result = run_cli(["validate", cli.fixture_path("p2"), "--out", str(out)])
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1] == (
        f"gkzfrac: cannot write {out}: No such file or directory")
    assert "Traceback" not in result.stderr
    assert not result.stdout
    assert not out.parent.exists()


def test_cli_weight_flag():
    result = run_cli(["series", cli.fixture_path("p1"),
                      "--weight", "0,1,1", "--order", "4"])
    assert result.returncode == 0


def test_cli_non_ample_weight_rejected():
    result = run_cli(["series", cli.fixture_path("p1"),
                      "--weight", "0,0,0"])
    assert result.returncode == 1
    assert "WeightNotAmple" in result.stderr


def test_cli_weight_wrong_length_is_usage_error():
    result = run_cli(["system", cli.fixture_path("p2"), "--weight", "1,1"])
    assert result.returncode == 2
    assert ("gkzfrac: input error: --weight must have 4 entries, got 2"
            in result.stderr)


def test_cli_empty_weight_is_usage_error():
    result = run_cli(["system", cli.fixture_path("p2"), "--weight="])
    assert result.returncode == 2
    assert "gkzfrac: input error: bad --weight" in result.stderr


def test_cli_markdown_format():
    result = run_cli(["cohomology", cli.fixture_path("p2"),
                      "--format", "md"])
    assert result.returncode == 0
    assert result.stdout.startswith("# cohomology on p2")


def test_cli_invalid_fan_exit_1(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({
        "name": "singular", "rank": 2,
        "rays": [[1, 0], [1, 2], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
        "nef_partition": [[0, 1, 2]]}))
    result = run_cli(["validate", str(path)])
    assert result.returncode == 1
    assert "NotSmooth" in result.stderr


@pytest.mark.parametrize("cmd", ["validate", "check-all"])
def test_cli_rank_0_exits_2_at_once(cmd, tmp_path):
    # rank 0 leaves completeness sampling no nonzero direction to draw; the
    # timeout turns a hang into a failure
    path = tmp_path / "r0.json"
    path.write_text(json.dumps({"name": "r0", "rank": 0, "rays": [],
                                "max_cones": [], "nef_partition": []}))
    result = subprocess.run(
        [_sysmod.executable, "-m", "gkzfrac.cli", cmd, str(path)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert "expected positive integer at /rank" in result.stderr


@pytest.mark.parametrize("extra", [[1, 1], [1, 0]], ids=["inside", "copy"])
@pytest.mark.parametrize("cmd", ["validate", "system"])
def test_cli_ray_in_no_maximal_cone_exit_2(cmd, extra, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({
        "name": "p2_extra", "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1], extra],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
        "nef_partition": [[0, 1, 2, 3]]}))
    result = run_cli([cmd, str(path)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"ray 3 = {tuple(extra)} lies in no maximal cone" in result.stderr


# f1's fan with partitions whose block sums are not nef: a collection's
# auxiliary coefficient is negative (collections named in the canonical,
# block-by-block ray order); validate checks the fan only
NON_NEF_F1 = [([[1], [0, 2, 3]], [1, 2]), ([[0, 2], [1, 3]], [0, 1])]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "O"])
@pytest.mark.parametrize("partition,collection", NON_NEF_F1)
@pytest.mark.parametrize("cmd", ["system", "check-all"])
def test_cli_non_nef_partition_exit_2(cmd, partition, collection, flags,
                                      tmp_path):
    # a typed error, not an assertion, so python -O rejects it alike
    path = tmp_path / "f1_non_nef.json"
    path.write_text(json.dumps({
        "name": "f1_non_nef", "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "nef_partition": partition}))
    assert run_cli(["validate", str(path)], flags=flags).returncode == 0
    result = run_cli([cmd, str(path), "--order", "4"], flags=flags)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "gkzfrac: input error: auxiliary coefficient negative for "
        f"collection {collection}; the block sums of the given partition "
        "are not all nef\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "O"])
@pytest.mark.parametrize("cmd", ["validate", "check-all"])
def test_cli_empty_nef_block_exit_2(cmd, flags, tmp_path):
    # the blocks of a nef-partition are nonempty (Batyrev-Borisov 1996)
    path = tmp_path / "p2_empty_block.json"
    path.write_text(json.dumps({
        "name": "p2_empty_block", "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
        "nef_partition": [[0, 1, 2], []]}))
    result = run_cli([cmd, str(path)], flags=flags)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "gkzfrac: input error: nef partition block 1 is empty\n")


# --- what each command loads ------------------------------------------------------------

# Run one command as the console script would, then print every module the
# interpreter holds.
MODULES_AFTER = (
    "import sys\n"
    "from gkzfrac.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(sys.modules))\n"
    "sys.exit(code)\n")

_VALIDATE = {"cli", "errors", "exact_linalg", "toric"}
_INSTANCE = _VALIDATE | {"gkz", "instance"}
COMMAND_MODULES = {
    "validate": _VALIDATE,
    "system": _INSTANCE,
    "cohomology": _INSTANCE,
    "series": _INSTANCE | {"series"},
    "bseries": _INSTANCE | {"series"},
    "fans": _INSTANCE | {"triangulations"},
    "groebner": _INSTANCE | {"triangulations"},
    "degeneracy": _INSTANCE | {"series", "degeneracy"},
    "check-all": _INSTANCE | {"series", "triangulations", "degeneracy",
                              "polytopes", "checks"},
}

# Standard modules that build code at run time (``dataclasses`` and what it
# imports to do so); a cold job that loads them pays for it on every run.
CODE_BUILDERS = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def all_modules(code, *args):
    result = subprocess.run([_sysmod.executable, "-c", code, *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def loaded_modules(code, *args):
    return {m.removeprefix("gkzfrac.") for m in all_modules(code, *args)
            if m.startswith("gkzfrac.")}


@functools.lru_cache(maxsize=None)
def modules_after_command(cmd):
    return all_modules(MODULES_AFTER, cmd, cli.fixture_path("p2"),
                       "--out", os.devnull)


@pytest.mark.parametrize("cmd", cli.COMMANDS)
def test_command_loads_only_its_layers(cmd):
    # a module a command does not run costs every cold job its compile time
    loaded = {m.removeprefix("gkzfrac.") for m in modules_after_command(cmd)
              if m.startswith("gkzfrac.")}
    assert loaded == COMMAND_MODULES[cmd]


@pytest.mark.parametrize("cmd", cli.COMMANDS)
def test_command_imports_no_code_builder(cmd):
    bare = all_modules("import sys\nprint(*sys.modules)\n")
    added = modules_after_command(cmd) - bare
    assert "gkzfrac.cli" in added
    assert not added & CODE_BUILDERS, sorted(added & CODE_BUILDERS)


def test_module_map_covers_every_command_and_module():
    package = os.path.dirname(cli.__file__)
    sources = {f[:-3] for f in os.listdir(package)
               if f.endswith(".py") and f != "__init__.py"}
    assert set(COMMAND_MODULES) == set(cli.COMMANDS)
    assert COMMAND_MODULES["check-all"] == sources


def test_lazy_package_namespace():
    import gkzfrac
    assert loaded_modules("import sys, gkzfrac\n"
                          "print(*[m for m in sys.modules"
                          " if m.startswith('gkzfrac.')])") == set()
    for name in gkzfrac.__all__:
        assert getattr(gkzfrac, name) is not None, name
    assert gkzfrac.build_system.__module__ == "gkzfrac.gkz"
    with pytest.raises(AttributeError):
        gkzfrac.no_such_name
