"""Rules on the package sources themselves."""

import ast
import os
import re

import gkzfrac

# Fraction(n, d, _normalize=False) exists up to Python 3.11 and
# Fraction._from_coprime_ints from 3.12; the package supports 3.10-3.13, and
# either skips the gcd that keeps a Fraction in lowest terms.
PRIVATE_FRACTION = re.compile(r"_normalize\s*=|_from_coprime_ints")

# A class already is integer numerators over one denominator (CohClass.nums
# and .den); scaling its Fraction view back to integers is a round trip.
SCALED_COORDS = re.compile(r"integer_scaled\([^)]*\.coords\b")


def package_sources():
    root = os.path.dirname(gkzfrac.__file__)
    for folder, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def matching_lines(pattern):
    """``file:line`` of each package source line the pattern matches."""
    hits = []
    for path in package_sources():
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                if pattern.search(line):
                    hits.append(f"{os.path.basename(path)}:{number}")
    return hits


def test_no_private_fraction_constructor():
    hits = matching_lines(PRIVATE_FRACTION)
    assert not hits, hits


def test_private_fraction_pattern_matches_both_forms():
    assert PRIVATE_FRACTION.search("Fraction(n, d, _normalize=False)")
    assert PRIVATE_FRACTION.search("Fraction._from_coprime_ints(n, d)")
    assert not PRIVATE_FRACTION.search("Fraction(n, d)")
    assert len(list(package_sources())) > 10


def test_no_class_coordinates_scaled_to_integers():
    hits = matching_lines(SCALED_COORDS)
    assert not hits, hits


def test_scaled_coords_pattern_matches_the_round_trip():
    assert SCALED_COORDS.search("x, den = xl.integer_scaled(cls.coords)")
    assert SCALED_COORDS.search("*xl.integer_scaled(base.coords)))")
    assert not SCALED_COORDS.search("xl.integer_scaled(sys.alpha)")
    assert not SCALED_COORDS.search("integer_scaled(row)[0]  # cls.coords")
    assert not SCALED_COORDS.search("v, den = cls.nums, cls.den")


def bound_names(target):
    """Names an assignment target binds; a subscript or attribute target
    binds none."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from bound_names(target.value)


def top_level_names(tree):
    """(name, line) of each class, function and assigned name at module
    level, in source order."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in bound_names(target):
                    yield name, node.lineno


def duplicate_definitions(source):
    seen, hits = {}, []
    for name, line in top_level_names(ast.parse(source)):
        if name in seen:
            hits.append(f"{name} at lines {seen[name]} and {line}")
        seen.setdefault(name, line)
    return hits


def test_no_top_level_name_defined_twice():
    # a second definition silently replaces the first
    hits = []
    for path in package_sources():
        with open(path, encoding="utf-8") as f:
            hits += [f"{os.path.basename(path)}: {hit}"
                     for hit in duplicate_definitions(f.read())]
    assert not hits, hits


def test_duplicate_scan_sees_classes_functions_and_constants():
    assert duplicate_definitions(
        "class A:\n    pass\n\n\nclass A(B):\n    pass\n") == \
        ["A at lines 1 and 5"]
    assert duplicate_definitions("def f():\n    pass\nf = 1\n") == \
        ["f at lines 1 and 3"]
    assert duplicate_definitions("X, Y = 1, 2\nY: int = 3\n") == \
        ["Y at lines 1 and 2"]
    assert duplicate_definitions(
        "class A:\n    x = 1\n    x = 2\n") == []
    assert duplicate_definitions("D = {}\nD['k'] = 1\nD.k = 2\n") == []


# Called by name from outside the package: CI's installed-package smoke step
# prints ``fixture_path`` of each bundled fixture.
ENTRY_POINTS = {("cli", "fixture_path")}


def read_names(tree):
    """Every name a module reads, bare or as an attribute, except a
    top-level function's reads of its own name (recursion is no caller)."""
    names = set()
    for node in tree.body:
        own = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name != own:
                names.add(name)
    return names


def uncalled_functions(sources, homes, entry_points):
    """``module.name`` of each top-level function in ``sources`` (module
    name -> source text) that no module reads, that ``homes`` does not
    export and that is not an entry point; dunder names are module
    protocol."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name not in read and node.name not in homes
            and (module, node.name) not in entry_points
            and not node.name.startswith("__")]


def test_every_top_level_function_has_a_caller():
    sources = {}
    for path in package_sources():
        with open(path, encoding="utf-8") as f:
            sources[os.path.basename(path)[:-3]] = f.read()
    assert not uncalled_functions(sources, gkzfrac._HOMES, ENTRY_POINTS)


def test_caller_scan_sees_calls_exports_and_entry_points():
    sources = {
        "a": "def used():\n    pass\n\n\ndef dead(n):\n    return dead(n)\n"
             "\n\ndef exported():\n    pass\n\n\ndef entry():\n    pass\n"
             "\n\ndef __getattr__(name):\n    pass\n\n\nclass K:\n"
             "    def method(self):\n        pass\n",
        "b": "from . import a\n\nVALUE = a.used()\n",
    }
    assert uncalled_functions(sources, {"exported": "a"}, {("a", "entry")}) \
        == ["a.dead"]
    assert uncalled_functions(sources, {}, set()) == \
        ["a.dead", "a.exported", "a.entry"]
    sources["b"] += "\n\ndef g():\n    return dead\n"
    assert uncalled_functions(sources, {}, set()) == \
        ["a.exported", "a.entry", "b.g"]


def readers_of(sources, name):
    """``module.definition`` of each top-level statement in ``sources``
    (module name -> source text) that reads ``name``, bare or as an
    attribute; a statement that is no definition is ``module.<module>``."""
    readers = set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if name in read_names(ast.Module(body=[node], type_ignores=[])):
                readers.add(f"{module}.{getattr(node, 'name', '<module>')}")
    return readers


def test_no_fourier_motzkin_and_fm_feasible_is_read_only_by_the_cone():
    # a cone's interior is read off the rays the constructor already has;
    # plain Fourier-Motzkin stays in the tests as the reference
    sources = {}
    for path in package_sources():
        with open(path, encoding="utf-8") as f:
            sources[os.path.basename(path)[:-3]] = f.read()
    defined = {node.name for text in sources.values()
               for node in ast.walk(ast.parse(text))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not {"fm_eliminate", "_fm_normalize"} & defined
    assert readers_of(sources, "fm_feasible") == {"toric.ConeDescription"}


def test_relation_lattice_cones_come_from_one_constructor():
    # the Kahler, secondary and Groebner cones keep only their facets and
    # rays, so equal cones compare equal; the other readers of the engine
    # build hulls, polytope vertices and regular subdivisions
    sources = {}
    for path in package_sources():
        with open(path, encoding="utf-8") as f:
            sources[os.path.basename(path)[:-3]] = f.read()
    assert readers_of(sources, "ConeDescription") == {
        "toric.kahler_cone", "triangulations.secondary_cone",
        "triangulations.groebner_fan"}
    assert readers_of(sources, "extreme_rays") == {
        "toric.ConeDescription", "exact_linalg.hull_facets",
        "exact_linalg.lattice_points", "polytopes.section_polytope",
        "triangulations.regular_subdivision"}


def test_reader_scan_sees_nested_attribute_and_module_reads():
    sources = {
        "a": "def fm_eliminate(rows):\n    return fm_eliminate(rows)\n\n\n"
             "def fm_feasible(rows):\n    return fm_eliminate(rows)\n",
        "b": "from . import a\n\n\ndef f():\n    def g():\n"
             "        return a.fm_eliminate\n    return g\n",
        "c": "from .a import fm_eliminate\n\nX = fm_eliminate\n",
    }
    assert readers_of(sources, "fm_eliminate") == \
        {"a.fm_feasible", "b.f", "c.<module>"}
