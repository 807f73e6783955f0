"""Every top-level import of a library module is used in that module,
every module-level function and class is named somewhere else, and by
something other than the tests, and every member of a library class is
read as an attribute somewhere, and outside the tests but for a short list.
No library code raises or passes a bare ValueError: each refusal is a
ValidationError, which a caller catching TropLimError or ValueError catches.
Each type alias, such as ``IVec``, is assigned in one library module only.

No linter ships with the project, so these stdlib ``ast`` scans stand in for
one.  ``__init__.py`` is exempt from the import scan, since its imports are
the public re-exports, and it is no reader for the definition scan: a name
that only ``__init__`` exports is read by no program.
"""

import ast
import dataclasses
import inspect
from functools import cache
from pathlib import Path

import pytest

import troplim
from troplim import _linalg as la
from troplim import complexes, galaxy, lattice, sampling, towers, tropical
from troplim.errors import TropLimError, ValidationError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "troplim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))
PROGRAM = sorted(p for d in ("src", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py")
                 if p != SRC / "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_the_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Sequence\n"
              "def f(v: Sequence) -> float:\n    return math.pi\n")
    assert unused_imports(source) == ["line 3: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


GENERICS = {"tuple", "list", "dict", "set", "frozenset", "type", "Union",
            "Optional", "Callable", "Mapping", "Sequence", "Iterable"}


def type_aliases(source: str) -> list[str]:
    """Names a module binds at top level to a type alias: a subscripted
    generic, such as ``IVec = tuple[int, ...]``, or a ``TypeAlias``."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.annotation, ast.Name) and \
                node.annotation.id == "TypeAlias":
            out.append(node.target.id)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Subscript) and \
                isinstance(node.value.value, ast.Name) and \
                node.value.value.id in GENERICS:
            out.append(node.targets[0].id)
    return out


def test_the_scan_finds_type_aliases():
    source = ("from typing import TypeAlias, Union\n"
              "IVec = tuple[int, ...]\nCoeff = Union[int, float]\n"
              "FIRST = ROWS[0]\nLIMIT = 4\nQ: TypeAlias = 'tuple[int, ...]'\n"
              "n: int = 3\n")
    assert type_aliases(source) == ["IVec", "Coeff", "Q"]


def test_each_type_alias_is_assigned_in_one_module():
    """A module that needs another's alias imports it, so the alias
    cannot drift between modules."""
    homes: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for name in type_aliases(path.read_text(encoding="utf-8")):
            homes.setdefault(name, []).append(path.name)
    assert {name: where for name, where in homes.items()
            if len(where) > 1} == {}


def names_read(tree: ast.AST) -> set[str]:
    """Names, attribute names and imported names anywhere under a node."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def dead_definitions(source: str, elsewhere: set[str]) -> list[str]:
    """Module-level functions and classes named neither in ``elsewhere``
    nor in the module outside their own definition."""
    body = ast.parse(source).body
    dead = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                node.name not in elsewhere and \
                not any(node.name in names_read(other)
                        for other in body if other is not node):
            dead.append(node.name)
    return dead


@cache
def read_in(path: Path) -> frozenset[str]:
    return frozenset(names_read(ast.parse(path.read_text(encoding="utf-8"))))


def test_the_scan_flags_a_dead_definition():
    source = ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Unused:\n    x = used()\n")
    assert dead_definitions(source, set()) == ["recursive", "Unused"]
    assert dead_definitions(source, {"Unused"}) == ["recursive"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_named_elsewhere(path):
    elsewhere = set().union(*(read_in(p) for p in READERS if p != path))
    assert dead_definitions(path.read_text(encoding="utf-8"),
                            elsewhere) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_named_outside_the_tests(path):
    """Test-only code lives in the tests, and an exported name needs a
    program reader besides ``__init__``."""
    elsewhere = set().union(*(read_in(p) for p in PROGRAM if p != path))
    assert dead_definitions(path.read_text(encoding="utf-8"),
                            elsewhere) == []


def attributes_read(tree: ast.AST) -> set[tuple[str | None, str]]:
    """Every ``x.name`` read anywhere under a node, as (owner, name).  The
    owner is the class of x where it is evident: the first parameter of a
    method, in its class, or a parameter annotated with a bare name; None
    otherwise."""
    methods = {fn: cls.name for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not any(
                   isinstance(d, ast.Name) and d.id == "staticmethod"
                   for d in fn.decorator_list)}
    typed = {}
    # ast.walk meets a function before the functions inside it, so an inner
    # parameter that shadows an outer one overrides it
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        classes = {a.arg: a.annotation.id
                   if isinstance(a.annotation, ast.Name) else None
                   for a in params}
        if fn in methods and params:
            classes[params[0].arg] = methods[fn]
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in classes:
                typed[node] = classes[node.value.id]
    return {(typed.get(node), node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def members(cls: ast.ClassDef) -> list[str]:
    """The methods, properties and annotated fields of a class body, then
    the fields its ``__init__`` sets on its first parameter, each once."""
    names = []
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            names.append(item.name)
        elif isinstance(item, ast.AnnAssign) and \
                isinstance(item.target, ast.Name):
            names.append(item.target.id)
    for init in cls.body:
        if isinstance(init, ast.FunctionDef) and init.name == "__init__" \
                and init.args.args:
            this = init.args.args[0].arg
            names += [node.attr for node in ast.walk(init)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == this]
    return list(dict.fromkeys(names))


def unread_members(source: str,
                   read: set[tuple[str | None, str]]) -> list[str]:
    """Members of the module's classes read neither through a receiver of
    their own class nor through one of no evident class; dunder methods
    are exempt."""
    return [f"{cls.name}.{name}" for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) for name in members(cls)
            if not (name.startswith("__") and name.endswith("__"))
            and (None, name) not in read and (cls.name, name) not in read]


@cache
def attributes_read_in(path: Path) -> frozenset[str]:
    return frozenset(attributes_read(
        ast.parse(path.read_text(encoding="utf-8"))))


def test_the_scan_flags_an_unread_member():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\nclass P:\n    x: int\n    knob: str = 'a'\n"
              "    def __post_init__(self):\n        pass\n"
              "    @property\n    def doubled(self):\n        return 2 * self.x\n"
              "    def spare(self):\n        return self.doubled\n"
              "def f(p):\n    p.knob = 'b'\n    return P(x=1, knob='c')\n")
    read = attributes_read(ast.parse(source))
    assert read == {("P", "x"), ("P", "doubled")}
    assert unread_members(source, read) == ["P.knob", "P.spare"]
    # fields set in __init__, however assigned, are members too
    source = ("class Q:\n    def __init__(self, a):\n        self.a = a\n"
              "        self.pair, self.spare = a, 2\n"
              "        self.count: int = 0\n        self.count += 1\n"
              "        other = Q\n        other.unbound = 3\n"
              "    def read(self):\n        return self.a + self.count\n"
              "def f(q):\n    return q.pair, q.read()\n")
    read = attributes_read(ast.parse(source))
    assert unread_members(source, read) == ["Q.spare"]


def test_the_scan_matches_a_read_to_its_evident_class():
    """A and B share the member ``size``: ``self.size`` in A and ``b.size``
    with b annotated B read only their own class's, and a receiver of no
    evident class reads every member of that name."""
    classes = ("class A:\n    def size(self):\n        return 1\n"
               "    def twice(self):\n        return 2 * self.size()\n"
               "class B:\n    def size(self):\n        return 2\n")
    typed = ("def f(a: A, b: B):\n    return a.twice(), b.size()\n"
             "def g(b: B):\n    def h(b):\n        return b.twice()\n"
             "    return h\n")
    source = classes + "def f(a: A):\n    return a.twice()\n"
    read = attributes_read(ast.parse(source))
    assert read == {("A", "size"), ("A", "twice")}
    assert unread_members(source, read) == ["B.size"]
    read = attributes_read(ast.parse(classes + typed))
    assert read == {("A", "size"), ("A", "twice"), ("B", "size"),
                    (None, "twice")}
    assert unread_members(classes, read) == []
    source = classes + "def g(x):\n    return x.size()\n"
    assert unread_members(source, attributes_read(ast.parse(source))) == \
        ["A.twice"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_member_is_read_somewhere(path):
    read = set().union(*(attributes_read_in(p) for p in READERS))
    assert unread_members(path.read_text(encoding="utf-8"), read) == []


# members that only the tests read, kept for the work that will read them:
# Cone.is_unimodular for towers over moduli fans (ROADMAP item 8) and
# Symbol.sqrt for rank-3 toward towers (item 3); SubdivisionResult.carrier,
# which the tests locate points through and the benchmark's tracer wraps by
# name (perfbench/layers.py, METHODS); and UndecidableSign.coefficients, the
# combination a library caller needs to know which enclosure to refine,
# where the CLI prints only the message
TEST_READ_MEMBERS = {"Cone.is_unimodular", "Symbol.sqrt",
                     "SubdivisionResult.carrier",
                     "UndecidableSign.coefficients"}


def test_every_member_is_read_outside_the_tests():
    """A result holds only what src, scripts or perfbench read; a member
    that a program caller starts reading leaves the list."""
    read = set().union(*(attributes_read_in(p) for p in PROGRAM))
    assert {m for path in MODULES
            for m in unread_members(path.read_text(encoding="utf-8"), read)
            } == TEST_READ_MEMBERS


def json_writers(source: str) -> list[str]:
    """Uses of ``json.dump`` or ``json.dumps``, and imports of either from
    ``json``: `io.canonical_json` is the one writer of JSON text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and \
                node.attr in ("dump", "dumps") and \
                isinstance(node.value, ast.Name) and node.value.id == "json":
            found.append(f"line {node.lineno}: json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(f"line {node.lineno}: from json import {a.name}"
                         for a in node.names if a.name in ("dump", "dumps"))
    return found


def test_the_scan_flags_a_json_writer():
    source = ("import json\nfrom json import dumps, loads\n"
              "def f(x, fh):\n    json.dump(x, fh)\n"
              "    return json.loads(json.dumps(x)), dumps(x)\n")
    assert json_writers(source) == [
        "line 2: from json import dumps", "line 4: json.dump",
        "line 5: json.dumps"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_only_canonical_json_writes_json(path):
    assert json_writers(path.read_text(encoding="utf-8")) == []


def value_errors(source: str) -> list[str]:
    """``raise ValueError`` and ``ValueError`` passed as an argument: a
    library refusal is a TropLimError, and a refused argument a
    ValidationError, which is a ValueError too.  ``except`` clauses and
    class bases may still name ValueError."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append((node.lineno, "raise ValueError"))
        elif isinstance(node, ast.Call):
            found.extend((a.lineno, "ValueError passed")
                         for a in node.args + [k.value for k in node.keywords]
                         if isinstance(a, ast.Name) and a.id == "ValueError")
    return [f"line {n}: {what}" for n, what in sorted(found)]


def test_the_scan_flags_a_value_error():
    source = ("class Refused(Exception, ValueError):\n    pass\n"
              "def f(v):\n    try:\n        return int(v)\n"
              "    except (KeyError, ValueError):\n"
              "        raise ValueError(f'bad {v}')\n"
              "def g(v):\n    if not v:\n        raise ValueError\n"
              "    return check(v, ValueError), check(v, error=ValueError)\n")
    assert value_errors(source) == [
        "line 7: raise ValueError", "line 10: raise ValueError",
        "line 11: ValueError passed", "line 11: ValueError passed"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_library_refusal_is_a_bare_value_error(path):
    assert value_errors(path.read_text(encoding="utf-8")) == []


ORTHANT = lattice.cone_from_generators([(1, 0), (0, 1)])

# one call per refusal that raised a plain ValueError before, with the
# start of its message
REFUSALS = {
    "dot": (lambda: la.dot((1,), (1, 2)), "length mismatch"),
    "cycle": (lambda: complexes.cycle_complex(0), "a cycle needs"),
    "barycentric": (lambda: complexes.canonical_point(
        complexes.cycle_complex(1), "e0", (2, -1)), "(Fraction(2, 1)"),
    "points-level": (lambda: complexes.rational_points(
        complexes.cycle_complex(1), 0), "level must be"),
    "counts-level": (lambda: complexes.subdivision_counts(
        complexes.cycle_complex(1), 0), "subdivision level"),
    "circle-level": (lambda: galaxy.Circle(1).counts(0), "subdivision level"),
    "generator": (lambda: lattice.cone_from_generators([(1, 0.5)]), "(1, 0.5)"),
    "no-rank": (lambda: lattice.cone_from_generators([]), "ambient rank"),
    "oracle": (lambda: sampling.ptrop_sample_oracle({}), "need at least"),
    "box": (lambda: towers.Symbol("s", 1, 1), "enclosure [1, 1]"),
    "sqrt": (lambda: towers.Symbol.sqrt(4), "sqrt(4) = 2"),
    "chain": (lambda: towers.ConeChain((
        lattice.cone_from_generators([(1, 0)]), ORTHANT)),
              "cone at level 1 is not contained in cone at level 0"),
    "terms": (lambda: tropical.trop_poly([]), "a tropical polynomial"),
    "exponent": (lambda: tropical.trop_poly([((-1, 0), 0)]), "negative"),
}


@pytest.mark.parametrize("refusal", list(REFUSALS))
def test_each_refusal_is_a_validation_error(refusal):
    """A caller catching TropLimError catches it, and one catching
    ValueError still does."""
    call, message = REFUSALS[refusal]
    with pytest.raises(ValidationError) as info:
        call()
    assert isinstance(info.value, TropLimError)
    assert isinstance(info.value, ValueError)
    assert str(info.value).startswith(message)


# the parameters of every callable the package exports, a dataclass's being
# its fields; None for the exception class, whose arguments are
# BaseException's.  A change that adds or removes one edits this table.
EXPORTED_SIGNATURES = {
    "Cell": ('name', 'dim', 'faces'),
    "ComplexMap": ('source', 'target', 'cell_images'),
    "DeltaComplex": ('cells', 'affine', 'provenance'),
    "FiberComplex": ('cells',),
    "StrataIncidence": ('mode', 'strata', 'closures'),
    "SubdivisionResult": ('complex', 'original', 'level'),
    "canonical_point": ('x', 'name', 'coords'),
    "count_cells": ('x',),
    "cycle_complex": ('m',),
    "euler_characteristic": ('x',),
    "from_incidence": ('inc',),
    "induced_map": ('source', 'target', 'vertex_map', 'cell_images'),
    "make_complex": ('cells', 'affine', 'provenance'),
    "make_incidence": ('mode', 'strata', 'closures'),
    "map_fiber": ('mapping', 'cell_name', 'coords'),
    "rational_points": ('x', 'level'),
    "scale_subdivide": ('x', 'level'),
    "toric_fiber_complex": ('matrix', 'source', 'target', 'base'),
    "TropLimError": None,
    "Fan": ('n', 'maximal'),
    "FanReport": ('valid', 'complete', 'violations'),
    "common_refinement": ('a', 'b'),
    "fan_from_cones": ('cones',),
    "validate_fan": ('cones',),
    "Circle": ('m',),
    "EllipticTower": ('m', 'degrees'),
    "Skeleton": ('x',),
    "classify_point": ('tower', 'point'),
    "decomposition": ('skeleton', 'level'),
    "galaxy_point": ('value',),
    "Cone": ('n', 'rays', 'lines'),
    "cone_from_generators": ('generators', 'n'),
    "cone_intersect": ('a', 'b'),
    "locate": ('cone', 'point'),
    "distance_to_ptrop": ('ptset', 'directions'),
    "ptrop_sample_oracle": ('coeffs', 'seed'),
    "FanTower": ('fans', 'witnesses'),
    "Symbol": ('name', 'lo', 'hi'),
    "SymbolicVector": ('symbols', 'rows'),
    "chain_toward": ('t', 'x'),
    "extend_tower": ('t', 'strategy', 'steps'),
    "fan_tower": ('base',),
    "fiber_model": ('x',),
    "fiber_rank": ('x',),
    "resolve_direction": ('c',),
    "symbolic_vector": ('entries', 'symbols'),
    "PTropSet": ('cones',),
    "TropicalPolynomial": ('n', 'terms'),
    "count_ptrop_points": ('f',),
    "ptrop_normal_fan": ('f',),
    "ptrop_recession": ('f',),
    "trop_hypersurface": ('f',),
    "trop_poly": ('terms',),
}


def exported_parameters(obj):
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return None
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    return tuple(inspect.signature(obj).parameters)


def test_exported_signatures_are_pinned():
    """Every callable ``__init__`` re-exports takes the parameters, and
    every exported dataclass holds the fields, that the table names."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    got = {name: exported_parameters(getattr(troplim, name))
           for name in exported if callable(getattr(troplim, name))}
    assert got == EXPORTED_SIGNATURES
