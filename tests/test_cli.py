"""Tests for file formats and the command-line surface."""

import argparse
import copy
import hashlib
import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from builders import (
    json_reference,
    make_cone,
    nodal_cubic_incidence,
    rational_vector,
    segment_complex,
    serialize_complex,
    square_complex,
    tetrahedron_boundary,
    tetrahedron_solid,
    torus,
    triangle_complex,
)
from troplim import cli
from troplim import fans
from troplim import io
from troplim import lattice
from troplim import sampling
from troplim.complexes import (
    Cell,
    count_cells,
    cycle_complex,
    euler_characteristic,
    from_incidence,
    make_complex,
    map_fiber,
    rational_points,
    scale_subdivide,
    toric_fiber_complex,
)
from troplim.errors import (
    IncompleteTower,
    ParseError,
    UndecidableSign,
    ValidationError,
)
from troplim.fans import fan_from_cones, validate_fan
from troplim.galaxy import Circle, OpenPoint, classify_point
from troplim.lattice import cone_from_generators
from troplim.towers import (
    ResolvedRay,
    StellarAtBarycenters,
    chain_toward,
    extend_tower,
    fan_tower,
    fiber_model,
    resolve_direction,
)
from troplim.tropical import (
    ptrop_normal_fan,
    ptrop_recession,
    trop_hypersurface,
)

NODAL = {"vars": 2, "terms": [
    {"exp": [1, 1], "val": "0"}, {"exp": [3, 0], "val": "0"},
    {"exp": [0, 3], "val": "0"}]}
QUADRANT = {"rank": 2,
            "rays": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
            "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
DIAMOND = {"rank": 2,
           "rays": [["1", "1"], ["-1", "1"], ["-1", "-1"], ["1", "-1"]],
           "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
NODAL_INC = {"mode": "analytic",
             "strata": [{"name": "C", "codim": 0, "branches": 1},
                        {"name": "p", "codim": 1, "branches": 2}],
             "closures": [["p", "C"]]}


def put(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(p)


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out) if code == 0 else None


# -- parsing and round trips -------------------------------------------------


def test_parse_fan_quadrant(tmp_path):
    fan = io.parse_fan(put(tmp_path, "q.json", QUADRANT))
    assert fan.n == 2 and len(fan.maximal) == 4 and fan.complete


def test_parse_incidence_nodal_loop(tmp_path):
    inc = io.parse_incidence(put(tmp_path, "n.json", NODAL_INC))
    loop = from_incidence(inc)
    assert [c.name for c in loop.cells] == ["C", "p"]
    assert loop.cell("p").faces == ("C", "C")


def test_parse_polynomial_exact_values(tmp_path):
    f = io.parse_polynomial(put(tmp_path, "f.json", {
        "vars": 2, "terms": [{"exp": [2, 0], "val": "-3/2"},
                             {"exp": [0, 1], "val": 4}]}))
    assert f.terms == (((0, 1), 4), ((2, 0), F(-3, 2)))


def test_round_trips_are_byte_identical(tmp_path):
    cases = [
        ("fan.json", QUADRANT, io.parse_fan, io.serialize_fan),
        ("cx.json", serialize_complex(segment_complex()),
         lambda p: io.parse_complex_data(io.load_json(p), p),
         lambda x: x),
    ]
    for name, obj, parse, serialize in cases:
        path = put(tmp_path, name, obj)
        canonical = io.canonical_json(serialize(parse(path)))
        (tmp_path / name).write_text(canonical, encoding="utf-8")
        assert io.canonical_json(serialize(parse(path))) == canonical


# -- canonical JSON against json.dumps ---------------------------------------


JSON_STRINGS = st.one_of(st.text(), st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "caf\u00e9", "\u2028", "\ud800",
     "\U0001f600", '\\"\n\t']))
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]))
JSON_LEAVES = st.one_of(
    JSON_STRINGS, st.integers(), st.integers(-2**200, 2**200), st.booleans(),
    JSON_FLOATS, st.none())
# one kind of key per object: json sorts keys, and unlike kinds do not compare
JSON_KEYS = st.sampled_from([JSON_STRINGS, st.integers() | st.booleans(),
                             JSON_FLOATS, st.none()])


def json_trees(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        JSON_KEYS.flatmap(lambda keys: st.dictionaries(keys, children,
                                                       max_size=4)))


# a raw cell is a named tuple, which json.dumps writes as a list
JSON_CELLS = st.builds(Cell, JSON_STRINGS, st.integers(),
                       st.lists(JSON_STRINGS, max_size=3).map(tuple))


@settings(deadline=None, max_examples=300)
@given(st.recursive(JSON_LEAVES | JSON_CELLS, json_trees, max_leaves=25))
def test_canonical_json_matches_json_dumps(obj):
    assert io.canonical_json(obj) == json_reference(obj)


@pytest.mark.parametrize("obj", [
    {"a": {1, 2}}, [F(1, 2)], {(1, 2): 0}, {1: "a", "b": 2},
    {"a": [{"b": object()}]}], ids=["set", "fraction", "tuple-key",
                                    "mixed-keys", "nested-object"])
def test_canonical_json_raises_as_json_dumps_does(obj):
    for render in (io.canonical_json, json_reference):
        with pytest.raises(TypeError) as raised:
            render(obj)
        assert raised.type is TypeError


def test_canonical_json_of_a_subdivided_tetrahedron():
    x = scale_subdivide(tetrahedron_solid(), 4).complex
    assert io.canonical_json(x) == json_reference(serialize_complex(x))


# cell names built from what json escapes and what subdivision names use
AWKWARD_NAMES = st.lists(st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800",
     "\U0001f600", "|", "_", ".", "a", "0"]), min_size=1, max_size=4).map(
    "".join)


@st.composite
def awkward_complexes(draw):
    """A small complex with its cells renamed to awkward strings, affine or
    not, with or without a provenance, and scale-subdivided at a small
    level when affine."""
    shape = draw(st.sampled_from([segment_complex, triangle_complex,
                                  square_complex, torus,
                                  tetrahedron_boundary]))()
    n = len(shape.cells)
    rename = dict(zip([c.name for c in shape.cells], draw(st.lists(
        AWKWARD_NAMES, min_size=n, max_size=n, unique=True))))
    affine = draw(st.booleans())
    x = make_complex([(rename[c.name], [rename[f] for f in c.faces])
                      for c in shape.cells], affine=affine,
                     provenance=draw(st.none() | JSON_STRINGS))
    level = draw(st.integers(1, 3))
    if affine and level > 1:
        try:
            x = scale_subdivide(x, level).complex
        except ValidationError:
            assume(False)  # a subdivision name repeats an input name
    return x


@st.composite
def placed_complexes(draw, x):
    """x nested 0-3 deep in lists, tuples and dicts beside other JSON
    values, with the same tree holding x's dict form instead."""
    tree, reference = x, serialize_complex(x)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([list, tuple, dict]))
        if kind is dict:
            others = draw(st.dictionaries(JSON_STRINGS, JSON_LEAVES,
                                          max_size=3))
            key = draw(JSON_STRINGS)
            tree, reference = ({**others, key: tree},
                               {**others, key: reference})
        else:
            before, after = (draw(st.lists(JSON_LEAVES, max_size=2))
                             for _ in range(2))
            tree, reference = (kind(before + [tree] + after),
                               kind(before + [reference] + after))
    return tree, reference


@settings(deadline=None, max_examples=150)
@given(awkward_complexes().flatmap(placed_complexes))
def test_canonical_json_writes_a_complex_as_its_dict_form(trees):
    tree, reference = trees
    assert io.canonical_json(tree) == json_reference(reference)


def test_parse_tower_specs(tmp_path):
    p = put(tmp_path, "t.json", {
        "base_fan": QUADRANT, "direction": {"entries": ["2", "3"]},
        "strategy": {"kind": "stellar-at-barycenters"}, "steps": 2})
    base, strategy, steps, x = io.parse_limit_point(p)
    assert isinstance(strategy, StellarAtBarycenters) and steps == 2
    assert x == rational_vector([2, 3])
    assert extend_tower(fan_tower(base), strategy, steps).depth == 3
    p = put(tmp_path, "e.json", {"elliptic": {"m": 3, "degrees": [1, 2]}})
    with pytest.raises(ValidationError, match="not an elliptic tower"):
        io.parse_limit_point(p)
    ell, points = io.parse_galaxy(p)
    assert ell.circle == Circle(3) and points == []
    assert ell.cycle_sizes == (3, 6)


def test_parse_errors_name_the_location(tmp_path):
    bad = put(tmp_path, "bad.json", {"vars": 2, "terms": [
        {"exp": [1, 1], "val": "0"}, {"exp": [1], "val": "0"}]})
    with pytest.raises(ParseError, match=r"terms\[1\]\.exp"):
        io.parse_polynomial(bad)
    with pytest.raises(ParseError, match="missing field 'terms'"):
        io.parse_polynomial(put(tmp_path, "m.json", {"vars": 2}))
    broken = tmp_path / "broken.json"
    broken.write_text('{"vars": 2,\n  "terms": }\n', encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        io.parse_polynomial(str(broken))
    with pytest.raises(ParseError, match="bad rational"):
        io.parse_polynomial(put(tmp_path, "r.json", {
            "vars": 1, "terms": [{"exp": [1], "val": "1/0"}]}))


def test_job_config_validation():
    with pytest.raises(ValidationError):
        cli.JobConfig("trop", ())
    with pytest.raises(ValidationError):
        cli.JobConfig("trop", ("x.json",), depth=65)
    with pytest.raises(ValidationError):
        cli.JobConfig("trop", ("x.json",), level=0)


# -- subcommands end to end --------------------------------------------------


def test_ptrop_nodal_cubic_report(tmp_path, capsys):
    path = put(tmp_path, "nodal.json", NODAL)
    code, report = run_json(capsys, ["ptrop", path])
    assert code == 0
    res = report["results"][0]
    assert res["points"] == [["1", "2"], ["2", "1"]]
    assert res["routes_agree"] and res["is_finite"]
    clusters = res["oracle_clusters"]
    assert len(clusters) == 2
    assert all(c["distance_to_exact"] < 1e-2 for c in clusters)
    assert report["inputs"][0]["sha256"] == io.sha256_file(path)


@pytest.mark.xfail(strict=True, reason=(
    "the oracle solves for the last variable, which x + y does not involve, "
    "so no path finds a branch and the run exits 2 without its exact result"))
def test_ptrop_of_a_germ_free_of_the_last_variable(tmp_path, capsys):
    """x + y in 3 variables passes through the origin, and its exact PTrop
    is the cone on (0, 0, 1) and (1, 1, 0)."""
    path = put(tmp_path, "xy.json", {"vars": 3, "terms": [
        {"exp": [1, 0, 0], "val": "0"}, {"exp": [0, 1, 0], "val": "0"}]})
    code, report = run_json(capsys, ["ptrop", path])
    assert code == 0
    res = report["results"][0]
    assert res["cones"] == [{"rays": [["0", "0", "1"], ["1", "1", "0"]]}]
    assert res["routes_agree"]
    assert all(c["distance_to_exact"] < 1e-2 for c in res["oracle_clusters"])


def test_subdivide_elliptic_writes_complex_file(tmp_path, capsys):
    path = put(tmp_path, "i3.json", {"elliptic": {"m": 3}})
    out = str(tmp_path / "i6.json")
    code, report = run_json(capsys, ["subdivide", "--N", "2", path,
                                     "--output", out])
    assert code == 0
    assert report["results"][0]["counts"] == {"0": 6, "1": 6}
    emitted = io.parse_complex_data(io.load_json(out), out)
    assert emitted == Circle(3).level(2)
    with open(out, encoding="utf-8") as fh:
        assert fh.read() == io.canonical_json(serialize_complex(emitted))


@pytest.mark.parametrize("argv, obj, message", [
    (["subdivide", "--N"], {"elliptic": {"m": 3}},
     "6000000000 cells of the 3000000000-cycle"),
    (["subdivide", "--N"], serialize_complex(segment_complex()),
     "2000000001 cells of the level-1000000000 subdivision"),
    (["rational-points", "--level"], {"elliptic": {"m": 3}},
     "3000000000 rational points at level 1000000000"),
    (["rational-points", "--level"], serialize_complex(triangle_complex()),
     "500000001500000001 rational points at level 1000000000"),
], ids=["subdivide-cycle", "subdivide-complex", "points-cycle",
        "points-complex"])
def test_a_level_beyond_the_cell_cap_exits_4_unbuilt(tmp_path, capsys, argv,
                                                     obj, message):
    """The count comes first, in closed form, so a level whose result
    passes the cell cap is refused at once instead of built."""
    path = put(tmp_path, "x.json", obj)
    start = time.perf_counter()
    assert cli.main(argv + ["1000000000", path]) == 4
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        f"resource cap: {message} exceed the cell cap of 1000000\n"


def test_an_oracle_degree_beyond_the_cap_exits_4_unbuilt(tmp_path, capsys,
                                                        monkeypatch):
    """The oracle reads the degree in the variable it solves for first, so
    x + y^150, whose companion matrices took 24.5 s to solve before the cap,
    is refused at once with no polynomial array built."""
    def unreachable(*args):
        raise AssertionError("a polynomial array was built")

    monkeypatch.setattr(sampling, "_last_var_polys", unreachable)
    path = put(tmp_path, "x.json", {"vars": 2, "terms": [
        {"exp": [1, 0], "val": "0"}, {"exp": [0, 150], "val": "0"}]})
    start = time.perf_counter()
    assert cli.main(["ptrop", path]) == 4
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "resource cap: degree 150 in the last variable exceeds the sampling "
        "oracle's cap of 64\n")


def test_galaxy_level_is_not_capped(tmp_path, capsys):
    """galaxy --level counts the level-N cells of I_m and builds none, so
    neither the level nor an m whose cycle would pass the cell cap (1.2
    million cells here) is refused."""
    path = put(tmp_path, "g.json", {"elliptic": {"m": 600000, "degrees": [1]},
                                    "points": []})
    code, report = run_json(capsys, ["galaxy", "--level", "1000000000", path])
    assert code == 0
    assert report["results"][0]["decomposition"] == {
        "level": 10 ** 9, "open_slots": 6 * 10 ** 14,
        "non_klt_cells": 6 * 10 ** 14}


def test_map_fibers_k3_mismatch(tmp_path, capsys):
    path = put(tmp_path, "k3.json", {
        "source": serialize_complex(tetrahedron_solid()),
        "target": serialize_complex(segment_complex()),
        "vertex_map": {"v0": "z0", "v1": "z1", "v2": "z1", "v3": "z1"},
        "points": [{"cell": "e", "coords": ["1/2", "1/2"]}],
        "reference": serialize_complex(tetrahedron_boundary())})
    code, report = run_json(capsys, ["map-fibers", path])
    assert code == 0
    res = report["results"][0]
    assert res["points"][0]["f_vector"] == [3, 3, 1]
    assert res["points"][0]["euler"] == 1
    assert res["reference_euler"] == 2
    assert res["mismatch"] is True


RAY_FAN = {"rank": 1, "rays": [["1"]], "maximal_cones": [[0]]}
TORIC_FIBER = {
    "matrix": [[1, 0]],
    "source": {"rank": 2, "rays": [["1", "0"], ["1", "1"], ["1", "2"]],
               "maximal_cones": [[0, 1], [1, 2]]},
    "target": RAY_FAN,
    "base": {"rays": [[1]]}}
# the octants of rank 3, the positive one split at (1, 1, 1), over the
# quadrant fan by the projection to the first two coordinates
OCTANTS_SPLIT = {
    "matrix": [[1, 0, 0], [0, 1, 0]],
    "source": {"rank": 3,
               "rays": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                        ["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"],
                        ["1", "1", "1"]],
               "maximal_cones": [[0, 1, 6], [1, 2, 6], [0, 2, 6], [1, 2, 3],
                                 [2, 3, 4], [0, 2, 4], [0, 1, 5], [1, 3, 5],
                                 [3, 4, 5], [0, 4, 5]]},
    "target": QUADRANT,
    "base": {"rays": [[1, 0]]}}
# one cone over a cuboctahedron, 12 rays in rank 4, over its height
CUBOCTAHEDRON = {
    "matrix": [[0, 0, 0, 1]],
    "source": {"rank": 4,
               "rays": [[str(x) for x in v + (1,)]
                        for a in (1, -1) for b in (1, -1)
                        for v in ((a, b, 0), (a, 0, b), (0, a, b))],
               "maximal_cones": [list(range(12))]},
    "target": RAY_FAN,
    "base": {"rays": [[1]]}}


def test_toric_fiber_counts(tmp_path, capsys):
    path = put(tmp_path, "tf.json", TORIC_FIBER)
    code, report = run_json(capsys, ["toric-fiber", path])
    assert code == 0
    res = report["results"][0]
    assert res["counts"] == {"0": 3, "1": 2}
    assert res["euler"] == 1


@pytest.mark.parametrize("name, obj, counts, digest", [
    ("tf.json", TORIC_FIBER, {"0": 3, "1": 2},
     "6d5a5f0037a95c263da37f58b2956f2317521216346db715ce23ae9083166047"),
    ("rank3.json", OCTANTS_SPLIT, {"0": 1, "1": 2},
     "edd9d36e2ccb217f1448124096be0cc4eb6f383d76138133257ccf124b682c91"),
    ("cubo.json", CUBOCTAHEDRON, {"0": 12, "1": 24, "2": 14, "3": 1},
     "773ef5e03d30575a82649c42331730bb9866dcb83d4d3ca70278369330808a08"),
], ids=["tf", "rank3", "twelve-rays"])
def test_toric_fiber_report_bytes_are_frozen(tmp_path, capsys, monkeypatch,
                                             name, obj, counts, digest):
    """SHA-256 of the canonical JSON report, frozen from the enumeration of
    faces by facet subsets; a relative input path keeps the bytes fixed."""
    monkeypatch.chdir(tmp_path)
    put(tmp_path, name, obj)
    assert cli.main(["toric-fiber", name, "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"][0]["counts"] == counts
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def poly_json(terms):
    """Polynomial file contents from (exponent, valuation) pairs."""
    return {"vars": len(terms[0][0]),
            "terms": [{"exp": list(e), "val": str(v)} for e, v in terms]}


# the seven worked examples of acceptance criterion 1, then a homogeneous
# rank-3 germ (lines in the dual of the lifted cone), a plane germ with
# fractional valuations and a non-vertex term, and a random rank-4 germ
TROP_GERMS = [
    [((1, 1), 0), ((3, 0), 0), ((0, 3), 0)],
    [((1, 0), 0), ((0, 1), 0)],
    [((1, 1, 0), 0), ((0, 0, 2), 0)],
    [((2, 0), 0), ((1, 1), 0), ((0, 2), 0)],
    [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)],
    [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 1), 0)],
    [((1, 0), F(1, 2)), ((0, 2), 0), ((2, 1), -1)],
    [((3, 0, 0), 0), ((0, 3, 0), 1), ((0, 0, 3), F(1, 2)), ((1, 1, 1), -1),
     ((2, 1, 0), 2), ((0, 1, 2), F(-1, 3))],
    [((1, 0), F(1, 2)), ((0, 2), F(-2, 3)), ((2, 1), F(3, 4)),
     ((1, 1), F(5, 7)), ((3, 0), F(-1, 5)), ((0, 1), F(7, 3))],
    [((0, 0, 2, 1), 4), ((1, 0, 0, 1), 3), ((0, 0, 2, 0), 3),
     ((1, 2, 0, 0), -1), ((3, 0, 0, 0), -4), ((2, 0, 0, 1), -3),
     ((1, 0, 0, 0), -3), ((1, 1, 1, 0), 0), ((0, 2, 1, 0), -3),
     ((0, 1, 1, 1), 3)],
]


@pytest.mark.parametrize("terms, digest", list(zip(TROP_GERMS, [
    "b698970266998a1e1513f32f9ea4b03976dc5421c3b5c6cc6d0ec399dcba9f77",
    "c0fddcbb87decd442de1c3cefebd89ea8c92a728d6d9b8814d2f793ed8feb061",
    "86b288c170414329da8683022807be81af8bbad4d4aef1e027e3998d007b842d",
    "28461ecea3a6c6de8c9f88b48156c1b6d319720c60dd5268a5f0d13728f38b4c",
    "3ff93cc29d343c609400ca21dc1bc25c439d8d5723fd8369439021e44e7c65be",
    "14177715ce350f10235ecff951712d40618a5363ac41a46cc2f8f13f92ccae90",
    "388ce3792395cf88567dd75894e74ef581cb24630149d4893eaadcb3a75173aa",
    "a2bfd890315b90b1cc619f4d14e05a9ccc7328e19f4a5231d145e889c6b87ccb",
    "64527d2492edd1c39523a2a46e6cd6b32292149300c736b5625e77d18e1ce1e4",
    "15ecca1df96e6a4feaa77a5b9682bbfa9de28632b69027a75ccd0aad7a52561f",
])), ids=["cubic", "line", "cone", "conic", "plane", "rank4-line",
          "valued", "homogeneous", "fractional", "random-rank4"])
def test_trop_report_bytes_are_frozen(tmp_path, capsys, monkeypatch,
                                      terms, digest):
    """SHA-256 of the canonical `trop --json` report, frozen from the
    search over achiever sets; a relative input path keeps the bytes
    fixed."""
    monkeypatch.chdir(tmp_path)
    put(tmp_path, "f.json", poly_json(terms))
    assert cli.main(["trop", "f.json", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trop_reports_read_back_to_the_library_cells(tmp_path, capsys):
    """Each cell of every frozen germ's `trop --json` report reads back to
    the cell `trop_hypersurface` gives: its recession cone's rays and,
    where it has any, its lines."""
    for i, terms in enumerate(TROP_GERMS):
        path = put(tmp_path, f"f{i}.json", poly_json(terms))
        code, report = run_json(capsys, ["trop", path])
        assert code == 0
        h = trop_hypersurface(io.parse_polynomial(path))
        read = [(c["dim"], [tuple(e) for e in c["achievers"]],
                 [tuple(map(int, r)) for r in c["recession_rays"]],
                 [tuple(map(int, l)) for l in c.get("recession_lines", [])])
                for c in report["results"][0]["cells"]]
        assert read == [(c.dim, list(c.achievers), list(c.recession.rays),
                         list(c.recession.lines)) for c in h.cells], i


def _frozen_report(tmp_path, capsys, monkeypatch, argv, name, obj):
    """SHA-256 of a canonical `--json` report; a relative input path keeps
    the bytes fixed."""
    monkeypatch.chdir(tmp_path)
    put(tmp_path, name, obj)
    assert cli.main(argv[:1] + [name] + argv[1:] + ["--json"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


SUBDIVIDE_SHAPES = {
    "triangle": triangle_complex, "square": square_complex,
    "tetrahedron": tetrahedron_solid, "3-cycle": lambda: cycle_complex(3)}


@pytest.mark.parametrize("shape, level, digest", [
    ("triangle", 1,
     "fbae30f0b5f8e972ceb1f81c75213418cc50f1240997c4d175cbfbeefbf69273"),
    ("triangle", 2,
     "9712e8451956773c5b6c87085dc2afc398ada3f3cb7a1047e2d25e656a76a177"),
    ("triangle", 3,
     "7d67584cdc4dcb835b99fa3efcfb89b4e5b529440e2274d76c777c79c194f453"),
    ("triangle", 4,
     "267b2482c7c37744135afbddac8119009553f0f6366717f04fe29f1748c4d6d8"),
    ("square", 1,
     "d2f8794e8046003e63ca52833ceb4b92d19c4a1f58bd2e88fef509ba432b628d"),
    ("square", 2,
     "6b2e212079d571d519dae0e8a1782f0fa9a7a2afa15474de52508435d7ee439d"),
    ("square", 3,
     "66bb50dca406f3aca28ec60ed678daca82a7ca4f170f55983dceac28a9a39aec"),
    ("square", 4,
     "e4b53e44f876c6f0cf613f3f1a6e17b57a11787cc12f352059bf6a33ca96f9c1"),
    ("tetrahedron", 1,
     "f4bb19885aa3fd09c5c8fdfbc6fe8c580feadfa00a25878e0108d78188ea2038"),
    ("tetrahedron", 2,
     "8054d4e27ee31b79a1fa734a5b2c4541c38f857ede54ac0a15d738f426eb63ba"),
    ("tetrahedron", 3,
     "36c8fb06596bbecc2457c6547ad5494993aabc01cd3ef1fb2908f9b9a90bf284"),
    ("tetrahedron", 4,
     "e2fb92f5f52206601d51c6704cc86f5eec6a1016d31e181dd50f6b477501a5ca"),
    ("3-cycle", 1,
     "a4ef47a6b699ec4ae5d3bfa31014d0148386a12283cb6f0035272ffcbe53f4a3"),
    ("3-cycle", 2,
     "9c267ee59b9b330fd34620ee649b17db561a3849ca5772b4a94d932f2c684cc2"),
    ("3-cycle", 3,
     "8c1b478cade7cc8d199ba07b0af9e294f8b8030f47a9c4beb8d1721c0b39d7a9"),
    ("3-cycle", 4,
     "2d0fa2a7cee7f91989d1af610add2db58fb1426f8b084b836d693c61af47c8d4"),
])
def test_subdivide_report_bytes_are_frozen(tmp_path, capsys, monkeypatch,
                                           shape, level, digest):
    """Frozen from the order-coordinate wall walk of each alcove face."""
    obj = serialize_complex(SUBDIVIDE_SHAPES[shape]())
    assert _frozen_report(tmp_path, capsys, monkeypatch,
                          ["subdivide", "--N", str(level)], "x.json",
                          obj) == digest


def _map_file(source, target, vertex_map, points, reference=None,
              cell_images=None):
    obj = {"source": serialize_complex(source),
           "target": serialize_complex(target), "vertex_map": vertex_map,
           "points": [{"cell": c, "coords": list(t)} for c, t in points]}
    if reference is not None:
        obj["reference"] = serialize_complex(reference)
    if cell_images is not None:
        obj["cell_images"] = cell_images
    return obj


SEGMENT_POINTS = [("e", ["1/2", "1/2"]), ("e", ["1/3", "2/3"]),
                  ("z0", ["1"]), ("z1", ["1"])]
MAP_DATASETS = {
    "square": _map_file(square_complex(), segment_complex(),
                        {"a": "z0", "b": "z1", "c": "z0", "d": "z1"},
                        SEGMENT_POINTS),
    "tetrahedron": _map_file(tetrahedron_solid(), segment_complex(),
                             {"v0": "z0", "v1": "z1", "v2": "z1", "v3": "z1"},
                             SEGMENT_POINTS, tetrahedron_boundary()),
    "collapse": _map_file(from_incidence(nodal_cubic_incidence()),
                          make_complex([("C", [])]), {"C": "C"},
                          [("C", ["1"])]),
    # a 2-dimensional target: points interior to the triangle, on an edge
    # (one named, one reached by a zero coordinate) and at vertices
    "tetrahedron-triangle": _map_file(
        tetrahedron_solid(), triangle_complex(),
        {"v0": "a", "v1": "b", "v2": "c", "v3": "c"},
        [("T", ["1/3", "1/3", "1/3"]), ("T", ["1/2", "1/6", "1/3"]),
         ("bc", ["1/4", "3/4"]), ("T", ["1/2", "0", "1/2"]),
         ("a", ["1"]), ("c", ["1"])]),
    # the triple cover of the loop: a self-glued target cell
    "3-cycle-loop": _map_file(
        cycle_complex(3), cycle_complex(1),
        {"v0": "v0", "v1": "v0", "v2": "v0"},
        [("v0", ["1"]), ("e0", ["1/2", "1/2"]), ("e0", ["1/3", "2/3"]),
         ("e0", ["0", "1"])],
        cell_images={f"e{i}": ["e0", [0, 1]] for i in range(3)}),
}


@pytest.mark.parametrize("dataset, digest", [
    ("square",
     "4c7c68f042d48a166a7344708599915f50e69b27787129046ccf3bd3d050b16e"),
    ("tetrahedron",
     "eadac089e09077950c8b2723841c8b2c6780f1496a08471641a00dcc1572a7a3"),
    ("collapse",
     "a13f0c0bf517cc00e3a1ee97fea7a189ccb2b73664127d5dc0f25ea6bda4bfc8"),
    ("tetrahedron-triangle",
     "2032c7b2ea63277f923bc108070b5ce7621133a5ee22d9587b862bbcb4544bc0"),
    ("3-cycle-loop",
     "e25d25ce2a33a621857d3867319ab2541a7ea251c7a7eb4ec074cbdc1182f5eb"),
])
def test_map_fibers_report_bytes_are_frozen(tmp_path, capsys, monkeypatch,
                                            dataset, digest):
    """Frozen from the sorted-barycentric wall walk of each fiber face."""
    assert _frozen_report(tmp_path, capsys, monkeypatch, ["map-fibers"],
                          "m.json", MAP_DATASETS[dataset]) == digest


def _sqrt_symbol(k):
    s = isqrt(k * 10 ** 12)
    return {"name": f"sqrt{k}", "lo": f"{s}/1000000",
            "hi": f"{s + 1}/1000000"}


OCTANTS = {"rank": 3,
           "rays": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                    ["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
           "maximal_cones": [[a, b, c] for a in (0, 3) for b in (1, 4)
                             for c in (2, 5)]}
SYMBOLIC_TOWERS = {
    "rank2": {"base_fan": QUADRANT, "steps": 8, "strategy": {
        "kind": "toward-direction", "direction": {
            "symbols": [_sqrt_symbol(2)],
            "entries": [["1", "0"], ["0", "1"]]}}},
    "rank3-stellar": {"base_fan": OCTANTS, "steps": 2, "strategy": {
        "kind": "stellar-at-barycenters"},
                      "direction": {"symbols": [_sqrt_symbol(2)],
                                    "entries": [["1", "0"], ["0", "1"],
                                                ["1/2", "0"]]}},
    "rank2-refine-with": {"base_fan": QUADRANT, "steps": 2, "strategy": {
        "kind": "common-refine-with", "fan": DIAMOND},
                          "direction": {"symbols": [_sqrt_symbol(2)],
                                        "entries": [["1", "0"], ["0", "1"]]}},
}


@pytest.mark.parametrize("tower, digest", [
    ("rank2",
     "4266b77abeee7ba200d4f5652a965118eb4796a2155860b3df0d34ec31ef1fb5"),
    ("rank3-stellar",
     "492c3bdab77218197ef6e189aa113b00c9ca70de744fd7ad64ef962238b6f724"),
    ("rank2-refine-with",
     "b292680e29b44a09d9acb5f28f8be89f4a596ec62d5c6a13f5887ad76a34506e"),
])
def test_limit_point_report_bytes_are_frozen(tmp_path, capsys, monkeypatch,
                                             tower, digest):
    """Frozen from the symbolic carrier search of each tower level."""
    assert _frozen_report(tmp_path, capsys, monkeypatch, ["limit-point"],
                          "t.json", SYMBOLIC_TOWERS[tower]) == digest



FAN_FILES = {
    "complete": QUADRANT,
    "incomplete": {"rank": 2, "rays": [["1", "0"], ["1", "1"], ["0", "1"]],
                   "maximal_cones": [[0, 1], [1, 2]]},
    "invalid": {"rank": 2, "rays": [["1", "0"], ["1", "1"], ["0", "1"],
                                    ["-1", "1"]],
                "maximal_cones": [[0, 2], [1, 2], [1, 3], [0, 1]]},
    "rank3": OCTANTS,
}


@pytest.mark.parametrize("fan, digest", [
    ("complete",
     "2cf9735e5354661dd6497bdb28aa4a5fe2ad6e3308ff85444c840edce3ea0286"),
    ("incomplete",
     "eed84c8aacb63e762ea9e1d4119cbdcef707e72e3f4125f3c1c35e093ada878b"),
    ("invalid",
     "b2f32279c49673f36a7fdb7fa360224df0d4c10d695e7a0769a34ebe0d20b4ef"),
    ("rank3",
     "8a73482084892c3ea0ac6a6b2b97e17f2afe18d80abf5aeab4c836fdace89dbd"),
])
def test_fan_validate_report_bytes_are_frozen(tmp_path, capsys, monkeypatch,
                                              fan, digest):
    """Frozen from the validating constructor that checked every pair of
    cones a second time."""
    assert _frozen_report(tmp_path, capsys, monkeypatch, ["fan-validate"],
                          "f.json", FAN_FILES[fan]) == digest


def test_refine_report_and_artifact_bytes_are_frozen(tmp_path, capsys,
                                                     monkeypatch):
    """Frozen from the refine handler's own artifact writer; `run` now
    writes the artifact a command's row names."""
    monkeypatch.chdir(tmp_path)
    put(tmp_path, "a.json", QUADRANT)
    put(tmp_path, "b.json", DIAMOND)
    assert cli.main(["refine", "a.json", "b.json", "--output", "ref.json",
                     "--json"]) == 0
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == \
        "7c29a954cd418adf974d7059fef8c34deea1e98df9a0668bf6036adb2533d280"
    artifact = (tmp_path / "ref.json").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == \
        "b3cf161f9a6a1c7918e19318f909312e56981ce35138ae13aa39fb9d470a8722"


BANANA_INC = {"mode": "analytic",
              "strata": [{"name": "A", "codim": 0, "branches": 1},
                         {"name": "B", "codim": 0, "branches": 1},
                         {"name": "p", "codim": 1, "branches": 2},
                         {"name": "q", "codim": 1, "branches": 2},
                         {"name": "r", "codim": 1, "branches": 2}],
              "closures": [["p", "A"], ["p", "B"], ["q", "B"], ["q", "A"],
                           ["r", "B"]]}


@pytest.mark.parametrize("argv, obj, report_digest, artifact_digest", [
    (["dualcx"], BANANA_INC,
     "2a6c1f0f219a45868118efb5fa260de0c8f6a89285ae3e3927949dd1477ced5a",
     "5c207fd8b2a5b0e2db6219d5c9fbe75be05e0c06639f5b42fcfe702c83b4295a"),
    (["subdivide", "--N", "2"], serialize_complex(square_complex()),
     "2ac551dee23ae93274efbac52400ea468c800915413cbada124f881cbc9b20a6",
     "b7ee848dd1019072b258b53f1dc1bab63d463738060988c2be119424907451ce"),
], ids=["dualcx", "subdivide"])
def test_complex_artifact_bytes_are_frozen(tmp_path, capsys, monkeypatch,
                                           argv, obj, report_digest,
                                           artifact_digest):
    """The `--output` complex of a non-elliptic input, frozen with its
    report."""
    monkeypatch.chdir(tmp_path)
    put(tmp_path, "x.json", obj)
    assert cli.main(argv[:1] + ["x.json"] + argv[1:] +
                    ["--output", "out.json", "--json"]) == 0
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == report_digest
    artifact = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == artifact_digest


ELLIPTIC_SUBDIVIDE_DIGESTS = {
    (1, 1):
        "a09911c6b5ae21bd5b4fe472be8ad3340c43e16579b9f18fe53139f7d7ae4242",
    (1, 2):
        "c1f8994bd1fa285a8638678d02a6f2623e8cc9e6d1a34cf61258823ba631377b",
    (1, 3):
        "c24250c36e6b77a7485a9a43b29e3d7179789eca47d65fedfc6359f4b83b26ba",
    (1, 4):
        "9e29fa4b11223160c6214ed32221d920c0b27a8ad2a33b2486f1874204488240",
    (1, 5):
        "004588ed562f5431d5614f7901af97cd547505b46e12be27432d88b8fb729a6e",
    (3, 1):
        "ff6b7a0c14b4a3785c68ce8c3d3c536b1d00b162f1c36996557e61214bfd82ab",
    (3, 2):
        "62a774eadba14a1386b97e6ed2598563fa02a2eb54b4e858f93504b4fe6038d0",
    (3, 3):
        "081fd14283018251a3de084052194f26b1f0b099a4942ee2edd46225845179b5",
    (3, 4):
        "6791859a54c68b022c93fc40f8eea8d074a9d04b0444f3a8dd3a2a668dc8b9b5",
    (3, 5):
        "c2a9877cb7147a0e1f3ae8cd0b0cf6e40d117d2c9c4a526d4d837312aa9e2b76",
    (4, 1):
        "9aaf0baffd9fb03fe8ee5c661406c1f5db0cfdaf46c3cecc9b21abfaaf83c62d",
    (4, 2):
        "8bcc23882b7b0f3fb92898d9ed11191dc716e0e712cd2d25077b1c3bd18c16da",
    (4, 3):
        "c1bfb2b737b972bfcb3dc278aa6e302920a5500ee48b38ea16ca6fe8b552aade",
    (4, 4):
        "64a13e57965e5cc1437e9bb574915406c84da29bdf0b400ddff24fcbef29fdc5",
    (4, 5):
        "7039144ce9fbba07fa0265226f5eb1e526d544210a6a23dc04d204fccfc0c33c",
}


@pytest.mark.parametrize("m, level", sorted(ELLIPTIC_SUBDIVIDE_DIGESTS),
                         ids=lambda v: str(v))
def test_subdivide_elliptic_report_bytes_are_frozen(tmp_path, capsys,
                                                    monkeypatch, m, level):
    """Frozen from base change locating each vertex by Fraction angles."""
    assert _frozen_report(tmp_path, capsys, monkeypatch,
                          ["subdivide", "--N", str(level)], "i.json",
                          {"elliptic": {"m": m}}) == \
        ELLIPTIC_SUBDIVIDE_DIGESTS[m, level]

def test_toric_fiber_keeps_only_faces_spanning_the_base(tmp_path, capsys):
    """Over the quadrant the ray (1, 1, 1) maps into the open quadrant but
    spans only a line of it, so a generic point of the base misses it.
    What is left: the walls {x, y}, {y, (1,1,1)} and {x, (1,1,1)} and the
    four 3-cones that meet the open quadrant's preimage."""
    path = put(tmp_path, "rank3.json",
               {**OCTANTS_SPLIT, "base": {"rays": [[1, 0], [0, 1]]}})
    code, report = run_json(capsys, ["toric-fiber", path])
    assert code == 0
    res = report["results"][0]
    assert all(int(d) >= 0 for d in res["counts"])
    assert res["counts"] == {"0": 3, "1": 4}
    assert isinstance(res["euler"], int) and res["euler"] == -1


@pytest.mark.parametrize("field, value", [
    ("matrix", [5]),
    ("matrix", ["10"]),
    ("base", {"rays": 5}),
    ("base", {"rays": [1]}),
    ("base", {"rays": ["1"]}),
], ids=["matrix-int-row", "matrix-string-row", "base-rays-int",
        "base-int-ray", "base-string-ray"])
def test_toric_fiber_non_list_rows_are_parse_errors(tmp_path, capsys,
                                                    field, value):
    path = put(tmp_path, "tf.json", {**TORIC_FIBER, field: value})
    assert cli.main(["toric-fiber", path]) == 3
    assert "expected a list" in capsys.readouterr().err


def test_galaxy_outcomes(tmp_path, capsys):
    path = put(tmp_path, "gal.json", {
        "elliptic": {"m": 3, "degrees": [1, 2, 4, 8, 16]},
        "points": ["1/6", "0", "1/5",
                   {"symbol": {"name": "sqrt2-1", "lo": "414213/1000000",
                               "hi": "414214/1000000"}},
                   {"symbol": {"name": "wide", "lo": "33/100",
                               "hi": "34/100"}}]})
    code, report = run_json(capsys, ["galaxy", path, "--level", "2"])
    assert code == 0
    res = report["results"][0]
    by_point = {p["point"]: p for p in res["points"]}
    assert by_point["1/6"]["kind"] == "open"
    assert by_point["1/6"]["level"] == 1
    assert by_point["1/6"]["vertex"] == "v1"
    assert by_point["0"] == {"point": "0", "kind": "open", "label": "0",
                             "level": 0, "vertex": "v0"}
    assert by_point["1/5"]["kind"] == "incomplete"
    closed = by_point["sqrt2-1"]
    assert closed["kind"] == "closed"
    assert [c["width"] for c in closed["carriers"]] == [
        "1/3", "1/6", "1/12", "1/24", "1/48"]
    assert by_point["wide"]["kind"] == "undecidable"
    assert res["cycle_sizes"] == [3, 6, 12, 24, 48]
    assert res["decomposition"] == {"level": 2, "open_slots": 6,
                                    "non_klt_cells": 6}


def test_limit_point_resolves_rational_direction(tmp_path, capsys):
    path = put(tmp_path, "lp.json", {
        "base_fan": QUADRANT,
        "strategy": {"kind": "toward-direction",
                     "direction": {"entries": ["2", "3"]}},
        "steps": 6})
    code, report = run_json(capsys, ["limit-point", path])
    assert code == 0
    res = report["results"][0]
    assert res["resolved"] and res["ray"] == ["2", "3"]
    assert res["carrier_dims"][-1] == 1


TOWARD_23 = {"kind": "toward-direction",
             "direction": {"entries": ["2", "3"]}}


@pytest.mark.parametrize("spec, calls", [
    ({"strategy": TOWARD_23, "steps": 6}, 7),
    ({"strategy": TOWARD_23, "steps": 6,
      "direction": {"entries": ["2", "3"]}}, 7),
    ({"strategy": TOWARD_23, "steps": 6,
      "direction": {"entries": ["3", "2"]}}, 13),
    ({"strategy": TOWARD_23, "steps": 0}, 1),
    ({"steps": 0, "direction": {"entries": ["2", "3"]}}, 1),
    ({"strategy": {"kind": "stellar-at-barycenters"}, "steps": 1,
      "direction": {"entries": ["2", "3"]}}, 2),
], ids=["toward", "toward-same-direction", "toward-other-direction",
        "no-step", "no-strategy", "stellar"])
def test_a_limit_point_job_locates_its_target_once_per_level(
        tmp_path, capsys, monkeypatch, spec, calls):
    """A toward job chasing its own target locates it once on each level;
    a job chasing another direction extends with one walk and chases
    with another, as a stellar tower and a tower of no step, with or
    without a strategy, do."""
    counted, locate = [], fans.Fan.locate

    def counting(fan, point, among=None):
        counted.append(point)
        return locate(fan, point, among)

    monkeypatch.setattr(fans.Fan, "locate", counting)
    path = put(tmp_path, "lp.json", {"base_fan": QUADRANT, **spec})
    code, report = run_json(capsys, ["limit-point", path])
    assert code == 0
    assert report["results"][0]["depth"] == spec["steps"] + 1
    assert len(counted) == calls


def test_fiber_rank_reports_model(tmp_path, capsys):
    irr = put(tmp_path, "irr.json", {
        "symbols": [{"name": "sqrt2", "lo": "1414213/1000000",
                     "hi": "1414214/1000000"}],
        "entries": [["1", "0"], ["0", "1"]]})
    rat = put(tmp_path, "rat.json", {"entries": ["1", "1"]})
    code, report = run_json(capsys, ["fiber-rank", irr, rat])
    assert code == 0
    by_input = {r["input"]: r for r in report["results"]}
    assert by_input[irr]["rank"] == 2 and by_input[irr]["fiber_dim"] == 0
    assert by_input[rat]["rank"] == 1 and by_input[rat]["fiber_dim"] == 1
    assert {r["det"] for r in report["results"]} <= {1, -1}


def test_fan_validate_reports_invalid_without_failing(tmp_path, capsys):
    path = put(tmp_path, "bad-fan.json", {
        "rank": 2, "rays": [["1", "0"], ["1", "1"], ["0", "1"]],
        "maximal_cones": [[0, 2], [1, 2]]})
    code, report = run_json(capsys, ["fan-validate", path])
    assert code == 0
    res = report["results"][0]
    assert res["valid"] is False and res["violations"]


@pytest.mark.parametrize("complete", [True, False],
                         ids=["complete", "partial"])
def test_refine_runs_no_containment_check(tmp_path, monkeypatch, complete):
    """refine reads both verdicts off the witnesses its refinement hands
    over, so it calls cone_holds through no module, with a second fan that
    covers the first or only one of its cones.  Parsing is left out:
    building a cone checks it with cone_holds."""
    paths = (put(tmp_path, "a.json", QUADRANT),
             put(tmp_path, "b.json", DIAMOND if complete else FIRST_QUADRANT))
    monkeypatch.setattr(cli, "parse_fan",
                        {p: io.parse_fan(p) for p in paths}.__getitem__)
    holds, calls = lattice.cone_holds, []

    def counted(*args):
        calls.append(args)
        return holds(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("troplim") and \
                getattr(module, "cone_holds", None) is holds:
            monkeypatch.setattr(module, "cone_holds", counted)
    out = cli.handle_refine(cli.JobConfig("refine", paths))
    assert (out["refines_first"], out["refines_second"]) == (complete, True)
    assert calls == []


def test_refine_writes_fan_artifact(tmp_path, capsys):
    a = put(tmp_path, "a.json", QUADRANT)
    b = put(tmp_path, "b.json", DIAMOND)
    out = str(tmp_path / "ref.json")
    code, report = run_json(capsys, ["refine", a, b, "--output", out])
    assert code == 0
    res = report["results"][0]
    assert res["maximal_cones"] == 8
    assert res["refines_first"] and res["refines_second"]
    assert len(io.parse_fan(out).maximal) == 8


def test_rational_points_and_dualcx(tmp_path, capsys):
    i3 = put(tmp_path, "i3.json", {"elliptic": {"m": 3}})
    code, report = run_json(capsys, ["rational-points", "--level", "2", i3])
    assert code == 0 and report["results"][0]["count"] == 6
    inc = put(tmp_path, "inc.json", NODAL_INC)
    code, report = run_json(capsys, ["dualcx", inc])
    assert code == 0
    assert report["results"][0]["counts"] == {"0": 1, "1": 1}
    assert report["results"][0]["euler"] == 0


def test_trop_cell_listing(tmp_path, capsys):
    path = put(tmp_path, "nodal.json", NODAL)
    code, report = run_json(capsys, ["trop", path])
    assert code == 0
    cells = report["results"][0]["cells"]
    assert report["results"][0]["cell_count"] == 4
    assert sorted(c["dim"] for c in cells) == [0, 1, 1, 1]


# -- determinism, ordering, exit codes ---------------------------------------


def test_reports_are_deterministic(tmp_path, capsys):
    path = put(tmp_path, "nodal.json", NODAL)
    outputs = []
    for _ in range(2):
        code = cli.main(["ptrop", path, "--json", "--seed", "5"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_results_ordered_by_path(tmp_path, capsys):
    paths = [put(tmp_path, f"f{i}.json", NODAL) for i in (3, 1, 2)]
    code, report = run_json(capsys, ["trop"] + paths)
    assert code == 0
    assert [r["input"] for r in report["results"]] == sorted(paths)
    assert [i["path"] for i in report["inputs"]] == sorted(paths)


def test_exit_code_parse_failure(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{ nope", encoding="utf-8")
    assert cli.main(["trop", str(broken)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_galaxy_on_a_depth_cap_tower(tmp_path):
    lo = isqrt(2 * 10 ** 80) - 10 ** 40
    path = put(tmp_path, "gal64.json", {
        "elliptic": {"m": 3, "degrees": [2 ** i for i in range(64)]},
        "points": [f"5/{3 * 2 ** 62}", "1/5",
                   {"symbol": {"name": "sqrt2-1", "lo": f"{lo}/{10 ** 40}",
                               "hi": f"{lo + 1}/{10 ** 40}"}}]})
    res = cli.run(cli.JobConfig("galaxy", (path,)))["results"][0]
    assert res["cycle_sizes"] == [3 * 2 ** i for i in range(64)]
    opened, incomplete, closed = res["points"]
    assert (opened["kind"], opened["level"], opened["vertex"]) == \
        ("open", 62, "v5")
    assert incomplete["kind"] == "incomplete"
    assert closed["kind"] == "closed"
    assert [c["width"] for c in closed["carriers"]] == \
        [f"1/{3 * 2 ** i}" for i in range(64)]


def test_exit_code_validation_failure(tmp_path, capsys):
    path = put(tmp_path, "q.json", QUADRANT)
    assert cli.main(["refine", path]) == 2
    assert "exactly two fan files" in capsys.readouterr().err


POSITIVE_QUADRANT = {"rank": 2, "rays": [["1", "0"], ["0", "1"]],
                     "maximal_cones": [[0, 1]]}


@pytest.mark.parametrize("other, errors", [
    ({"rank": 3, "rays": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      "maximal_cones": [[0, 1, 2]]},
     ["fans live in ranks 2 and 3", "fans live in ranks 3 and 2"]),
    ({"rank": 2, "rays": [["1", "0"], ["0", "1"], ["-1", "-1"]],
      "maximal_cones": [[0, 1], [2]]},
     ["common refinement needs pure fans of equal dimension"] * 2),
    ({"rank": 2, "rays": [["-1", "0"], ["0", "-1"]],
      "maximal_cones": [[0, 1]]},
     ["fan supports have no full-dimensional overlap"] * 2),
], ids=["ranks-differ", "not-pure", "no-overlap"])
def test_refine_refusals_exit_2(tmp_path, capsys, other, errors):
    first = put(tmp_path, "a.json", POSITIVE_QUADRANT)
    second = put(tmp_path, "b.json", other)
    for argv, error in zip((["refine", first, second],
                            ["refine", second, first]), errors):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


def test_toric_fiber_base_ray_of_the_wrong_length_exits_2(tmp_path, capsys):
    path = put(tmp_path, "tf.json", {**TORIC_FIBER, "base": {"rays": [[1, 0]]}})
    assert cli.main(["toric-fiber", path]) == 2
    assert capsys.readouterr().err == \
        "error: generator (1, 0) has length 2, expected 1\n"


@pytest.mark.parametrize("command, flag", [
    ("trop", ["--seed", "1"]), ("fan-validate", ["--depth", "3"])])
def test_flags_are_registered_only_where_read(tmp_path, capsys, command,
                                              flag):
    path = put(tmp_path, "in.json", EXEMPLARS[command])
    assert cli.main([command, path]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main([command, path] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


def test_exit_code_resource_cap(tmp_path, capsys):
    path = put(tmp_path, "gal.json", {
        "elliptic": {"m": 3, "degrees": [1, 2, 4, 8]}, "points": []})
    assert cli.main(["galaxy", path, "--depth", "3"]) == 4
    assert "resource cap" in capsys.readouterr().err


def test_svg_emission_and_rank_guard(tmp_path, capsys):
    path = put(tmp_path, "q.json", QUADRANT)
    code, report = run_json(capsys, ["fan-validate", path, "--svg"])
    assert code == 0
    svg_path = report["results"][0]["svg"]
    with open(svg_path, encoding="utf-8") as fh:
        assert fh.read().startswith("<svg")
    rank3 = put(tmp_path, "r3.json", {
        "rank": 3, "rays": [["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]],
        "maximal_cones": [[0, 1, 2]]})
    assert cli.main(["fan-validate", rank3, "--svg"]) == 2


# per subcommand: argv, first input and how often each mark occurs in the
# picture (the nodal cubic's one loop edge is a side circle of radius 22)
SVG_RUNS = {
    "dualcx": (["dualcx", "in.json"], NODAL_INC,
               {'r="22"': 1, 'r="4"': 1, "<line": 0}),
    "subdivide": (["subdivide", "in.json", "--N", "2"],
                  serialize_complex(segment_complex()),
                  {'r="22"': 0, 'r="4"': 3, "<line": 2}),
    "refine": (["refine", "in.json", "b.json"], DIAMOND,
               {"<path": 8, "<line": 8}),
}


@pytest.mark.parametrize("output", [None, "out.json"], ids=["input", "output"])
@pytest.mark.parametrize("command", sorted(SVG_RUNS))
def test_svg_goes_next_to_the_one_artifact(tmp_path, capsys, monkeypatch,
                                           command, output):
    """An artifact run writes its one picture next to --output, or next to
    its first input without one."""
    argv, obj, marks = SVG_RUNS[command]
    monkeypatch.chdir(tmp_path)
    put(tmp_path, "in.json", obj)
    put(tmp_path, "b.json", QUADRANT)
    flags = ["--output", output] if output else []
    code, report = run_json(capsys, argv + ["--svg"] + flags)
    assert code == 0
    expected = "out.svg" if output else "in.svg"
    assert report["results"][0]["svg"] == expected
    assert [p.name for p in tmp_path.glob("*.svg")] == [expected]
    svg = (tmp_path / expected).read_text(encoding="utf-8")
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert {mark: svg.count(mark) for mark in marks} == marks


def test_output_writes_report_for_pure_report_commands(tmp_path, capsys):
    path = put(tmp_path, "nodal.json", NODAL)
    out = str(tmp_path / "report.json")
    code = cli.main(["trop", path, "--output", out])
    assert code == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        stored = json.load(fh)
    assert stored["command"] == "trop"
    assert stored["results"][0]["cell_count"] == 4


def test_json_output_writes_the_stdout_bytes(tmp_path, capsys,
                                             monkeypatch):
    """With --json and --output, a report is rendered once and the file
    holds exactly the bytes written to stdout."""
    path = put(tmp_path, "nodal.json", NODAL)
    out = tmp_path / "report.json"
    renders = []

    def counted(obj):
        renders.append(obj)
        return io.canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", counted)
    assert cli.main(["trop", path, "--json", "--output", str(out)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()
    assert len(renders) == 1


def test_inputs_are_hashed_before_an_artifact_overwrites_them(tmp_path,
                                                              capsys):
    path = put(tmp_path, "c.json", serialize_complex(segment_complex()))
    before = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    code, report = run_json(capsys, ["subdivide", path, "--N", "2",
                                     "--output", path])
    assert code == 0
    assert report["inputs"] == [{"path": path, "sha256": before}]
    assert hashlib.sha256(Path(path).read_bytes()).hexdigest() != before


@pytest.mark.parametrize("argv", [["trop", "{missing}"],
                                  ["refine", "{present}", "{missing}"]])
def test_a_missing_input_is_a_parse_error(tmp_path, capsys, argv):
    paths = {"missing": str(tmp_path / "missing.json"),
             "present": put(tmp_path, "q.json", QUADRANT)}
    assert cli.main([a.format(**paths) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and paths["missing"] in err


def test_the_library_reader_refuses_a_missing_file(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ParseError, match="No such file") as info:
        io.parse_fan(missing)
    assert str(info.value).startswith(f"{missing}: ")


def test_cone_serialization_helpers():
    cone = cone_from_generators([(1, 0), (1, 2)], n=2)
    assert io.cone_to_json(cone) == {"rays": [["1", "0"], ["1", "2"]]}
    fan = fan_from_cones([cone])
    blob = io.serialize_fan(fan)
    assert blob["rank"] == 2 and blob["maximal_cones"] == [[0, 1]]


# -- inputs rejected with a documented exit code -----------------------------


@pytest.mark.parametrize("spec", [
    {"elliptic": {"m": 3, "degrees": "124"}},
    {"elliptic": {"m": 3, "degrees": 4}},
    {"elliptic": {"m": 3, "degrees": [1, 2]}, "points": 7},
], ids=["degrees-string", "degrees-int", "points-int"])
def test_galaxy_malformed_elliptic_is_parse_error(tmp_path, capsys, spec):
    path = put(tmp_path, "gal.json", spec)
    assert cli.main(["galaxy", path]) == 3
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dualcx", "subdivide"])
def test_output_with_several_inputs_is_rejected(tmp_path, capsys, command):
    obj = NODAL_INC if command == "dualcx" else {"elliptic": {"m": 3}}
    paths = [put(tmp_path, f"in{i}.json", obj) for i in (1, 2)]
    out = tmp_path / "out.json"
    assert cli.main([command] + paths + ["--output", str(out)]) == 2
    assert "--output" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e3", " 0.5 ", "-1_000", "1e400", "1/0"])
def test_rationals_outside_the_schema_are_parse_errors(tmp_path, capsys,
                                                        value):
    path = put(tmp_path, "f.json", {"vars": 1, "terms": [
        {"exp": [1], "val": value}, {"exp": [2], "val": "0"}]})
    assert cli.main(["trop", path]) == 3
    assert "bad rational" in capsys.readouterr().err


@pytest.mark.parametrize("rays, error", [
    ([["1", "0"], ["-1", "0"], ["0", "1"]], "span the line"),
    ([["0", "0"], ["0", "1"]], "zero generator"),
], ids=["half-plane", "zero-ray"])
def test_fan_files_keep_lineality_and_rays(tmp_path, capsys, rays, error):
    path = put(tmp_path, "f.json", {"rank": 2, "rays": rays,
                                    "maximal_cones": [list(range(len(rays)))]})
    assert cli.main(["fan-validate", path]) == 2
    assert error in capsys.readouterr().err
    tf = put(tmp_path, "tf.json", {
        "matrix": [[1, 0], [0, 1]], "source": QUADRANT, "target": QUADRANT,
        "base": {"rays": [[int(a) for a in r] for r in rays]}})
    assert cli.main(["toric-fiber", tf]) == 2
    assert error in capsys.readouterr().err


STELLAR = {"kind": "stellar-at-barycenters"}


@pytest.mark.parametrize("spec", [
    {"strategy": STELLAR, "direction": 5},
    {"strategy": {"kind": "toward-direction", "direction": 5}},
    {"strategy": STELLAR,
     "direction": {"entries": ["2", "3"], "symbols": 5}},
], ids=["direction-int", "strategy-direction-int", "symbols-int"])
def test_limit_point_non_object_direction_is_parse_error(tmp_path, capsys,
                                                         spec):
    path = put(tmp_path, "lp.json", {"base_fan": QUADRANT, "steps": 2, **spec})
    assert cli.main(["limit-point", path]) == 3
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("points", 7),
    ("points", {"cell": "pt", "coords": ["1"]}),
    ("coords", 1),
    ("coords", "1"),
], ids=["points-int", "points-object", "coords-int", "coords-string"])
def test_map_fibers_non_list_points_are_parse_errors(tmp_path, capsys,
                                                     field, value):
    point = {"cell": "pt", "coords": value if field == "coords" else ["1"]}
    pt = serialize_complex(make_complex([("pt", [])]))
    path = put(tmp_path, "mf.json", {
        "source": pt, "target": pt, "vertex_map": {"pt": "pt"},
        "points": value if field == "points" else [point]})
    assert cli.main(["map-fibers", path]) == 3
    assert "expected a list" in capsys.readouterr().err


SEGMENT = serialize_complex(segment_complex())
SEGMENT_MAP = {"source": SEGMENT, "target": SEGMENT,
               "vertex_map": {"z0": "z0", "z1": "z1"},
               "points": [{"cell": "e", "coords": ["1/2", "1/2"]}]}
SYMBOL = {"name": "s", "lo": "1/3", "hi": "1/2"}
EMPTY_SYMBOL = {"name": "s", "lo": "1/2", "hi": "1/3"}
# a box of width 0 holds the rational 1 and no irrational
POINT_SYMBOL = {"name": "s", "lo": "1", "hi": "1"}
UPPER_HALF = {"rank": 2, "rays": [["1", "0"], ["0", "1"], ["-1", "0"]],
              "maximal_cones": [[0, 1], [1, 2]]}
STELLAR_TOWER = {"base_fan": QUADRANT, "strategy": STELLAR,
                 "direction": {"entries": ["2", "3"]}}
FIRST_QUADRANT = {"rank": 2, "rays": [["1", "0"], ["0", "1"]],
                  "maximal_cones": [[0, 1]]}
# a point onto a vertex named "1": a vertex image 1 must not read as "1"
POINT_MAP = {"source": {"cells": [{"name": "p", "faces": []}]},
             "target": {"cells": [{"name": "1", "faces": []}]},
             "vertex_map": {"p": "1"},
             "points": [{"cell": "1", "coords": ["1"]}]}


@pytest.mark.parametrize("command, obj, flags, code, error", [
    ("map-fibers", {**SEGMENT_MAP, "reference": 5}, [], 3,
     "reference: expected an object"),
    ("map-fibers", {**SEGMENT_MAP, "cell_images": {"e": ["e", 5]}}, [], 3,
     "cell_images['e'][1]: expected a list"),
    ("galaxy", {"elliptic": {"m": 3, "degrees": [1, 2]},
                "points": [{"symbol": EMPTY_SYMBOL}]}, [], 3,
     "points[0].symbol: lo 1/2 exceeds hi 1/3"),
    ("fiber-rank", {"symbols": [EMPTY_SYMBOL], "entries": [["0", "1"]]}, [],
     3, "symbols[0]: lo 1/2 exceeds hi 1/3"),
    ("limit-point", {"base_fan": QUADRANT, "direction": {
        "symbols": [EMPTY_SYMBOL], "entries": [["0", "1"], ["1", "0"]]}},
     [], 3, "direction.symbols[0]: lo 1/2 exceeds hi 1/3"),
    ("fan-validate", {"rank": -1, "rays": [], "maximal_cones": [[]]}, [], 3,
     "rank: expected an integer >= 0"),
    ("trop", {"vars": 2, "terms": [{"exp": [1, -1], "val": "0"}]}, [], 3,
     "terms[0].exp[1]: expected an integer >= 0"),
    ("trop", {"vars": 2, "terms": []}, [], 3,
     "terms: expected at least one term"),
    ("limit-point", {"base_fan": UPPER_HALF,
                     "direction": {"entries": ["0", "-1"]}}, [], 2,
     "outside the level-0 support"),
    ("limit-point", {"base_fan": UPPER_HALF, "steps": 1, "strategy": {
        "kind": "toward-direction", "direction": {"entries": ["0", "-1"]}}},
     [], 2, "target direction lies outside the fan support"),
    ("limit-point", {**STELLAR_TOWER, "steps": "3"}, ["--depth", "2"], 4,
     "3 refinement steps exceed --depth 2"),
    ("limit-point", {**STELLAR_TOWER, "steps": True}, ["--depth", "1"], 3,
     "steps: expected an integer, got True"),
    ("limit-point", {**STELLAR_TOWER, "steps": -1}, [], 3,
     "steps: expected an integer >= 0"),
    ("limit-point", {**STELLAR_TOWER, "steps": " 1_0 "},
     ["--depth", "2"], 3, "steps: expected an integer, got ' 1_0 '"),
    ("dualcx", {**NODAL_INC, "closures": [["p", "D"]]}, [], 2,
     "names an unknown stratum"),
    ("map-fibers", {**SEGMENT_MAP, "cell_images": {"e": ["f", [0, 1]]}}, [],
     2, "no cell named 'f'"),
    ("fan-validate", {"rank": 2, "rays": [["1", "0"], ["1"]],
                      "maximal_cones": [[0, 1]]}, [], 3,
     "rays[1]: length 1 does not match rank 2"),
    ("dualcx", {**NODAL_INC, "closures": [["p"]]}, [], 3,
     "closures[0]: expected a [lower, upper] pair"),
    ("limit-point", {"base_fan": QUADRANT, "strategy": STELLAR, "steps": 1},
     [], 3, "missing field 'direction'"),
    ("trop", [NODAL], [], 3, "top level must be a JSON object"),
    ("limit-point", {**STELLAR_TOWER, "steps": 1, "strategy": {
        "kind": "common-refine-with", "fan": FIRST_QUADRANT}}, [], 2,
     "common-refine-with fan does not cover the support"),
    ("dualcx", {**NODAL_INC, "strata": [
        {"name": ["C", 0], "codim": 0, "branches": 1}], "closures": []}, [],
     3, "strata[0].name: expected a string, got ['C', 0]"),
    ("dualcx", {**NODAL_INC, "closures": [["p", None]]}, [], 3,
     "closures[0][1]: expected a string, got None"),
    ("subdivide", {"cells": [{"name": None, "faces": []}]}, [], 3,
     "cells[0].name: expected a string, got None"),
    ("subdivide", {"cells": [{"name": "z0", "faces": []},
                             {"name": "e", "faces": ["z0", 0]}]}, [], 3,
     "cells[1].faces[1]: expected a string, got 0"),
    ("map-fibers", {**POINT_MAP, "vertex_map": {"p": 1}}, [], 3,
     "vertex_map['p']: expected a string, got 1"),
    ("map-fibers", {**SEGMENT_MAP, "cell_images": {"e": [True, [0, 1]]}},
     [], 3, "cell_images['e'][0]: expected a string, got True"),
    ("map-fibers", {**POINT_MAP, "points": [{"cell": 1, "coords": ["1"]}]},
     [], 3, "points[0].cell: expected a string, got 1"),
    ("fiber-rank", {"symbols": [{**SYMBOL, "name": 2}], "entries": ["1"]},
     [], 3, "symbols[0].name: expected a string, got 2"),
    ("map-fibers", {**SEGMENT_MAP, "cell_images": {"f": ["e", [0, 1]]}}, [],
     2, "cell_images['f'] names no source cell"),
    ("dualcx", {**NODAL_INC, "mode": 5}, [], 3,
     "mode: expected 'analytic' or 'algebraic', got 5"),
    ("dualcx", {**NODAL_INC, "mode": ["analytic"]}, [], 3,
     "mode: expected 'analytic' or 'algebraic', got ['analytic']"),
    ("dualcx", {**NODAL_INC, "mode": "tropical"}, [], 3,
     "mode: expected 'analytic' or 'algebraic', got 'tropical'"),
    ("dualcx", {**NODAL_INC, "strata": [], "closures": []}, [], 2,
     "a complex needs at least one cell"),
    ("fiber-rank", {"entries": ["1", "2", "3", "4", "5"]}, [], 4,
     "resource cap: ambient rank 5 exceeds the exact-arithmetic cap 4"),
    ("fiber-rank", {"symbols": [SYMBOL], "entries": ["1", ["0", "1", "2"]]},
     [], 3, "entries[1]: expected one coefficient for each of (1, s), got 3"),
    ("fiber-rank", {"symbols": [SYMBOL, SYMBOL],
                    "entries": ["1", ["0", "1", "-1"]]},
     [], 3, "symbols[1].name: repeats the name 's' of symbols[0]"),
    # more digits than sys.int_max_str_digits (4,300): int() raises
    # ValueError, which parse_int reports as a schema error
    ("trop", {**NODAL, "vars": "9" * 5000}, [], 3,
     "vars: expected an integer, got '" + "9" * 5000 + "'"),
    ("ptrop", NODAL, ["--seed", "-1"], 2,
     "error: seed must be a nonnegative integer"),
    # bytes are written as they are: files that no JSON encoder writes
    ("trop", b'\xff\xfe{"vars": 2}', [], 3, "in.json: byte 0: not UTF-8 text"),
    ("trop", b"[" * 100000, [], 3, "in.json: nested too deeply to parse"),
    # (1, s - 1) would read as rank 2, though s = 1 makes it (1, 0)
    ("fiber-rank", {"symbols": [POINT_SYMBOL], "entries": ["1", ["-1", "1"]]},
     [], 3, "symbols[0]: lo equals hi 1, a rational, so the box holds no "
     "irrational"),
    ("galaxy", {"elliptic": {"m": 3, "degrees": [1, 2]},
                "points": [{"symbol": POINT_SYMBOL}]}, [], 3,
     "points[0].symbol: lo equals hi 1, a rational"),
    ("limit-point", {"base_fan": QUADRANT, "direction": {
        "symbols": [POINT_SYMBOL], "entries": [["0", "1"], ["1", "0"]]}},
     [], 3, "direction.symbols[0]: lo equals hi 1, a rational"),
    # a node's upper strata have lower codimension, so they are components:
    # the order check refuses a node-to-node link before from_incidence can
    ("dualcx", {**NODAL_INC, "strata": NODAL_INC["strata"] + [
        {"name": "q", "codim": 1, "branches": 2}],
        "closures": [["p", "C"], ["p", "q"]]}, [], 2,
     "closure pair ('p', 'q') must strictly increase codimension: 1 vs 1"),
    ("subdivide", serialize_complex(tetrahedron_solid()), ["--svg"], 2,
     "svg rendering covers complexes of dimension <= 2, got 3"),
], ids=["map-reference-int", "map-phi-int", "galaxy-empty-symbol",
        "fiber-rank-empty-symbol", "limit-point-empty-symbol",
        "fan-negative-rank", "negative-exponent", "no-terms",
        "direction-outside-support", "strategy-outside-support",
        "steps-string-over-depth", "steps-bool",
        "steps-negative", "steps-spaces-underscore",
        "closure-unknown-stratum", "phi-unknown-cell", "ray-length",
        "closure-not-a-pair", "no-direction", "top-level-list",
        "refine-with-a-smaller-support", "stratum-name-list",
        "closure-name-null", "cell-name-null", "face-name-int",
        "vertex-image-int", "phi-cell-bool", "point-cell-int",
        "symbol-name-int", "phi-unknown-source-cell", "mode-int",
        "mode-list", "mode-unknown", "no-strata", "fiber-rank-over-cap",
        "coefficient-list-length", "symbol-name-repeated",
        "integer-past-digit-limit", "seed-negative", "not-utf-8",
        "nested-too-deeply", "fiber-rank-zero-width-symbol",
        "galaxy-zero-width-symbol", "limit-point-zero-width-symbol",
        "node-linked-to-a-node", "svg-of-a-tetrahedron"])
def test_malformed_inputs_exit_with_a_documented_code(
        tmp_path, capsys, command, obj, flags, code, error):
    if isinstance(obj, bytes):
        path = str(tmp_path / "in.json")
        (tmp_path / "in.json").write_bytes(obj)
    else:
        path = put(tmp_path, "in.json", obj)
    assert cli.main([command, path] + flags) == code
    assert error in capsys.readouterr().err


# one valid input per subcommand; refine takes QUADRANT as its second fan
EXEMPLARS = {
    "trop": {"vars": 2, "terms": [{"exp": [1, 1], "val": "0"},
                                  {"exp": [3, 0], "val": "1/2"}]},
    "ptrop": {"vars": 1, "terms": [{"exp": [1], "val": "0"},
                                   {"exp": [2], "val": "1"}]},
    "fan-validate": QUADRANT,
    "refine": QUADRANT,
    "limit-point": {"base_fan": QUADRANT, "steps": 1, "strategy": {
        "kind": "toward-direction", "direction": {
            "symbols": [SYMBOL], "entries": [["1", "0"], ["0", "1"]]}}},
    "fiber-rank": {"symbols": [SYMBOL], "entries": ["1", ["0", "1"]]},
    "dualcx": NODAL_INC,
    "subdivide": SEGMENT,
    "rational-points": {"elliptic": {"m": 3}},
    "map-fibers": {**SEGMENT_MAP, "cell_images": {"e": ["e", [0, 1]]},
                   "reference": SEGMENT},
    "toric-fiber": TORIC_FIBER,
    "galaxy": {"elliptic": {"m": 3, "degrees": [1, 2]},
               "points": ["1/6", {"symbol": SYMBOL}]},
}


def _field_paths(obj, prefix=()):
    """Key paths of every object field at any depth, including the fields
    of objects inside lists."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        if isinstance(obj, dict):
            yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _replaced(obj, path, value):
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("command", sorted(EXEMPLARS))
def test_schema_mutations_exit_with_a_documented_code(tmp_path, capsys,
                                                      command):
    """Each field of a valid input, replaced in turn by each JSON kind,
    fails with exit 2, 3 or 4 (or still runs) and never raises."""
    exemplar = EXEMPLARS[command]
    path = str(tmp_path / "in.json")
    argv = [command, path] + ([put(tmp_path, "b.json", QUADRANT)]
                              if command == "refine" else [])
    put(tmp_path, "in.json", exemplar)
    assert cli.main(argv) == 0
    for field in _field_paths(exemplar):
        for value in (None, True, -1, "x", [], {}):
            put(tmp_path, "in.json", _replaced(exemplar, field, value))
            assert cli.main(argv) in (0, 2, 3, 4), (field, value)
    capsys.readouterr()


def _deleted(obj, path):
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return out


# per subcommand: the SHA-256 of the exit code and stderr of every run of
# test_schema_mutation_errors_are_frozen, frozen before io read every field
# through one helper; fiber-rank, limit-point and map-fibers re-frozen when a
# coefficient list of the wrong length became a parse error and the
# unknown-cell message of map-fibers lost its quotes
SCHEMA_MUTATION_DIGESTS = {
    "dualcx":
        "c9b4f2accadd5e26775a8907a512e0d455934fe8fcd2682b5bb662309ef91168",
    "fan-validate":
        "cd3428322b0ec060ce1633d4930a27fadc50ecd1f02fddc696451b338f7a4c05",
    "fiber-rank":
        "083c7f5d99f9b7013d6ddcaa63852e8a26d3b114ad01902479649192f7580555",
    "galaxy":
        "331f67bbc17a167f75dfb312deb0073ff2896185f76acc733a4c3a5b34c8d7a8",
    "limit-point":
        "16c588e840871e3a3e7e0cd908e33986689408f5cf50f539510c8bf2c7c9ff6b",
    "map-fibers":
        "b931c3e793844c715109af87407c5deff9820ab95b98378bc401a83ac48f6b27",
    "ptrop":
        "a7bff666080d4818d5e794886bc563f1c598ad548b05f0ca8632f9ec243f1948",
    "rational-points":
        "d688beae5091ef369f7ab2d88e969c56c0b4e670071b07a9d0a3be6e470d4b39",
    "refine":
        "04e1de020056c32348967e4a401a7845e3f8460028c191636c97ad48a3bbd56f",
    "subdivide":
        "6402c4bf3882ffd4dfa68a1cb3ee7ca7dcf134865f263d15fbd8708092c51dbf",
    "toric-fiber":
        "9333368b2c4457590f932055e4cecb86d44c8d93288086068143c0fc7091c2c0",
    "trop":
        "e30af4adbfd3d63c05ad5a3f99af2f91683550807b1388e66660dc8f687d3106",
}


@pytest.mark.parametrize("command", sorted(EXEMPLARS))
def test_schema_mutation_errors_are_frozen(tmp_path, capsys, monkeypatch,
                                           command):
    """Each field of a valid input deleted, and replaced in turn by each
    JSON kind: the exit code and the error message of every run."""
    exemplar = EXEMPLARS[command]
    argv = _exemplar_argv(tmp_path, monkeypatch, command, exemplar)
    log = hashlib.sha256()
    for field in _field_paths(exemplar):
        for obj in [_deleted(exemplar, field)] + [
                _replaced(exemplar, field, value)
                for value in (None, True, -1, "x", [], {})]:
            put(tmp_path, "in.json", obj)
            code = cli.main(argv)
            log.update(f"{field} {code} {capsys.readouterr().err}\n".encode())
    assert log.hexdigest() == SCHEMA_MUTATION_DIGESTS[command]


# -- the CLI surface, frozen -------------------------------------------------


def _exemplar_argv(tmp_path, monkeypatch, command, obj):
    """argv of one run on `obj` written to in.json, from inside tmp_path so
    that the report names a relative path."""
    monkeypatch.chdir(tmp_path)
    put(tmp_path, "in.json", obj)
    put(tmp_path, "b.json", QUADRANT)
    return [command, "in.json"] + (["b.json"] if command == "refine" else [])


# per subcommand: the text summary of its exemplar and the SHA-256 of its
# --json report
EXEMPLAR_OUTPUTS = {
    "dualcx": (
        "command: dualcx  seed: 0\n"
        "input: in.json  sha256: 5ef517bee899\n"
        "in.json: cells 0:1 1:1, euler 0\n",
        "66efbd915e140248a236d2338e19ed6b6f32c37465c71bfb73eab4799eca2b69"),
    "fan-validate": (
        "command: fan-validate  seed: 0\n"
        "input: in.json  sha256: 60c4bf214796\n"
        "in.json: 4 maximal cones, valid complete\n",
        "bd6a29aa074736d557821724ea5dc329497ac107076b3e0a1b5dbb495acd873e"),
    "fiber-rank": (
        "command: fiber-rank  seed: 0\n"
        "input: in.json  sha256: 6ea36c3b466f\n"
        "in.json: rank 2, fiber dim 0, det +1\n",
        "57820474cb3034c2ec3fa31eb3c5393e92e7ca076e91d02c88bb2220e6934bb1"),
    "galaxy": (
        "command: galaxy  seed: 0\n"
        "input: in.json  sha256: ac326ea2126c\n"
        "in.json: 1/6:open s:undecidable\n",
        "8b8f285698f4cb780d7ec8d0a352c0e99928f35c091940fa95fb339aa46fde42"),
    "limit-point": (
        "command: limit-point  seed: 0\n"
        "input: in.json  sha256: a00555397346\n"
        "in.json: unresolved cone after depth 2\n",
        "c98c1e97a7114f223302f7865970253251b03606efbd2dd6397a25e7803ed005"),
    "map-fibers": (
        "command: map-fibers  seed: 0\n"
        "input: in.json  sha256: 7877b039719f\n"
        "in.json: (e) chi=1, match\n",
        "9939398c84ec8e2af69fa7bba443cb057f8d6617bfc5705d01a4d610a0dff514"),
    "ptrop": (
        "command: ptrop  seed: 0\n"
        "input: in.json  sha256: 145daf081e25\n"
        "in.json: points (none), routes agree\n",
        "1f67a2690a810059986600510ef39a5bc570e39b7b1922df5aaa149234da1191"),
    "rational-points": (
        "command: rational-points  seed: 0\n"
        "input: in.json  sha256: e2e131d44d3c\n"
        "in.json: 3 rational points at level 1\n",
        "9e67dfa0243628b42ff55b645a75dc77c93370e9b27c0c6b00c936bbd3a91202"),
    "refine": (
        "command: refine  seed: 0\n"
        "input: in.json  sha256: 60c4bf214796\n"
        "input: b.json  sha256: 60c4bf214796\n"
        "in.json + b.json: 4 maximal cones\n",
        "2b18847dbf9fc5c67dfe27dba4a13a28bcac3678655cefeaa8e753c410efacd5"),
    "subdivide": (
        "command: subdivide  seed: 0\n"
        "input: in.json  sha256: 7f05e69762df\n"
        "in.json: cells 0:2 1:1, euler 1\n",
        "f6be5ae4830dbf76cf3addaccf135127ccaf48a4b929c44a725a80c7ab7536bb"),
    "toric-fiber": (
        "command: toric-fiber  seed: 0\n"
        "input: in.json  sha256: 0db5801403f0\n"
        "in.json: cells 0:3 1:2, euler 1\n",
        "43b0d475ec2656948ed2cca27964db5134c84de5774fb0412c39af041b9ca72c"),
    "trop": (
        "command: trop  seed: 0\n"
        "input: in.json  sha256: d4dd419f2f8f\n"
        "in.json: 1 cells, degree 3\n",
        "9cb8a680ae7b54b90b5d4d3ee8d4253411e849e0654f896300d44475866bc3ac"),
}


@pytest.mark.parametrize("command", sorted(EXEMPLARS))
def test_exemplar_outputs_are_frozen(tmp_path, capsys, monkeypatch, command):
    """Text summary, --json report, empty stderr and exit 0 of each
    subcommand's exemplar, frozen before the subcommands were declared in
    one table."""
    text, digest = EXEMPLAR_OUTPUTS[command]
    argv = _exemplar_argv(tmp_path, monkeypatch, command, EXEMPLARS[command])
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (text, "")
    assert cli.main(argv + ["--json"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest and err == ""


# -- reports read back to exact values --------------------------------------


def exact(text):
    """A report's rational, which must be the "k" or "p/q" text that `str`
    writes for it: no float and no other spelling reads back."""
    assert isinstance(text, str), text
    value = F(text)
    assert str(value) == text, text
    return value


def read_rational_points(result):
    """The (cell, coordinates) pairs of a rational-points result."""
    assert result["count"] == len(result["points"])
    return tuple((p["cell"], tuple(map(exact, p["coords"])))
                 for p in result["points"])


def read_map_fibers(result):
    """Each point of a map-fibers result as (cell, coordinates, f-vector,
    Euler characteristic, emptiness, match), and the reference's Euler
    characteristic with the mismatch flag; each absent field reads None."""
    points = [(p["cell"], tuple(map(exact, p["coords"])),
               tuple(p["f_vector"]), p["euler"], p["empty"], p.get("match"))
              for p in result["points"]]
    return points, result.get("reference_euler"), result.get("mismatch")


def read_galaxy(result):
    """Each outcome of a galaxy result as (point as written, outcome): an
    open point's (label, level, vertex), a closed point's carriers as
    (level, cell, (lo, hi)) with each width checked against its interval,
    or a refusal's (kind, message)."""
    outcomes = []
    for p in result["points"]:
        if p["kind"] == "open":
            outcome = (exact(p["label"]), p["level"], p["vertex"])
        elif p["kind"] == "closed":
            outcome = []
            for c in p["carriers"]:
                lo, hi = map(exact, c["interval"])
                assert exact(c["width"]) == hi - lo > 0
                outcome.append((c["level"], c["cell"], (lo, hi)))
        else:
            outcome = (p["kind"], p["error"])
        outcomes.append((p["point"], outcome))
    return outcomes


@pytest.mark.parametrize("name", ["exemplar", *sorted(SUBDIVIDE_SHAPES)])
def test_rational_points_reports_read_back_to_the_library_points(
        tmp_path, capsys, name):
    """Every coordinate of a rational-points report reads back to the exact
    value `rational_points` gives, in the same order."""
    if name == "exemplar":
        obj = EXEMPLARS["rational-points"]
        x = Circle(obj["elliptic"]["m"]).complex
    else:
        x = SUBDIVIDE_SHAPES[name]()
        obj = serialize_complex(x)
    path = put(tmp_path, "x.json", obj)
    for level in (1, 2, 3, 5):
        code, report = run_json(capsys, ["rational-points", "--level",
                                         str(level), path])
        assert code == 0
        assert read_rational_points(report["results"][0]) == \
            rational_points(x, level)


@pytest.mark.parametrize("name", ["exemplar", *MAP_DATASETS])
def test_map_fibers_reports_read_back_to_the_library_fibers(tmp_path, capsys,
                                                            name):
    """Every point of a map-fibers report reads back to the exact
    coordinates of its input and to what `map_fiber` gives there."""
    obj = EXEMPLARS["map-fibers"] if name == "exemplar" else \
        MAP_DATASETS[name]
    path = put(tmp_path, "m.json", obj)
    code, report = run_json(capsys, ["map-fibers", path])
    assert code == 0
    mapping, reference, _ = io.parse_map_fibers(path)
    euler = None if reference is None else euler_characteristic(reference)
    expected = []
    for p in obj["points"]:
        coords = tuple(map(F, p["coords"]))
        fiber = map_fiber(mapping, p["cell"], coords)
        expected.append((p["cell"], coords, fiber.f_vector, fiber.euler,
                         fiber.is_empty,
                         None if euler is None else fiber.euler == euler))
    mismatch = None if euler is None else any(not e[-1] for e in expected)
    assert read_map_fibers(report["results"][0]) == \
        (expected, euler, mismatch)


def _fractional_symbol(name, lo):
    """A symbol boxed in [lo, lo + 10^-6], lo given in millionths."""
    return {"symbol": {"name": name, "lo": f"{lo}/1000000",
                       "hi": f"{lo + 1}/1000000"}}


GALAXY_FILES = {
    "exemplar": EXEMPLARS["galaxy"],
    "angles": {"elliptic": {"m": 3, "degrees": [1, 2, 4, 8, 16]},
               "points": ["1/6", "0", "1", "5/12", "7/48", "2/3", "1/5",
                          _fractional_symbol("sqrt2-1", 414213),
                          {"symbol": {"name": "wide", "lo": "33/100",
                                      "hi": "34/100"}}]},
    "deep": {"elliptic": {"m": 5, "degrees": [1, 3, 6, 42]},
             "points": ["3/10", "11/210", "1/4", {"symbol": SYMBOL},
                        _fractional_symbol("sqrt3-1", 732050),
                        _fractional_symbol("sqrt7-2", 645751)]},
}


def galaxy_outcome(tower, point):
    """What `classify_point` gives at a point, in `read_galaxy`'s form."""
    try:
        res = classify_point(tower, point)
    except (IncompleteTower, UndecidableSign) as exc:
        kind = "incomplete" if isinstance(exc, IncompleteTower) else \
            "undecidable"
        return kind, str(exc)
    if isinstance(res, OpenPoint):
        return res.label, res.level, res.vertex
    return [(e.level, e.cell, e.interval) for e in res.carriers]


@pytest.mark.parametrize("name", sorted(GALAXY_FILES))
def test_galaxy_reports_read_back_to_the_library_outcomes(tmp_path, capsys,
                                                          name):
    """Every outcome of a galaxy report reads back to what `classify_point`
    gives: an open point's label, level and vertex, a closed point's
    carrier levels, cells, intervals and widths, a refusal's message."""
    path = put(tmp_path, "g.json", GALAXY_FILES[name])
    code, report = run_json(capsys, ["galaxy", path])
    assert code == 0
    tower, points = io.parse_galaxy(path)
    read = read_galaxy(report["results"][0])
    for point, (text, outcome) in zip(points, read, strict=True):
        if isinstance(point, F):
            assert exact(text) == point
        else:
            assert text == point.name
        assert outcome == galaxy_outcome(tower, point)


def exact_rows(rows):
    """Rows of a report's rationals, each read by `exact`."""
    return tuple(tuple(map(exact, r)) for r in rows)


def read_fan_validate(result):
    """A fan-validate result as (rank, cone count, valid, complete,
    violations, rays); the rays read None for an invalid fan."""
    rays = result.get("rays")
    assert (rays is None) != result["valid"]
    return (result["rank"], result["maximal_cones"], result["valid"],
            result["complete"], tuple(result["violations"]),
            None if rays is None else exact_rows(rays))


@pytest.mark.parametrize("name", ["exemplar", *sorted(FAN_FILES)])
def test_fan_validate_reports_read_back_to_the_library_report(tmp_path,
                                                              capsys, name):
    """A fan-validate report reads back to what `validate_fan` gives on the
    file's cones, and a valid fan's rays to those of the fan they make."""
    obj = EXEMPLARS["fan-validate"] if name == "exemplar" else FAN_FILES[name]
    path = put(tmp_path, "f.json", obj)
    code, report = run_json(capsys, ["fan-validate", path])
    assert code == 0
    rank, cones = io.parse_fan_cones(path)
    got = validate_fan(cones)
    rays = fans._trusted_fan(cones).rays if got.valid else None
    assert read_fan_validate(report["results"][0]) == \
        (rank, len(cones), got.valid, got.complete, got.violations, rays)


FIBER_VECTORS = {
    "exemplar": EXEMPLARS["fiber-rank"],
    "sqrt2": {"symbols": [_sqrt_symbol(2)],
              "entries": [["1", "0"], ["0", "1"]]},
    "rational": {"entries": ["1", "1"]},
    "rank3": {"symbols": [_sqrt_symbol(2), _sqrt_symbol(3)],
              "entries": [["0", "1", "0"], "1", ["0", "0", "1"]]},
}


def read_fiber_rank(result):
    """A fiber-rank result as (n, symbol names, rank, fiber dimension,
    basis change, its determinant)."""
    return (result["n"], tuple(result["symbols"]), result["rank"],
            result["fiber_dim"], tuple(map(tuple, result["basis_change"])),
            result["det"])


@pytest.mark.parametrize("name", sorted(FIBER_VECTORS))
def test_fiber_rank_reports_read_back_to_the_library_model(tmp_path, capsys,
                                                           name):
    """A fiber-rank report reads back to what `fiber_model` gives, with the
    determinant of its basis change, a permutation matrix, as the sign of
    that permutation."""
    path = put(tmp_path, "x.json", FIBER_VECTORS[name])
    code, report = run_json(capsys, ["fiber-rank", path])
    assert code == 0
    x = io.parse_symbolic_vector(path)
    model = fiber_model(x)
    order = [row.index(1) for row in model.basis_change]
    inversions = sum(a > b for a, b in itertools.combinations(order, 2))
    assert read_fiber_rank(report["results"][0]) == (
        x.n, tuple(s.name for s in x.symbols), model.rank, model.dim,
        model.basis_change, (-1) ** inversions)


def read_cone(obj):
    """A report's cone as (rays, lines); a cone with no lines has no
    "lines" key."""
    assert set(obj) <= {"rays", "lines"} and obj.get("lines") != []
    return exact_rows(obj["rays"]), exact_rows(obj.get("lines", []))


def read_limit_point(result):
    """A limit-point result as (depth, carrier dimensions, ray, cone): the
    ray None when unresolved, and the cone None when resolved."""
    cone = result.get("cone")
    assert ("ray" in result) == result["resolved"] == (cone is None)
    return (result["depth"], tuple(result["carrier_dims"]),
            tuple(map(exact, result["ray"])) if result["resolved"] else None,
            None if cone is None else read_cone(cone))


def limit_point_outcome(base, strategy, steps, x):
    """What `chain_toward` and `resolve_direction` give on a tower file's
    values, in `read_limit_point`'s form."""
    tower = extend_tower(fan_tower(base), strategy, steps)
    chain = chain_toward(tower, x)
    res = resolve_direction(chain)
    resolved = isinstance(res, ResolvedRay)
    return (tower.depth, tuple(c.dim for c in chain.cones),
            res.ray if resolved else None,
            None if resolved else (res.cone.rays, res.cone.lines))


LIMIT_POINT_FILES = {
    "exemplar": EXEMPLARS["limit-point"],
    **SYMBOLIC_TOWERS,
    "rational": {"base_fan": QUADRANT, "strategy": TOWARD_23, "steps": 6},
    "stellar": {"base_fan": QUADRANT, "steps": 1,
                "strategy": {"kind": "stellar-at-barycenters"},
                "direction": {"entries": ["2", "3"]}},
}


@pytest.mark.parametrize("name", sorted(LIMIT_POINT_FILES))
def test_limit_point_reports_read_back_to_the_library_chain(tmp_path, capsys,
                                                            name):
    """A limit-point report reads back to the tower depth, the carrier
    dimension of every level and the resolved ray or remaining cone that
    `chain_toward` and `resolve_direction` give."""
    path = put(tmp_path, "t.json", LIMIT_POINT_FILES[name])
    code, report = run_json(capsys, ["limit-point", path])
    assert code == 0
    assert read_limit_point(report["results"][0]) == \
        limit_point_outcome(*io.parse_limit_point(path))


def test_a_limit_point_cone_with_lines_reads_back_with_them(tmp_path, capsys,
                                                            monkeypatch):
    """No tower file reaches a cone with lines, since a fan file's cones are
    strongly convex, so a patched reader hands the handler the quadrant fan
    times the line through e_3: the remaining cone keeps that line."""
    quadrants = io.parse_fan(put(tmp_path, "q.json", QUADRANT))
    base = fan_from_cones([make_cone([r + (0,) for r in c.rays],
                                     lines=[(0, 0, 1)])
                           for c in quadrants.maximal])
    x = rational_vector((2, 3, 0))
    values = (base, StellarAtBarycenters(), 2, x)
    monkeypatch.setattr(cli, "parse_limit_point", lambda path: values)
    path = put(tmp_path, "t.json", {})
    code, report = run_json(capsys, ["limit-point", path])
    assert code == 0
    got = read_limit_point(report["results"][0])
    assert got == limit_point_outcome(*values)
    assert got[3][1] == ((0, 0, 1),)


PTROP_FILES = {"exemplar": EXEMPLARS["ptrop"], "nodal": NODAL,
               **{f"germ-{i}": poly_json(t) for i, t in enumerate(TROP_GERMS)}}


def read_ptrop(result):
    """A ptrop result as (vars, points, cones, finiteness, route agreement,
    oracle clusters as (direction, size, distance)), the clusters None
    when the oracle does not run."""
    clusters = result["oracle_clusters"]
    return (result["vars"], exact_rows(result["points"]),
            tuple(map(read_cone, result["cones"])), result["is_finite"],
            result["routes_agree"], None if clusters is None else tuple(
                (tuple(c["direction"]), c["size"], c["distance_to_exact"])
                for c in clusters))


def ptrop_outcome(f, seed):
    """What the two exact routes and the oracle give on a germ, in
    `read_ptrop`'s form, the oracle's floats rounded to 9 digits."""
    found = ptrop_normal_fan(f)
    clusters = None
    if f.n in (2, 3):
        oracle = sampling.ptrop_sample_oracle(
            sampling.lift_coefficients(f, seed=seed), seed=seed)
        distances = sampling.distance_to_ptrop(
            found, [c.direction for c in oracle])
        clusters = tuple((tuple(round(v, 9) for v in c.direction), c.size,
                          round(d, 9)) for c, d in zip(oracle, distances))
    return (f.n, found.points, tuple((c.rays, c.lines) for c in found.cones),
            found.is_finite, found == ptrop_recession(f), clusters)


@pytest.mark.parametrize("name", sorted(PTROP_FILES))
def test_ptrop_reports_read_back_to_the_library_routes(tmp_path, capsys,
                                                       name):
    """A ptrop report reads back to the points and cones of the normal-fan
    route, its agreement with the recession route, and the oracle's
    clusters and distances at the run's seed."""
    path = put(tmp_path, "p.json", PTROP_FILES[name])
    f = io.parse_polynomial(path)
    for seed in (0, 5):
        code, report = run_json(capsys, ["ptrop", "--seed", str(seed), path])
        assert code == 0
        assert read_ptrop(report["results"][0]) == ptrop_outcome(f, seed)


REFINE_PAIRS = {
    "exemplar": (EXEMPLARS["refine"], QUADRANT),
    "diamond": (QUADRANT, DIAMOND),
    "partial": (QUADRANT, FIRST_QUADRANT),
    "covered": (FIRST_QUADRANT, QUADRANT),
    "half": (UPPER_HALF, DIAMOND),
    "rank3": (OCTANTS, OCTANTS_SPLIT["source"]),
}


def read_refine(result):
    """A refine result as (rank, cone count, completeness, the two
    subdivision verdicts, the fan as (rank, maximal cones)), the fan block
    read through the fan schema."""
    rank, cones = io.parse_fan_data(result["fan"], "fan")
    return (result["rank"], result["maximal_cones"], result["complete"],
            result["refines_first"], result["refines_second"],
            (rank, tuple(cones)))


@pytest.mark.parametrize("name", sorted(REFINE_PAIRS))
def test_refine_reports_read_back_to_the_library_refinement(tmp_path,
                                                            capsys, name):
    """A refine report reads back to the fan `common_refinement` gives,
    and each verdict to whether it handed over that witness."""
    paths = [put(tmp_path, f"{k}.json", obj)
             for k, obj in zip("ab", REFINE_PAIRS[name])]
    code, report = run_json(capsys, ["refine", *paths])
    assert code == 0
    fan, over_a, over_b = fans.common_refinement(*map(io.parse_fan, paths))
    assert read_refine(report["results"][0]) == (
        fan.n, len(fan.maximal), fan.complete, over_a is not None,
        over_b is not None, (fan.n, fan.maximal))


def read_complex_result(result):
    """The counts, Euler characteristic and complex of a dualcx or
    subdivide result, the complex read through the complex schema."""
    return (tuple((int(d), c) for d, c in result["counts"].items()),
            result["euler"], io.parse_complex_data(result["complex"], "x"))


def complex_outcome(x):
    """A complex in `read_complex_result`'s form."""
    return tuple(count_cells(x).items()), euler_characteristic(x), x


@pytest.mark.parametrize("name", ["exemplar", "banana"])
def test_dualcx_reports_read_back_to_the_library_complex(tmp_path, capsys,
                                                         name):
    """A dualcx report reads back to the mode of its incidence and to the
    complex `from_incidence` builds, with its counts and Euler
    characteristic."""
    obj = EXEMPLARS["dualcx"] if name == "exemplar" else BANANA_INC
    path = put(tmp_path, "i.json", obj)
    code, report = run_json(capsys, ["dualcx", path])
    assert code == 0
    result = report["results"][0]
    inc = io.parse_incidence(path)
    assert result["mode"] == inc.mode
    assert read_complex_result(result) == \
        complex_outcome(from_incidence(inc))


SUBDIVIDE_FILES = {
    "exemplar": EXEMPLARS["subdivide"], "elliptic": {"elliptic": {"m": 3}},
    **{k: serialize_complex(shape()) for k, shape in SUBDIVIDE_SHAPES.items()}}


@pytest.mark.parametrize("name", sorted(SUBDIVIDE_FILES))
def test_subdivide_reports_read_back_to_the_library_levels(tmp_path, capsys,
                                                           name):
    """A subdivide report reads back to its level and to the level complex
    of the file's skeleton, with its counts and Euler characteristic."""
    path = put(tmp_path, "x.json", SUBDIVIDE_FILES[name])
    skeleton = io.parse_skeleton(path)
    for level in (None, 2, 3):
        flags = [] if level is None else ["--N", str(level)]
        code, report = run_json(capsys, ["subdivide", *flags, path])
        assert code == 0
        result = report["results"][0]
        assert result["level"] == (level or 1)
        assert read_complex_result(result) == \
            complex_outcome(skeleton.level(level or 1))


TORIC_FIBER_FILES = {
    "exemplar": EXEMPLARS["toric-fiber"], "rank3": OCTANTS_SPLIT,
    "rank3-quadrant": {**OCTANTS_SPLIT, "base": {"rays": [[1, 0], [0, 1]]}},
    "twelve-rays": CUBOCTAHEDRON}


def read_toric_fiber(result):
    """A toric-fiber result as (base, counts, Euler characteristic, cell
    count)."""
    return (read_cone(result["base"]),
            tuple((int(d), c) for d, c in result["counts"].items()),
            result["euler"], result["cells"])


def toric_fiber_outcome(matrix, source, target, base):
    """What `toric_fiber_complex` gives, in `read_toric_fiber`'s form."""
    fiber = toric_fiber_complex(matrix, source, target, base)
    return ((base.rays, base.lines), tuple(fiber.counts.items()),
            fiber.euler, sum(len(cs) for _, cs in fiber.cells))


@pytest.mark.parametrize("name", sorted(TORIC_FIBER_FILES))
def test_toric_fiber_reports_read_back_to_the_library_fiber(tmp_path,
                                                            capsys, name):
    """A toric-fiber report reads back to the base cone and to the counts,
    Euler characteristic and cells of `toric_fiber_complex`."""
    path = put(tmp_path, "tf.json", TORIC_FIBER_FILES[name])
    code, report = run_json(capsys, ["toric-fiber", path])
    assert code == 0
    assert read_toric_fiber(report["results"][0]) == \
        toric_fiber_outcome(*io.parse_toric_fiber(path))


def test_a_toric_fiber_base_with_lines_reads_back_with_them(tmp_path, capsys,
                                                            monkeypatch):
    """No toric-fiber file reaches a base with lines, since a file's base
    is strongly convex, so a patched reader hands the handler the quadrant
    fan times the line through e_3 mapped to itself, over the face on
    (1, 0, 0) and that line: the base keeps its line."""
    quadrants = io.parse_fan(put(tmp_path, "q.json", QUADRANT))
    fan = fan_from_cones([make_cone([r + (0,) for r in c.rays],
                                    lines=[(0, 0, 1)])
                          for c in quadrants.maximal])
    base = make_cone([(1, 0, 0)], lines=[(0, 0, 1)])
    values = ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], fan, fan, base)
    monkeypatch.setattr(cli, "parse_toric_fiber", lambda path: values)
    path = put(tmp_path, "tf.json", {})
    code, report = run_json(capsys, ["toric-fiber", path])
    assert code == 0
    got = read_toric_fiber(report["results"][0])
    assert got == toric_fiber_outcome(*values)
    assert got[0][1] == ((0, 0, 1),)


# inputs whose summary line takes a branch its exemplar does not, or that
# sit at the edge of one
SUMMARY_BRANCHES = {
    "ptrop-oracle": ("ptrop", NODAL, "points [1:2] [2:1], routes agree, "
                     "2 oracle clusters"),
    "fan-validate-invalid": ("fan-validate", FAN_FILES["invalid"],
                             "4 maximal cones, INVALID"),
    "fan-validate-incomplete": ("fan-validate", FAN_FILES["incomplete"],
                                "2 maximal cones, valid"),
    "fan-validate-lone-ray": ("fan-validate", {
        "rank": 2, "rays": [["1", "0"]], "maximal_cones": [[0]]},
                              "1 maximal cones, valid"),
    "fan-validate-rank-0": ("fan-validate", {
        "rank": 0, "rays": [], "maximal_cones": [[]]},
                            "1 maximal cones, valid complete"),
    "limit-point-ray": ("limit-point", {
        "base_fan": QUADRANT, "steps": 6, "strategy": {
            "kind": "toward-direction", "direction": {"entries": ["2", "3"]}}},
                        "ray [2:3]"),
    "map-fibers-no-reference": ("map-fibers", SEGMENT_MAP, "(e) chi=1"),
    "map-fibers-no-points": ("map-fibers", {
        **SEGMENT_MAP, "points": [], "reference": SEGMENT},
                             "(no points), match"),
    "galaxy-no-points": ("galaxy", {"elliptic": {"m": 3, "degrees": [1]}},
                         "(no points)"),
    "galaxy-level": ("galaxy", EXEMPLARS["galaxy"],
                     "1/6:open s:undecidable, level 4: 12 open slots, "
                     "12 non-klt cells", "--level", "4"),
}


@pytest.mark.parametrize("case", sorted(SUMMARY_BRANCHES))
def test_summary_branches_are_frozen(tmp_path, capsys, monkeypatch, case):
    command, obj, summary, *flags = SUMMARY_BRANCHES[case]
    argv = _exemplar_argv(tmp_path, monkeypatch, command, obj) + flags
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "in.json: " + summary and err == ""


HELP_DIGESTS = {
    "troplim":
        "e4061ee83afa69e75f85b4b53a22d5ef1c368842e973a87d7502b50d426479c3",
    "dualcx":
        "12c6bcb822a3bacea580ff3c08b07c825ac2525d02fcbb63b4bcd5844daecb5d",
    "fan-validate":
        "9285d823b7c1c7c9169518999004d0450b13eb3d6fa3b40095c0379edd701c04",
    "fiber-rank":
        "7d90bc2a1ace6e646a660b0dee4cac6201df053d930bc11f48c72ca3b98810a1",
    "galaxy":
        "aeb6fc6ca1cc069736630068260da01da9cbfba56f233f149347aab0b54e5758",
    "limit-point":
        "6a7cb3a0cbf2f7e74e88488df050fcb8b46774c7bcf1dec97b61e123efa6ad79",
    "map-fibers":
        "a156ded3cc216e8a1fd6d690d099c8db20c139565e6e413ab55d637bbc012a55",
    "ptrop":
        "7515fbfe59224b5e314ffe56369ec87a223d6beb1d5b03ffa9abb1b6aac9c51e",
    "rational-points":
        "15e1fc523206a55a60eb9e97718bc5c8524de994f69da00d585af55f14855a23",
    "refine":
        "53b9c9ea1d3338d09365115ac72055d3b2ae1fc94e916ba3b3d7ea60c6093f9a",
    "subdivide":
        "580dcb2baad4d46bd39fc92cf2fe629303ab2a88779e0c3eafc3049c27f16928",
    "toric-fiber":
        "c4ab947e6c24827c0982de751d047e7535c7e538149f04167666a79d56f6e703",
    "trop":
        "8ab25eab27e81ffcf934b6754884af1a3898dd3465a5ada09489783bffac2a86",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_texts_are_frozen(capsys, monkeypatch, command):
    """SHA-256 of each --help text at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(([] if command == "troplim" else [command]) + ["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]
    assert err == ""


# per usage error: its argv, and the SHA-256 of its exit code and stderr at
# 80 columns; no input file is read, since parsing fails first
USAGE_ERRORS = {
    "no-subcommand": ([], "aadf807f44c4ed95f2fc2cc087171a02"
                          "730139c786928beedd51928553ba663f"),
    "unknown-subcommand": (["tropic", "in.json"],
                           "3b7096e64ba6829268119c493431d63d"
                           "f921e88cde2f1a8bb92ef955bf984bda"),
    "trop-no-file": (["trop"], "37bef0253bfa1a2ddade1b1a8f02f52f"
                               "16498b15e993a3d67f7c3fbfd11e5ea1"),
    "ptrop-no-file": (["ptrop"], "b942c78131c0a0030020c4fe6ad53c92"
                                 "50dda0c51e9158c271a670ff6ed24d0d"),
    "fan-validate-no-file": (["fan-validate"],
                             "ab8e7556bf5b7be04fad09e211b69b86"
                             "af7710669be199214c04715bc9a5d74f"),
    "refine-no-file": (["refine"], "a99dd3496b9e23a99a2c0008c89ae5d8"
                                   "330fa26e1ba5fc84297ae42cf3d65b38"),
    "limit-point-no-file": (["limit-point"],
                            "5beb2fc0a4ca72d43351408c8ba0998c"
                            "2eed98b76f0b365fdd93c37d286224ee"),
    "fiber-rank-no-file": (["fiber-rank"],
                           "2cd729ca41f8e6c4b7de9d0ad869c0b1"
                           "c0d7a23193142c0a3ed025f1cc613acf"),
    "dualcx-no-file": (["dualcx"], "9cc02c65e4862355b618874b4e88f292"
                                   "4be77408ef1d616521c2e7fedb4c7c28"),
    "subdivide-no-file": (["subdivide"], "46250adefc6adfb2fee7922402243303"
                                         "a1513ededbab19875b9d38ad8ee5a446"),
    "rational-points-no-file": (["rational-points"],
                                "218fd3e5b83c8643bee0a883ebc55e8d"
                                "480b43e68624b87de4f978d4b96e4458"),
    "map-fibers-no-file": (["map-fibers"],
                           "03986452816db510dcc79c537a627622"
                           "daebc479a4a08a2ed76a74f0680dae29"),
    "toric-fiber-no-file": (["toric-fiber"],
                            "5ebd40dad0fde9e60d76db5893325445"
                            "e92de4a240e2867bbef3254246519c4f"),
    "galaxy-no-file": (["galaxy"], "72fe11e950c1cfe6b240be76ac16f408"
                                   "4bbe2243a2de2b0fe09f7f3db18b2d63"),
    "unregistered-flag": (["trop", "in.json", "--depth", "2"],
                          "828a83f5b5512ce5c08eb3e0b21e99db"
                          "0031b937f6f0eb7fb6cbc4f65e1a4108"),
    "seed-not-an-integer": (["ptrop", "in.json", "--seed", "x"],
                            "8475fa099b622f3d479d128320b06c7c"
                            "13e57ecca84f3daca63c2448a4928ad7"),
    "depth-not-an-integer": (["limit-point", "in.json", "--depth", "1.5"],
                             "db7b60ab9eedc37f82e30fcfde2c0fd7"
                             "8950114c0ead83ca9f0b9cb7f21f413a"),
    "N-not-an-integer": (["subdivide", "in.json", "--N", "two"],
                         "9836880164502287eddb32a60c43fa3e"
                         "c3dedda52327430594039e0eaeee53f7"),
    "level-not-an-integer": (["rational-points", "in.json", "--level", "3/2"],
                             "c751576b17eeb34ef6def321d59c9d0e"
                             "34ff2fd6440ffa94565adcc0f683bd55"),
    "flag-missing-value": (["ptrop", "in.json", "--seed"],
                           "1246202229080dc0fab562722049ea18"
                           "c68dafadb0a06ac0768822a74bddc8db"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_are_frozen(capsys, monkeypatch, case):
    """SHA-256 of each usage error's exit code and stderr at 80 columns."""
    argv, digest = USAGE_ERRORS[case]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    log = f"{exc.value.code}\n{err}".encode()
    assert hashlib.sha256(log).hexdigest() == digest


def _eager_parser():
    """The reference parser: build_parser as it was when it built every
    subcommand's parser up front."""
    parser = argparse.ArgumentParser(
        prog="troplim",
        description="Exact tropical limits: fans, germs, skeletons, towers.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in cli.COMMANDS.items():
        p = sub.add_parser(name, help=command.help,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("inputs", nargs="+", metavar="FILE")
        for flag in ("--json", "--output") + command.flags:
            p.add_argument(flag, **cli._FLAGS[flag])
    return parser


# each flag as a command line gives it
FLAG_WORDS = {"--json": ["--json"], "--svg": ["--svg"],
              "--output": ["--output", "out.json"], "--seed": ["--seed", "7"],
              "--depth": ["--depth", "3"], "--N": ["--N", "2"],
              "--level": ["--level", "4"]}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_run_builds_only_the_parser_of_its_subcommand(monkeypatch,
                                                        command):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser().parse_args([command, "in.json"])
    assert progs == ["troplim", f"troplim {command}"]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_lazy_subparsers_parse_as_the_eager_parser(command):
    """Every combination of the subcommand's flags, after and before two
    input files, gives the reference parser's namespace."""
    flags = ("--json", "--output") + cli.COMMANDS[command].flags
    for k in range(len(flags) + 1):
        for chosen in itertools.combinations(flags, k):
            words = [w for flag in chosen for w in FLAG_WORDS[flag]]
            files = ["a.json", "b.json"]
            for argv in ([command] + files + words, [command] + words + files):
                assert cli.build_parser().parse_args(argv) == \
                    _eager_parser().parse_args(argv), argv


def test_build_parser_keeps_no_subparser_between_calls():
    def subparsers(parser):
        action, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        return action.choices

    first, second = subparsers(cli.build_parser()), \
        subparsers(cli.build_parser())
    assert list(first) == list(second) == list(cli.COMMANDS)
    assert not {id(p) for p in first.values()} & \
        {id(p) for p in second.values()}


TRACED_JOBS = {
    "trop": (["trop"], NODAL),
    "galaxy": (["galaxy"], {
        "elliptic": {"m": 3, "degrees": [1, 2]},
        "points": ["1/6", {"symbol": {
            "name": "sqrt2-1", "lo": "414213/1000000",
            "hi": "414214/1000000"}}]}),
    "subdivide": (["subdivide", "--N", "2"], {"elliptic": {"m": 3}}),
}


@pytest.mark.parametrize("job", list(TRACED_JOBS))
def test_the_benchmark_tracer_wraps_a_cli_job(tmp_path, capsys, job):
    """perfbench/layers.py looks each layer module up in ``sys.modules`` and
    rebinds the CLI's handler table.  In a fresh interpreter, as in a traced
    benchmark pass, one job through ``run`` counts its handler once, and
    the traced report is byte for byte the report of an untraced run."""
    root = Path(__file__).resolve().parent.parent
    words, obj = TRACED_JOBS[job]
    argv = words + [put(tmp_path, f"{job}.json", obj), "--json"]
    code = ("import sys, hashlib, json; sys.path[:0] = sys.argv[1:3]; "
            "import layers, troplim, troplim.cli as cli; "
            "tracer = layers.Tracer(); "
            "uninstall = layers.install(tracer, troplim); "
            "args = cli.build_parser().parse_args(json.loads(sys.argv[4])); "
            "text = cli.canonical_json(cli.run(cli.config_from_args(args))); "
            "uninstall(); "
            "print(tracer.stat('cli.handle_' + sys.argv[3])[0]); "
            "print(hashlib.sha256(text.encode()).hexdigest())")
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"),
         str(root / "perfbench"), job, json.dumps(argv)],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert cli.main(argv) == 0
    plain = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert out.stdout.split() == ["1", plain]


def test_the_benchmark_tracer_wraps_an_oracle_that_loads_numpy_later(
        tmp_path, capsys):
    """Installed before numpy is loaded, as in a traced towers pass, the
    tracer still counts the one oracle call of a ptrop job, and the traced
    report is byte for byte the report of an untraced run."""
    root = Path(__file__).resolve().parent.parent
    path = put(tmp_path, "nodal.json", NODAL)
    code = ("import sys, hashlib; sys.path[:0] = sys.argv[1:3]; "
            "import layers, troplim, troplim.cli as cli; "
            "print('numpy' in sys.modules); "
            "tracer = layers.Tracer(); "
            "uninstall = layers.install(tracer, troplim); "
            "args = cli.build_parser().parse_args("
            "['ptrop', sys.argv[3], '--json']); "
            "text = cli.canonical_json(cli.run(cli.config_from_args(args))); "
            "uninstall(); "
            "print(tracer.stat('sampling.ptrop_sample_oracle')[0]); "
            "print(hashlib.sha256(text.encode()).hexdigest())")
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"),
         str(root / "perfbench"), path],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert cli.main(["ptrop", path, "--json"]) == 0
    plain = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert out.stdout.split() == ["False", "1", plain]
