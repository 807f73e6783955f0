"""Tests for file formats and the command-line surface."""

import copy
import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest

from troplim import cli
from troplim import io
from troplim.complexes import (
    cycle_complex,
    from_incidence,
    make_complex,
    nodal_cubic_incidence,
    segment_complex,
    square_complex,
    tetrahedron_boundary,
    tetrahedron_solid,
    triangle_complex,
)
from troplim.errors import ParseError, ValidationError
from troplim.fans import fan_from_cones
from troplim.galaxy import PolygonDegeneration, base_change
from troplim.lattice import make_cone
from troplim.towers import (
    StellarAtBarycenters,
    extend_tower,
    fan_tower,
    rational_vector,
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
        ("cx.json", io.serialize_complex(segment_complex()),
         lambda p: io.parse_complex_data(io.load_json(p), p),
         io.serialize_complex),
    ]
    for name, obj, parse, serialize in cases:
        path = put(tmp_path, name, obj)
        canonical = io.canonical_json(serialize(parse(path)))
        (tmp_path / name).write_text(canonical, encoding="utf-8")
        assert io.canonical_json(serialize(parse(path))) == canonical


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
    assert [lv.m for lv in ell.levels] == [3, 6] and points == []


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


def test_subdivide_elliptic_writes_complex_file(tmp_path, capsys):
    path = put(tmp_path, "i3.json", {"elliptic": {"m": 3}})
    out = str(tmp_path / "i6.json")
    code, report = run_json(capsys, ["subdivide", "--N", "2", path,
                                     "--output", out])
    assert code == 0
    assert report["results"][0]["counts"] == {"0": 6, "1": 6}
    emitted = io.parse_complex_data(io.load_json(out), out)
    assert emitted == base_change(PolygonDegeneration(3), 2).complex
    with open(out, encoding="utf-8") as fh:
        assert fh.read() == io.canonical_json(io.serialize_complex(emitted))


def test_map_fibers_k3_mismatch(tmp_path, capsys):
    path = put(tmp_path, "k3.json", {
        "source": io.serialize_complex(tetrahedron_solid()),
        "target": io.serialize_complex(segment_complex()),
        "vertex_map": {"v0": "z0", "v1": "z1", "v2": "z1", "v3": "z1"},
        "points": [{"cell": "e", "coords": ["1/2", "1/2"]}],
        "reference": io.serialize_complex(tetrahedron_boundary())})
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
    "04513e53ca8c2df4cc99271803892b6f4b65b56552aff967bd4eaffc1620515b",
    "ae4033171292711af40825dc1bd06c4f388f2da1aff12ee56737221160f10ba9",
    "3c79caad82ff4aac9af099ee39881a7f2717c126e15c19a33ec3e4236d37de1a",
    "c13cdfc48c54efec67842cbe7750627e06442a55c82ca651b83158e719fcc1a6",
    "313f0dabf18ce425d095f866857369045cb53aac4e6cc709c3b2349b8769dd44",
    "388ce3792395cf88567dd75894e74ef581cb24630149d4893eaadcb3a75173aa",
    "08f7e4ef0f8b5142c3f8ade5a1db4016285fd82906ed567717619fcec7031332",
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
    obj = io.serialize_complex(SUBDIVIDE_SHAPES[shape]())
    assert _frozen_report(tmp_path, capsys, monkeypatch,
                          ["subdivide", "--N", str(level)], "x.json",
                          obj) == digest


def _map_file(source, target, vertex_map, points, reference=None):
    obj = {"source": io.serialize_complex(source),
           "target": io.serialize_complex(target), "vertex_map": vertex_map,
           "points": [{"cell": c, "coords": list(t)} for c, t in points]}
    if reference is not None:
        obj["reference"] = io.serialize_complex(reference)
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
}


@pytest.mark.parametrize("dataset, digest", [
    ("square",
     "4c7c68f042d48a166a7344708599915f50e69b27787129046ccf3bd3d050b16e"),
    ("tetrahedron",
     "eadac089e09077950c8b2723841c8b2c6780f1496a08471641a00dcc1572a7a3"),
    ("collapse",
     "a13f0c0bf517cc00e3a1ee97fea7a189ccb2b73664127d5dc0f25ea6bda4bfc8"),
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
}


@pytest.mark.parametrize("tower, digest", [
    ("rank2",
     "4266b77abeee7ba200d4f5652a965118eb4796a2155860b3df0d34ec31ef1fb5"),
    ("rank3-stellar",
     "492c3bdab77218197ef6e189aa113b00c9ca70de744fd7ad64ef962238b6f724"),
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
    """Frozen from the refine handler's own artifact writer."""
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
    (["subdivide", "--N", "2"], io.serialize_complex(square_complex()),
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


def test_cone_serialization_helpers():
    cone = make_cone([(1, 0), (1, 2)], n=2)
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
    pt = io.serialize_complex(make_complex([("pt", [])]))
    path = put(tmp_path, "mf.json", {
        "source": pt, "target": pt, "vertex_map": {"pt": "pt"},
        "points": value if field == "points" else [point]})
    assert cli.main(["map-fibers", path]) == 3
    assert "expected a list" in capsys.readouterr().err


SEGMENT = io.serialize_complex(segment_complex())
SEGMENT_MAP = {"source": SEGMENT, "target": SEGMENT,
               "vertex_map": {"z0": "z0", "z1": "z1"},
               "points": [{"cell": "e", "coords": ["1/2", "1/2"]}]}
EMPTY_SYMBOL = {"name": "s", "lo": "1/2", "hi": "1/3"}
UPPER_HALF = {"rank": 2, "rays": [["1", "0"], ["0", "1"], ["-1", "0"]],
              "maximal_cones": [[0, 1], [1, 2]]}
STELLAR_TOWER = {"base_fan": QUADRANT, "strategy": STELLAR,
                 "direction": {"entries": ["2", "3"]}}


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
], ids=["map-reference-int", "map-phi-int", "galaxy-empty-symbol",
        "fiber-rank-empty-symbol", "limit-point-empty-symbol",
        "fan-negative-rank", "negative-exponent", "no-terms",
        "direction-outside-support", "strategy-outside-support",
        "steps-string-over-depth", "steps-bool",
        "steps-negative", "steps-spaces-underscore",
        "closure-unknown-stratum", "phi-unknown-cell"])
def test_malformed_inputs_exit_with_a_documented_code(
        tmp_path, capsys, command, obj, flags, code, error):
    path = put(tmp_path, "in.json", obj)
    assert cli.main([command, path] + flags) == code
    assert error in capsys.readouterr().err


# one valid input per subcommand; refine takes QUADRANT as its second fan
SYMBOL = {"name": "s", "lo": "1/3", "hi": "1/2"}
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


def test_the_benchmark_tracer_wraps_a_cli_job(tmp_path):
    """perfbench/layers.py looks each layer module up in ``sys.modules`` and
    rebinds the CLI's handler table.  In a fresh interpreter, as in a traced
    benchmark pass, one trop job through ``run`` counts its handler once."""
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "import layers, troplim, troplim.cli as cli; "
            "tracer = layers.Tracer(); "
            "uninstall = layers.install(tracer, troplim); "
            "args = cli.build_parser().parse_args(['trop', sys.argv[3]]); "
            "cli.run(cli.config_from_args(args)); uninstall(); "
            "print(tracer.stat('cli.handle_trop')[0])")
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"),
         str(root / "perfbench"), put(tmp_path, "nodal.json", NODAL)],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1"]


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
