"""Correctness gate: the answer each job's report must give, for any seed.

`check(job, outcome)` returns None when the job's outcome is right and a
one-line reason otherwise.  An outcome is the report dict, or the name of a
documented domain exception (`NoBranchFound`, `UndecidableSign`,
`BoundViolation`) when the job raised one; which of those a job may raise is
part of what it expects.
"""

from __future__ import annotations

import math
from fractions import Fraction

from corpus import q

DOCUMENTED = ("NoBranchFound", "UndecidableSign", "BoundViolation")


def _strings(v):
    return [str(a) for a in v]


def _ptrop(job, res):
    if res["routes_agree"] is not True:
        return "the normal-fan and recession routes disagree"
    return None


def _refine(job, res):
    exp = job.expect
    if not (res["refines_first"] and res["refines_second"]):
        return "the refinement does not refine both inputs"
    if not res["complete"]:
        return "the refinement of two complete fans is not complete"
    rays = [_strings(r) for r in exp["rays"]]
    if res["fan"]["rays"] != rays or res["maximal_cones"] != len(rays):
        return "the refinement's rays are not the union of the input rays"
    if exp["fan"] is not None and res["fan"] != exp["fan"]:
        return "refining a fan with itself changed the fan"
    return None


def _validate(job, res):
    rays = [_strings(r) for r in job.expect["rays"]]
    if not (res["valid"] and res["complete"]) or res["violations"]:
        return "a complete fan was reported invalid or incomplete"
    if res["rays"] != rays or res["maximal_cones"] != len(rays):
        return "the validated fan has other rays or cones than its input"
    return None


def _limit_point(job, res):
    exp = job.expect
    if res["depth"] != exp["depth"]:
        return f"tower depth {res['depth']}, expected {exp['depth']}"
    if exp["ray"] is None:
        return "an irrational direction resolved" if res["resolved"] else None
    if not res["resolved"]:
        if exp.get("maybe_unresolved"):
            return None
        return "a rational direction did not resolve"
    if res["ray"] != _strings(exp["ray"]):
        return f"resolved to {res['ray']}, expected primitive(d) = " \
               f"{list(exp['ray'])}"
    if "carrier_dims" in exp and res["carrier_dims"] != exp["carrier_dims"]:
        return f"carrier dimensions {res['carrier_dims']}, expected " \
               f"{exp['carrier_dims']}"
    return None


def _subdivide(job, res):
    exp = job.expect
    top = res["counts"].get(str(exp["top_dim"]))
    if top != exp["top_cells"]:
        return f"{top} top cells, expected N^m times the original: " \
               f"{exp['top_cells']}"
    if res["euler"] != exp["euler"]:
        return f"Euler characteristic {res['euler']}, expected {exp['euler']}"
    if "counts" in exp and res["counts"] != \
            {str(d): c for d, c in exp["counts"].items()}:
        return f"cell counts {res['counts']}, expected {exp['counts']}"
    return None


def galaxy_expected(obj):
    """Open/closed outcomes of every point, computed from the definitions.

    A rational p/q is open from the first level i with q | m d_i, at vertex
    p m d_i / q; a symbol is closed, carried at level i by the edge of width
    1/(m d_i) that strictly contains its enclosure, or undecidable from the
    first level where no edge does.
    """
    sizes = [obj["elliptic"]["m"] * d for d in obj["elliptic"]["degrees"]]
    out = []
    for raw in obj["points"]:
        if isinstance(raw, dict):
            sym = raw["symbol"]
            lo, hi = Fraction(sym["lo"]), Fraction(sym["hi"])
            carriers = []
            for i, size in enumerate(sizes):
                k = math.floor(lo * size)
                if not (Fraction(k, size) < lo and hi < Fraction(k + 1, size)):
                    carriers = None
                    break
                carriers.append({
                    "level": i, "cell": f"e{k}",
                    "interval": [q(Fraction(k, size)),
                                 q(Fraction(k + 1, size))],
                    "width": q(Fraction(1, size))})
            if carriers is None:
                out.append({"point": sym["name"], "kind": "undecidable"})
            else:
                out.append({"point": sym["name"], "kind": "closed",
                            "carriers": carriers})
            continue
        theta = Fraction(raw) % 1
        level = next((i for i, size in enumerate(sizes)
                      if size % theta.denominator == 0), None)
        if level is None:
            out.append({"point": q(theta), "kind": "incomplete"})
        else:
            out.append({"point": q(theta), "kind": "open", "label": q(theta),
                        "level": level,
                        "vertex": f"v{theta * sizes[level]}"})
    return sizes, out


def _galaxy(job, res):
    obj = job.files[job.inputs[0]]
    sizes, expected = galaxy_expected(obj)
    if res["cycle_sizes"] != sizes:
        return f"cycle sizes {res['cycle_sizes']}, expected {sizes}"
    for got, want in zip(res["points"], expected):
        if "error" in got:  # incomplete or undecidable: the message is free
            got = {k: v for k, v in got.items() if k != "error"}
        if got != want:
            return f"point {want['point']}: got {got}, expected {want}"
    if len(res["points"]) != len(expected):
        return "the report lists another number of points"
    return None


def _rational_points(job, res):
    count = job.expect["count"]
    if res["count"] != count or len(res["points"]) != count:
        return f"{res['count']} rational points, expected {count}"
    return None


def _map_fibers(job, res):
    exp = job.expect
    for p in res["points"]:
        if p["f_vector"] != exp["f_vector"]:
            return f"fiber f-vector {p['f_vector']} over {p['coords']}, " \
                   f"expected {exp['f_vector']}"
        if p["euler"] != sum((-1) ** d * c
                             for d, c in enumerate(p["f_vector"])):
            return "fiber Euler characteristic disagrees with its f-vector"
    if "reference_euler" in exp and (
            res["reference_euler"] != exp["reference_euler"]
            or res["mismatch"] is not exp["mismatch"]):
        return "the reference comparison is wrong"
    return None


def _dualcx(job, res):
    counts = {str(d): c for d, c in job.expect["counts"].items()}
    euler = sum((-1) ** d * c for d, c in job.expect["counts"].items())
    if res["counts"] != counts or res["euler"] != euler:
        return f"dual complex counts {res['counts']}, expected {counts}"
    return None


CHECKS = {
    "ptrop": _ptrop,
    "refine": _refine,
    "fan-validate": _validate,
    "limit-point": _limit_point,
    "subdivide": _subdivide,
    "galaxy": _galaxy,
    "rational-points": _rational_points,
    "map-fibers": _map_fibers,
    "dualcx": _dualcx,
}


def documented_allowed(job):
    """The documented exceptions this job may end in."""
    exp = job.expect
    if exp["kind"] == "ptrop":
        return exp["outcomes"]
    if exp["kind"] == "limit-point" and exp["ray"] is None:
        return ["UndecidableSign"]
    return []


def check(job, outcome):
    """None if the outcome is right for the job, else the reason."""
    if isinstance(outcome, str):
        if outcome in documented_allowed(job):
            return None
        return f"raised {outcome}, which this job cannot end in"
    if outcome["command"] != job.argv[0] or len(outcome["results"]) != 1:
        return "the report is not a single result of the job's subcommand"
    return CHECKS[job.expect["kind"]](job, outcome["results"][0])
