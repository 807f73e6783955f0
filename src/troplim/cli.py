"""Command-line surface: one subcommand per pipeline stage.

Every run produces a deterministic report: results ordered by input path,
sha256 digests instead of timestamps, rationals rendered as "p/q" strings.
`--json` emits the report as canonical JSON on stdout; the default is a
short human summary.  `--output` captures the primary artifact: for
`refine` the refined fan file, for `dualcx` and `subdivide` the resulting
complex file, and for every other subcommand the JSON report itself.

Exit codes: 0 success, 2 validation failure, 3 parse failure, 4 resource
cap (ambient rank or tower depth).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

from ._linalg import _det_int
from .complexes import (
    DeltaComplex,
    _signed_sum,
    count_cells,
    euler_characteristic,
    from_incidence,
    map_fiber,
    rational_points,
    scale_subdivide,
    toric_fiber_complex,
)
from .errors import (
    DepthCap,
    IncompleteTower,
    ParseError,
    ResourceCap,
    TropLimError,
    UndecidableSign,
    ValidationError,
)
from .fans import Fan, _trusted_fan, common_refinement, is_subdivision, \
    validate_fan
from .galaxy import (
    OpenPoint,
    PolygonDegeneration,
    base_change,
    classify_point,
    decomposition,
)
from .io import (
    canonical_json,
    cone_to_json,
    fmt_rational,
    parse_cycle_or_complex,
    parse_fan,
    parse_fan_cones,
    parse_galaxy,
    parse_incidence,
    parse_limit_point,
    parse_map_fibers,
    parse_polynomial,
    parse_symbolic_vector,
    parse_toric_fiber,
    serialize_complex,
    serialize_fan,
    sha256_file,
)
from .sampling import distance_to_ptrop, lift_coefficients, ptrop_sample_oracle
from .towers import (
    TOWER_DEPTH_CAP,
    ResolvedRay,
    chain_toward,
    extend_tower,
    fan_tower,
    fiber_model,
    resolve_direction,
)
from .tropical import ptrop_normal_fan, ptrop_recession, trop_hypersurface

_ARTIFACT_COMMANDS = ("refine", "dualcx", "subdivide")


@dataclass(frozen=True)
class JobConfig:
    """One CLI invocation, validated."""

    subcommand: str
    inputs: tuple[str, ...]
    output: Optional[str] = None
    seed: int = 0
    json_out: bool = False
    svg: bool = False
    depth: int = TOWER_DEPTH_CAP
    level: Optional[int] = None

    def __post_init__(self):
        if not self.inputs:
            raise ValidationError("at least one input file is required")
        if self.output and len(self.inputs) > 1 and \
                self.subcommand in ("dualcx", "subdivide"):
            raise ValidationError(
                f"{self.subcommand} writes one artifact, so --output takes "
                f"exactly one input file")
        if not 1 <= self.depth <= TOWER_DEPTH_CAP:
            raise ValidationError(
                f"depth must lie in 1..{TOWER_DEPTH_CAP}")
        if self.level is not None and self.level < 1:
            raise ValidationError("level must be a positive integer")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


# -- small helpers -----------------------------------------------------------


def _q(vec) -> list[str]:
    return [fmt_rational(c) for c in vec]

def _counts_json(counts: dict) -> dict:
    return {str(d): c for d, c in sorted(counts.items())}


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_svg(cfg: JobConfig, path: str, svg: str) -> str:
    """Write the picture next to --output when the run has one input, else
    next to `path`; return the picture's path."""
    base = cfg.output if cfg.output and len(cfg.inputs) == 1 else path
    out = (base[:-5] if base.endswith(".json") else base) + ".svg"
    _write(out, svg)
    return out


def _maybe_artifact(cfg: JobConfig, result: dict, payload: dict) -> dict:
    if cfg.output:
        _write(cfg.output, canonical_json(payload))
        result["artifact"] = cfg.output
    return result


def _complex_result(cfg: JobConfig, path: str, x: DeltaComplex,
                    **fields) -> dict:
    """Report of a run that makes a complex: its cell counts, Euler
    characteristic and cells, with the optional picture and artifact."""
    counts = count_cells(x)
    out = {"input": path, **fields, "counts": _counts_json(counts),
           "euler": _signed_sum(counts), "complex": serialize_complex(x)}
    if cfg.svg:
        out["svg"] = _write_svg(cfg, path, complex_svg(x))
    return _maybe_artifact(cfg, out, out["complex"])


def _level(cfg: JobConfig) -> int:
    """The subdivision level of subdivide and rational-points, 1 unless
    given."""
    return 1 if cfg.level is None else cfg.level


# -- SVG rendering (deterministic, rank/dimension 2 only) --------------------


def fan_svg(fan: Fan) -> str:
    """Plane fan picture: rays from the origin, one wedge per maximal cone."""
    if fan.n != 2:
        raise ValidationError(f"svg rendering needs a rank-2 fan, got rank "
                              f"{fan.n}")
    size, c, r = 420, 210.0, 170.0

    def at(v):
        norm = math.hypot(v[0], v[1])
        return c + r * v[0] / norm, c - r * v[1] / norm

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<circle cx="{c}" cy="{c}" r="{r}" fill="none" stroke="#cccccc"/>',
    ]
    for cone in fan.maximal:
        if len(cone.rays) == 2:
            (x1, y1), (x2, y2) = at(cone.rays[0]), at(cone.rays[1])
            parts.append(
                f'<path d="M {c:.1f} {c:.1f} L {x1:.2f} {y1:.2f} '
                f'A {r:.1f} {r:.1f} 0 0 0 {x2:.2f} {y2:.2f} Z" '
                f'fill="#4477aa22" stroke="none"/>')
    for ray in fan.rays:
        x, y = at(ray)
        parts.append(f'<line x1="{c:.1f}" y1="{c:.1f}" x2="{x:.2f}" '
                     f'y2="{y:.2f}" stroke="#cc3333" stroke-width="2"/>')
        parts.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="11">'
                     f'({ray[0]},{ray[1]})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def complex_svg(x: DeltaComplex) -> str:
    """1-skeleton picture: vertices on a circle, loops as side circles."""
    if x.dim > 2:
        raise ValidationError(
            f"svg rendering covers complexes of dimension <= 2, got "
            f"{x.dim}")
    verts = [c.name for c in x.by_dim(0)]
    size, c, r = 420, 210.0, 160.0
    pos = {}
    for i, name in enumerate(verts):
        a = 2 * math.pi * i / len(verts) - math.pi / 2
        pos[name] = (c + r * math.cos(a), c + r * math.sin(a))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
    ]
    for e in x.by_dim(1):
        end, start = e.faces
        if start == end:
            x0, y0 = pos[start]
            # a loop edge: offset circle tangent to the vertex
            parts.append(f'<circle cx="{x0 + 22:.2f}" cy="{y0:.2f}" r="22" '
                         f'fill="none" stroke="#444444"/>')
        else:
            (x0, y0), (x1, y1) = pos[start], pos[end]
            parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
                         f'y2="{y1:.2f}" stroke="#444444"/>')
    for name, (x0, y0) in pos.items():
        parts.append(f'<circle cx="{x0:.2f}" cy="{y0:.2f}" r="4" '
                     f'fill="#cc3333"/>')
        parts.append(f'<text x="{x0 + 6:.2f}" y="{y0 - 6:.2f}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- handlers, one per subcommand --------------------------------------------


def handle_trop(cfg: JobConfig, path: str) -> dict:
    f = parse_polynomial(path)
    h = trop_hypersurface(f)
    return {
        "input": path,
        "vars": f.n,
        "degree": f.degree,
        "terms": len(f.terms),
        "cell_count": len(h.cells),
        "cells": [{
            "dim": cell.dim,
            "achievers": [list(e) for e in cell.achievers],
            "relint_point": _q(cell.relint_point),
            "recession_rays": [[str(a) for a in r]
                               for r in cell.recession.rays],
        } for cell in h.cells],
    }


def handle_ptrop(cfg: JobConfig, path: str) -> dict:
    f = parse_polynomial(path)
    exact = ptrop_normal_fan(f)
    via_recession = ptrop_recession(trop_hypersurface(f))
    result = {
        "input": path,
        "vars": f.n,
        "points": [[str(a) for a in p] for p in exact.points],
        "cones": [cone_to_json(c) for c in exact.cones],
        "is_finite": exact.is_finite,
        "routes_agree": exact == via_recession,
        "oracle_clusters": None,
    }
    if f.n in (2, 3):
        coeffs = lift_coefficients(f, seed=cfg.seed)
        clusters = ptrop_sample_oracle(coeffs, f.n, seed=cfg.seed)
        distances = distance_to_ptrop(exact, [cl.direction for cl in clusters])
        result["oracle_clusters"] = [{
            "direction": [round(v, 9) for v in cl.direction],
            "size": cl.size,
            "distance_to_exact": round(d, 9),
        } for cl, d in zip(clusters, distances)]
    return result


def handle_fan_validate(cfg: JobConfig, path: str) -> dict:
    rank, cones = parse_fan_cones(path)
    report = validate_fan(cones, rank)
    out = {
        "input": path,
        "rank": rank,
        "maximal_cones": len(cones),
        "valid": report.valid,
        "complete": report.complete,
        "violations": list(report.violations),
    }
    if report.valid:
        # the report already checked the axioms
        fan = _trusted_fan(cones, rank)
        out["rays"] = [[str(a) for a in r] for r in fan.rays]
        if cfg.svg:
            out["svg"] = _write_svg(cfg, path, fan_svg(fan))
    return out


def handle_refine(cfg: JobConfig) -> dict:
    if len(cfg.inputs) != 2:
        raise ValidationError("refine takes exactly two fan files")
    path_a, path_b = cfg.inputs
    a, b = parse_fan(path_a), parse_fan(path_b)
    fan = common_refinement(a, b)
    out = {
        "inputs": [path_a, path_b],
        "rank": fan.n,
        "maximal_cones": len(fan.maximal),
        "complete": fan.complete,
        "refines_first": is_subdivision(fan, a) is not None,
        "refines_second": is_subdivision(fan, b) is not None,
        "fan": serialize_fan(fan),
    }
    if cfg.svg:
        # one picture, of the one artifact when there is one
        out["svg"] = _write_svg(cfg, cfg.output or path_a, fan_svg(fan))
    return _maybe_artifact(cfg, out, out["fan"])


def handle_limit_point(cfg: JobConfig, path: str) -> dict:
    base, strategy, steps, x = parse_limit_point(path)
    if steps + 1 > cfg.depth:
        raise DepthCap(f"{steps} refinement steps exceed --depth "
                       f"{cfg.depth}")
    tower = fan_tower(base)
    if steps:
        tower = extend_tower(tower, strategy, steps)
    chain = chain_toward(tower, x)
    res = resolve_direction(chain)
    out = {
        "input": path,
        "depth": tower.depth,
        "carrier_dims": [cone.dim for _, cone in chain.entries],
        "resolved": isinstance(res, ResolvedRay),
    }
    if isinstance(res, ResolvedRay):
        out["ray"] = [str(a) for a in res.ray.direction]
    else:
        out["cone"] = cone_to_json(res.cone)
    return out


def handle_fiber_rank(cfg: JobConfig, path: str) -> dict:
    x = parse_symbolic_vector(path)
    model = fiber_model(x.n, x)
    return {
        "input": path,
        "n": x.n,
        "symbols": [s.name for s in x.symbols],
        "rank": model.rank,
        "fiber_dim": model.dim,
        "kind": model.kind,
        "basis_change": [list(r) for r in model.basis_change],
        "det": _det_int(model.basis_change),
    }


def handle_dualcx(cfg: JobConfig, path: str) -> dict:
    inc = parse_incidence(path)
    return _complex_result(cfg, path, from_incidence(inc), mode=inc.mode)


def handle_subdivide(cfg: JobConfig, path: str) -> dict:
    level = _level(cfg)
    x = parse_cycle_or_complex(path)
    if isinstance(x, PolygonDegeneration):
        # base change keeps the canonical circle labels v0..v(Nm-1)
        y = base_change(x, level).complex
    else:
        y = scale_subdivide(x, level).complex
    return _complex_result(cfg, path, y, level=level)


def handle_rational_points(cfg: JobConfig, path: str) -> dict:
    level = _level(cfg)
    x = parse_cycle_or_complex(path)
    if isinstance(x, PolygonDegeneration):
        x = x.complex
    pts = sorted(rational_points(x, level))
    return {
        "input": path,
        "level": level,
        "count": len(pts),
        "points": [{"cell": name, "coords": _q(coords)}
                   for name, coords in pts],
    }


def handle_map_fibers(cfg: JobConfig, path: str) -> dict:
    mapping, reference, points = parse_map_fibers(path)
    reference_euler = (None if reference is None
                       else euler_characteristic(reference))
    entries = []
    any_mismatch = False
    for cell, coords in points:
        fiber = map_fiber(mapping, cell, coords)
        entry = {
            "cell": cell,
            "coords": _q(coords),
            "f_vector": list(fiber.f_vector),
            "euler": fiber.euler,
            "empty": fiber.is_empty,
        }
        if reference_euler is not None:
            entry["match"] = fiber.euler == reference_euler
            any_mismatch = any_mismatch or not entry["match"]
        entries.append(entry)
    out = {"input": path, "points": entries}
    if reference_euler is not None:
        out["reference_euler"] = reference_euler
        out["mismatch"] = any_mismatch
    return out


def handle_toric_fiber(cfg: JobConfig, path: str) -> dict:
    matrix, source, target, base = parse_toric_fiber(path)
    fiber = toric_fiber_complex(matrix, source, target, base)
    return {
        "input": path,
        "base": cone_to_json(base),
        "counts": _counts_json(fiber.counts),
        "euler": fiber.euler,
        "cells": sum(len(cs) for _, cs in fiber.cells),
    }


def handle_galaxy(cfg: JobConfig, path: str) -> dict:
    tower, points = parse_galaxy(path)
    if len(tower.degrees) > cfg.depth:
        raise DepthCap(f"{len(tower.degrees)} tower levels exceed --depth "
                       f"{cfg.depth}")
    outcomes = []
    for point in points:
        shown = point.symbol.name if point.symbol is not None else \
            fmt_rational(point.rational)
        try:
            res = classify_point(tower, point)
        except (IncompleteTower, UndecidableSign) as exc:
            kind = "incomplete" if isinstance(exc, IncompleteTower) else \
                "undecidable"
            outcomes.append({"point": shown, "kind": kind, "error": str(exc)})
            continue
        if isinstance(res, OpenPoint):
            outcomes.append({
                "point": shown, "kind": "open",
                "label": fmt_rational(res.label),
                "level": res.level, "vertex": res.vertex,
            })
        else:
            outcomes.append({
                "point": shown, "kind": "closed",
                "carriers": [{
                    "level": e.level, "cell": e.cell,
                    "interval": [fmt_rational(e.interval[0]),
                                 fmt_rational(e.interval[1])],
                    "width": fmt_rational(e.width),
                } for e in res.carriers],
            })
    out = {
        "input": path,
        "m": tower.m,
        "degrees": list(tower.degrees),
        "cycle_sizes": list(tower.cycle_sizes),
        "points": outcomes,
    }
    if cfg.level is not None:
        record = decomposition(PolygonDegeneration(tower.m), cfg.level)
        out["decomposition"] = {
            "level": record.level,
            "open_slots": record.slot_count,
            "non_klt_cells": record.non_klt_cells,
        }
    return out


# -- the subcommands ---------------------------------------------------------


def _ptrop_line(r: dict) -> str:
    pts = " ".join("[" + ":".join(p) + "]" for p in r["points"]) or "(none)"
    agree = "agree" if r["routes_agree"] else "DISAGREE"
    clusters = "" if r["oracle_clusters"] is None else \
        f", {len(r['oracle_clusters'])} oracle clusters"
    return f"points {pts}, routes {agree}{clusters}"


def _galaxy_line(r: dict) -> str:
    line = " ".join(f"{p['point']}:{p['kind']}"
                    for p in r["points"]) or "(no points)"
    d = r.get("decomposition")
    return line if d is None else (
        f"{line}, level {d['level']}: {d['open_slots']} open slots, "
        f"{d['non_klt_cells']} non-klt cells")


def _cells_line(r: dict) -> str:
    counts = " ".join(f"{d}:{c}" for d, c in r["counts"].items())
    return f"cells {counts}, euler {r['euler']}"


# a subcommand: the function that makes one result, its --help line, the
# flags it takes beyond --json and --output, and the text line of a result
Command = namedtuple("Command", "handler help flags summary")

# in the order --help lists them, each row's flags in registration order
COMMANDS = {
    "trop": Command(
        handle_trop, "cell structure of a tropical hypersurface", (),
        lambda r: f"{r['cell_count']} cells, degree {r['degree']}"),
    "ptrop": Command(
        handle_ptrop, "projective tropicalization of a germ, with oracle",
        ("--seed",), _ptrop_line),
    "fan-validate": Command(
        handle_fan_validate, "check the fan axioms and completeness",
        ("--svg",), lambda r: f"{r['maximal_cones']} maximal cones, " + (
            "INVALID" if not r["valid"] else
            "valid complete" if r["complete"] else "valid")),
    "refine": Command(
        handle_refine, "common refinement of two fans", ("--svg",),
        lambda r: f"{r['maximal_cones']} maximal cones"),
    "limit-point": Command(
        handle_limit_point, "resolve a direction through a fan tower",
        ("--depth",), lambda r: "ray [" + ":".join(r["ray"]) + "]"
        if r["resolved"] else f"unresolved cone after depth {r['depth']}"),
    "fiber-rank": Command(
        handle_fiber_rank, "rank and fiber dimension of a symbolic vector",
        (), lambda r: f"rank {r['rank']}, fiber dim {r['fiber_dim']}, det "
                      f"{r['det']:+d}"),
    "dualcx": Command(
        handle_dualcx, "dual complex of a strata incidence file",
        ("--svg",), _cells_line),
    "subdivide": Command(
        handle_subdivide, "scale subdivision of an affine complex",
        ("--svg", "--N"), _cells_line),
    "rational-points": Command(
        handle_rational_points, "level-N rational points of a complex",
        ("--level",),
        lambda r: f"{r['count']} rational points at level {r['level']}"),
    "map-fibers": Command(
        handle_map_fibers, "exact fibers of a simplicial map dataset", (),
        lambda r: (", ".join(f"({p['cell']}) chi={p['euler']}"
                             for p in r["points"]) or "(no points)") + (
            "" if "mismatch" not in r else
            ", mismatch" if r["mismatch"] else ", match")),
    "toric-fiber": Command(
        handle_toric_fiber, "fiber complex of a compatible map of fans", (),
        _cells_line),
    "galaxy": Command(
        handle_galaxy, "classify angles along an elliptic tower",
        ("--depth", "--level"), _galaxy_line),
}
# dispatch reads this dict of plain functions, which a tracer may rebind
_HANDLERS = {name: command.handler for name, command in COMMANDS.items()}

# each flag's one argparse spec; a flag left out is left off the parsed
# namespace, so its default is JobConfig's
_FLAGS = {
    "--json": dict(action="store_true", dest="json_out",
                   help="emit the report as canonical JSON"),
    "--output": dict(metavar="PATH",
                     help="write the primary artifact or report here"),
    "--seed": dict(type=int, help="seed of the coefficient lift and oracle"),
    "--depth": dict(type=int,
                    help=f"tower depth cap (max {TOWER_DEPTH_CAP})"),
    "--svg": dict(action="store_true",
                  help="also write an SVG next to the output"),
    "--N": dict(type=int, dest="level", metavar="N"),
    "--level": dict(type=int, dest="level", metavar="N"),
}


# -- report assembly ---------------------------------------------------------


def run(cfg: JobConfig) -> dict:
    """Execute the job and return the report."""
    refine = cfg.subcommand == "refine"
    paths = list(cfg.inputs) if refine else sorted(cfg.inputs)
    # hashed before any handler runs: an artifact's --output may name an input
    inputs = [{"path": p, "sha256": sha256_file(p)} for p in paths]
    handler = _HANDLERS[cfg.subcommand]
    results = [handler(cfg)] if refine else [handler(cfg, p) for p in paths]
    return {
        "command": cfg.subcommand,
        "seed": cfg.seed,
        "inputs": inputs,
        "results": results,
    }


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}  seed: {report['seed']}"]
    for item in report["inputs"]:
        lines.append(f"input: {item['path']}  sha256: "
                     f"{item['sha256'][:12]}")
    summary = COMMANDS[report["command"]].summary
    for res in report["results"]:
        head = res["input"] if "input" in res else " + ".join(res["inputs"])
        lines.append(f"{head}: {summary(res)}")
    return "\n".join(lines) + "\n"


# -- argument parsing --------------------------------------------------------


class _LazySubparser:
    """A subcommand's parser, built only when its command line is parsed.

    argparse's subparsers action calls nothing on a sub-parser but
    `parse_known_args`, so a run builds the one parser it uses instead of
    all of them; each call builds afresh, so nothing is kept."""

    def __init__(self, flags, **kwargs):
        self.flags = flags
        self.kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        p = argparse.ArgumentParser(argument_default=argparse.SUPPRESS,
                                    **self.kwargs)
        p.add_argument("inputs", nargs="+", metavar="FILE")
        for flag in ("--json", "--output") + self.flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troplim",
        description="Exact tropical limits: fans, germs, skeletons, towers.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_LazySubparser)
    for name, command in COMMANDS.items():
        sub.add_parser(name, help=command.help, flags=command.flags)
    return parser


def config_from_args(args: argparse.Namespace) -> JobConfig:
    return JobConfig(**{**vars(args), "inputs": tuple(args.inputs)})


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run(cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except ResourceCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except TropLimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report_file = cfg.output and cfg.subcommand not in _ARTIFACT_COMMANDS
    doc = canonical_json(report) if cfg.json_out or report_file else None
    sys.stdout.write(doc if cfg.json_out else render_text(report))
    if report_file:
        _write(cfg.output, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
