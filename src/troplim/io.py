"""File formats: exact JSON schemas, parsing, canonical serialization.

Every rational travels as a string "p/q" (or "k") and ray coordinates as
strings, so nothing is ever squeezed through floating point.  Canonical
serialization is deterministic: sorted keys, two-space indent, trailing
newline.  serialize(parse(x)) is byte-identical for canonical files, which
keeps golden outputs stable, and reports embed sha256 digests of their
inputs instead of timestamps.

This module owns every input schema: each file reader `parse_*(path)`
checks the file against its schema and returns library objects, so a file
that breaks the schema raises a ParseError naming the field.

Schemas (all JSON objects):
  fan         {"rank": n >= 0, "rays": [["a", "b", ...], ...],
               "maximal_cones": [[ray indices], ...]}
  polynomial  {"vars": n, "terms": [{"exp": [ints >= 0], "val": "p/q"},
               ...]} with at least one term
  incidence   {"mode": "analytic"|"algebraic",
               "strata": [{"name": s, "codim": int, "branches": int}, ...],
               "closures": [["lower", "upper"], ...]}
  complex     {"cells": [{"name": s, "faces": [names]}, ...],
               "affine": bool, "provenance": str|null}
               or {"elliptic": {"m": int}} for the I_m cycle
  vector      {"symbols": [symbol, ...],
               "entries": ["p/q" or ["c0", "c1", ...], ...]}
  symbol      {"name": s, "lo": "p/q", "hi": "p/q"} with lo <= hi
  tower       {"base_fan": fan, "strategy": {"kind": ...}, "steps": int >= 0,
               "direction": vector (default: the toward-direction target)}
  galaxy      {"elliptic": {"m": int, "degrees": [ints]},
               "points": ["p/q" or {"symbol": symbol}, ...]}
  map         {"source": complex, "target": complex,
               "vertex_map": {name: name},
               "cell_images": {name: [name, [ints]]} or null,
               "reference": complex or null,
               "points": [{"cell": name, "coords": ["p/q", ...]}, ...]}
  toric map   {"matrix": [[ints]], "source": fan, "target": fan,
               "base": {"rays": [[ints], ...]}}
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Union

from .complexes import (
    INCIDENCE_MODES,
    ComplexMap,
    DeltaComplex,
    StrataIncidence,
    induced_map,
    make_complex,
    make_incidence,
)
from .errors import ParseError, ValidationError
from .fans import Fan, fan_from_cones
from .galaxy import (
    EllipticTower,
    GalaxyPoint,
    PolygonDegeneration,
    elliptic_tower,
    galaxy_point,
)
from .lattice import Cone, cone_from_generators
from .towers import (
    CommonRefineWith,
    StellarAtBarycenters,
    Symbol,
    SymbolicVector,
    TowardDirection,
    symbolic_vector,
)
from .tropical import TropicalPolynomial, trop_poly


# -- primitives --------------------------------------------------------------

_INF = float("inf")


def canonical_json(obj) -> str:
    """Deterministic rendering used for every file and report: the text of
    ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline.

    json's encoder leaves its C code whenever an indent is set, so the text
    is written here instead: one recursive pass appending to one list.
    """
    out: list[str] = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(obj, out: list[str], nl: str):
    """Append the JSON of obj, nested at the indent ``nl`` (newline and
    spaces), to out.  Strings come first because they are most leaves."""
    if type(obj) is str:
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        head, sep = "{" + inner, "," + inner
        for key, value in sorted(obj.items()):
            out.append(head + _json_key(key) + ": ")
            _write_json(value, out, inner)
            head = sep
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        head, sep = "[" + inner, "," + inner
        for value in obj:
            out.append(head)
            _write_json(value, out, inner)
            head = sep
        out.append(nl + "]")
    else:
        out.append(_json_scalar(obj))


def _json_scalar(obj) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(_json_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def sha256_file(path: str) -> str:
    """Digest of a file's bytes; a file that cannot be read is a ParseError,
    as in `load_json`."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return obj


def require_field(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


def _name(value, where: str) -> str:
    """A cell, stratum or symbol name, which must be a JSON string."""
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    return value


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"-?[0-9]+")


def parse_rational(value, where: str) -> Fraction:
    """An int, or a string in the "p/q" / "k" schema (no spaces, exponents
    or underscores)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"{where}: expected a rational string, got {value!r}")
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ParseError(f"{where}: bad rational {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {value!r}") from exc


def parse_int(value, where: str, low: Optional[int] = None) -> int:
    """An int, or a string of one in the "k" schema (an optional minus and
    digits only); at least `low` when that is given."""
    if isinstance(value, bool) or not isinstance(value, (int, str)) or \
            isinstance(value, str) and not _INTEGER.fullmatch(value):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    try:
        n = int(value)
    except ValueError:  # more digits than int() converts
        raise ParseError(
            f"{where}: expected an integer, got {value!r}") from None
    if low is not None and n < low:
        raise ParseError(f"{where}: expected an integer >= {low}, got {n}")
    return n


def fmt_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _int_list(value, where: str, low: Optional[int] = None) -> list[int]:
    return [parse_int(v, f"{where}[{i}]", low)
            for i, v in enumerate(_list(value, where))]


def _int_rows(value, where: str) -> list[list[int]]:
    return [_int_list(row, f"{where}[{i}]")
            for i, row in enumerate(_list(value, where))]


# -- fans --------------------------------------------------------------------


def parse_fan_data(obj, where: str) -> tuple[int, list[Cone]]:
    """Rank and maximal cones of a fan object, without the fan axioms."""
    obj = _object(obj, where)
    rank = parse_int(require_field(obj, "rank", where), f"{where}.rank",
                     low=0)
    rays = _int_rows(require_field(obj, "rays", where), f"{where}.rays")
    for i, ray in enumerate(rays):
        if len(ray) != rank:
            raise ParseError(
                f"{where}.rays[{i}]: length {len(ray)} does not match rank "
                f"{rank}")
    cones = []
    for i, idxs in enumerate(_int_rows(
            require_field(obj, "maximal_cones", where),
            f"{where}.maximal_cones")):
        for j in idxs:
            if not 0 <= j < len(rays):
                raise ParseError(
                    f"{where}.maximal_cones[{i}]: ray index {j} out of "
                    f"range")
        cones.append(cone_from_generators([rays[j] for j in idxs], n=rank))
    return rank, cones


def _fan(obj, where: str) -> Fan:
    rank, cones = parse_fan_data(obj, where)
    return fan_from_cones(cones, n=rank)


def parse_fan(path: str) -> Fan:
    return _fan(load_json(path), path)


def parse_fan_cones(path: str) -> tuple[int, list[Cone]]:
    """Rank and maximal cones of a fan file, for reporting fan violations."""
    return parse_fan_data(load_json(path), path)


def parse_toric_fiber(path: str) -> tuple[list[list[int]], Fan, Fan, Cone]:
    """Lattice map, source and target fans and base cone of a toric-fiber
    file."""
    obj = load_json(path)
    matrix = _int_rows(require_field(obj, "matrix", path), f"{path}.matrix")
    source, target = (_fan(require_field(obj, k, path), f"{path}.{k}")
                      for k in ("source", "target"))
    base = _object(require_field(obj, "base", path), f"{path}.base")
    rays = _int_rows(require_field(base, "rays", f"{path}.base"),
                     f"{path}.base.rays")
    return matrix, source, target, cone_from_generators(rays, n=target.n)


def serialize_fan(fan: Fan) -> dict:
    rays = fan.rays
    index = {r: i for i, r in enumerate(rays)}
    return {
        "rank": fan.n,
        "rays": [[str(a) for a in r] for r in rays],
        "maximal_cones": sorted([index[r] for r in c.rays]
                                for c in fan.maximal),
    }


# -- polynomials -------------------------------------------------------------


def parse_polynomial(path: str) -> TropicalPolynomial:
    obj = load_json(path)
    n = parse_int(require_field(obj, "vars", path), f"{path}.vars")
    terms_raw = _list(require_field(obj, "terms", path), f"{path}.terms")
    if not terms_raw:
        raise ParseError(f"{path}.terms: expected at least one term")
    terms = []
    for i, t in enumerate(terms_raw):
        where = f"{path}.terms[{i}]"
        t = _object(t, where)
        exp = _int_list(require_field(t, "exp", where), f"{where}.exp",
                        low=0)
        if len(exp) != n:
            raise ParseError(
                f"{where}.exp: length {len(exp)} does not match vars {n}")
        val = parse_rational(require_field(t, "val", where), f"{where}.val")
        terms.append((tuple(exp), val))
    return trop_poly(terms, n=n)


# -- incidence and complexes -------------------------------------------------


def parse_incidence(path: str) -> StrataIncidence:
    obj = load_json(path)
    mode = require_field(obj, "mode", path)
    if mode not in INCIDENCE_MODES:
        raise ParseError(f"{path}.mode: expected " + " or ".join(
            map(repr, INCIDENCE_MODES)) + f", got {mode!r}")
    strata = []
    for i, s in enumerate(_list(require_field(obj, "strata", path),
                                f"{path}.strata")):
        w = f"{path}.strata[{i}]"
        s = _object(s, w)
        strata.append((
            _name(require_field(s, "name", w), f"{w}.name"),
            parse_int(require_field(s, "codim", w), f"{w}.codim"),
            parse_int(require_field(s, "branches", w), f"{w}.branches"),
        ))
    closures = []
    for i, pair in enumerate(_list(require_field(obj, "closures", path),
                                   f"{path}.closures")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(
                f"{path}.closures[{i}]: expected a [lower, upper] pair")
        closures.append(tuple(_name(v, f"{path}.closures[{i}][{j}]")
                              for j, v in enumerate(pair)))
    return make_incidence(mode, strata, closures)


def parse_complex_data(obj, where: str) -> DeltaComplex:
    obj = _object(obj, where)
    cells = []
    for i, c in enumerate(_list(require_field(obj, "cells", where),
                                f"{where}.cells")):
        w = f"{where}.cells[{i}]"
        c = _object(c, w)
        faces = _list(require_field(c, "faces", w), f"{w}.faces")
        cells.append((_name(require_field(c, "name", w), f"{w}.name"),
                      [_name(f, f"{w}.faces[{j}]")
                       for j, f in enumerate(faces)]))
    affine = obj.get("affine", True)
    if not isinstance(affine, bool):
        raise ParseError(f"{where}.affine: expected a boolean")
    provenance = obj.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise ParseError(f"{where}.provenance: expected a string or null")
    return make_complex(cells, affine=affine, provenance=provenance)


def serialize_complex(x: DeltaComplex) -> dict:
    return {
        "cells": [{"name": c.name, "faces": list(c.faces)} for c in x.cells],
        "affine": x.affine,
        "provenance": x.provenance,
    }


def _cycle_size(obj: dict, where: str) -> tuple[int, dict]:
    """m of the {"elliptic": {"m": int, ...}} form, and the inner object."""
    ell = _object(require_field(obj, "elliptic", where), f"{where}.elliptic")
    where = f"{where}.elliptic"
    return parse_int(require_field(ell, "m", where), f"{where}.m"), ell


def parse_cycle_or_complex(path: str
                           ) -> Union[PolygonDegeneration, DeltaComplex]:
    """A complex file, or {"elliptic": {"m": k}} for the I_k cycle."""
    obj = load_json(path)
    if "elliptic" in obj:
        return PolygonDegeneration(_cycle_size(obj, path)[0])
    return parse_complex_data(obj, path)


def parse_map_fibers(path: str) -> tuple[
        ComplexMap, Optional[DeltaComplex], list[tuple[str, list[Fraction]]]]:
    """The simplicial map, the optional reference complex and the query
    points (cell name, barycentric coordinates) of a map-fibers file."""
    obj = load_json(path)
    source, target = (parse_complex_data(require_field(obj, k, path),
                                         f"{path}.{k}")
                      for k in ("source", "target"))
    vertex_map = {k: _name(v, f"{path}.vertex_map[{k!r}]")
                  for k, v in _object(require_field(obj, "vertex_map", path),
                                      f"{path}.vertex_map").items()}
    cell_images = None
    if obj.get("cell_images") is not None:
        cell_images = {}
        for k, v in _object(obj["cell_images"],
                            f"{path}.cell_images").items():
            w = f"{path}.cell_images[{k!r}]"
            if not (isinstance(v, list) and len(v) == 2):
                raise ParseError(f"{w}: expected [target cell, phi]")
            cell_images[k] = (_name(v[0], f"{w}[0]"),
                              tuple(_int_list(v[1], f"{w}[1]")))
    reference = None
    if obj.get("reference") is not None:
        reference = parse_complex_data(obj["reference"], f"{path}.reference")
    points = []
    for i, pt in enumerate(_list(require_field(obj, "points", path),
                                 f"{path}.points")):
        w = f"{path}.points[{i}]"
        pt = _object(pt, w)
        coords = _list(require_field(pt, "coords", w), f"{w}.coords")
        points.append((_name(require_field(pt, "cell", w), f"{w}.cell"),
                       [parse_rational(c, f"{w}.coords[{j}]")
                        for j, c in enumerate(coords)]))
    return (induced_map(source, target, vertex_map, cell_images), reference,
            points)


# -- symbolic vectors --------------------------------------------------------


def _symbol(obj, where: str) -> Symbol:
    obj = _object(obj, where)
    name = _name(require_field(obj, "name", where), f"{where}.name")
    lo, hi = (parse_rational(require_field(obj, k, where), f"{where}.{k}")
              for k in ("lo", "hi"))
    if lo > hi:
        raise ParseError(f"{where}: lo {fmt_rational(lo)} exceeds hi "
                         f"{fmt_rational(hi)}")
    return Symbol(name, lo, hi)


def parse_symbolic_vector_data(obj, where: str) -> SymbolicVector:
    obj = _object(obj, where)
    symbols = [_symbol(s, f"{where}.symbols[{i}]") for i, s in enumerate(
        _list(obj.get("symbols", []), f"{where}.symbols"))]
    entries = []
    for i, e in enumerate(_list(require_field(obj, "entries", where),
                                f"{where}.entries")):
        w = f"{where}.entries[{i}]"
        if isinstance(e, list):
            entries.append([parse_rational(c, f"{w}[{j}]")
                            for j, c in enumerate(e)])
        else:
            entries.append(parse_rational(e, w))
    return symbolic_vector(entries, symbols)


def parse_symbolic_vector(path: str) -> SymbolicVector:
    return parse_symbolic_vector_data(load_json(path), path)


# -- towers and galaxies ------------------------------------------------------


def parse_galaxy(path: str) -> tuple[EllipticTower, list[GalaxyPoint]]:
    """The elliptic tower and the angles of a galaxy file."""
    obj = load_json(path)
    m, ell = _cycle_size(obj, path)
    degrees = _int_list(require_field(ell, "degrees", f"{path}.elliptic"),
                        f"{path}.elliptic.degrees")
    points = []
    for i, raw in enumerate(_list(obj.get("points", []), f"{path}.points")):
        where = f"{path}.points[{i}]"
        if isinstance(raw, dict):
            point = _symbol(require_field(raw, "symbol", where),
                            f"{where}.symbol")
        else:
            point = parse_rational(raw, where)
        points.append(galaxy_point(point))
    return elliptic_tower(m, degrees), points


def _parse_strategy(obj, where: str):
    obj = _object(obj, where)
    kind = require_field(obj, "kind", where)
    if kind == "stellar-at-barycenters":
        return StellarAtBarycenters()
    if kind == "toward-direction":
        return TowardDirection(parse_symbolic_vector_data(
            require_field(obj, "direction", where), f"{where}.direction"))
    if kind == "common-refine-with":
        return CommonRefineWith(_fan(require_field(obj, "fan", where),
                                     f"{where}.fan"))
    raise ParseError(f"{where}.kind: unknown strategy {kind!r}")


def parse_limit_point(path: str) -> tuple[Fan, object, int, SymbolicVector]:
    """Base fan, refinement strategy, step count and direction of a fan
    tower file.

    The tower is not extended here, so a caller can hold the step count
    against its depth cap first.  The strategy is None when the file has
    neither steps nor a strategy; the direction defaults to the target of
    a toward-direction strategy.
    """
    obj = load_json(path)
    if "elliptic" in obj:
        raise ValidationError(
            f"{path}: limit-point needs a fan tower, not an elliptic tower "
            f"input")
    base = _fan(require_field(obj, "base_fan", path), f"{path}.base_fan")
    steps = parse_int(obj.get("steps", 0), f"{path}.steps", low=0)
    strategy = None
    if steps or "strategy" in obj:
        strategy = _parse_strategy(require_field(obj, "strategy", path),
                                   f"{path}.strategy")
    if "direction" in obj:
        direction = parse_symbolic_vector_data(obj["direction"],
                                               f"{path}.direction")
    elif isinstance(strategy, TowardDirection):
        direction = strategy.target
    else:
        raise ParseError(f"{path}: missing field 'direction'")
    return base, strategy, steps, direction


# -- report helpers ----------------------------------------------------------


def cone_to_json(cone: Cone) -> dict:
    out: dict = {"rays": [[str(a) for a in r] for r in cone.rays]}
    if cone.lines:
        out["lines"] = [[str(a) for a in l] for l in cone.lines]
    return out
