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
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not UTF-8 text") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested too deeply to parse") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return obj


_REQUIRED = object()


def _field(obj, key: str, where: str, read, *args, default=_REQUIRED):
    """Field `key` of the object at `where`, as ``read(value,
    f"{where}.{key}", *args)``, so every error names the field's path.  A
    missing field is a ParseError unless a default is given, which is
    returned unread."""
    if key not in _object(obj, where):
        if default is _REQUIRED:
            raise ParseError(f"{where}: missing field {key!r}")
        return default
    return read(obj[key], f"{where}.{key}", *args)


def _items(value, where: str) -> list[tuple[object, str]]:
    """Each item of the list at `where`, with its path."""
    return [(v, f"{where}[{i}]") for i, v in enumerate(_list(value, where))]


def _typed(value, where: str, types, expected: str):
    if not isinstance(value, types):
        raise ParseError(f"{where}: expected {expected}")
    return value


def _object(value, where: str) -> dict:
    return _typed(value, where, dict, "an object")


def _list(value, where: str) -> list:
    return _typed(value, where, list, "a list")


def _pair(value, where: str, expected: str) -> list[tuple[object, str]]:
    """The two items of a two-item list, with their paths."""
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected {expected}")
    return _items(value, where)


def _map(value, where: str, read) -> dict:
    """Each value of the object at `where`, read at its key's path."""
    return {k: read(v, f"{where}[{k!r}]")
            for k, v in _object(value, where).items()}


def _nullable(value, where: str, read, *args):
    return None if value is None else read(value, where, *args)


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
    return [parse_int(v, w, low) for v, w in _items(value, where)]


def _int_rows(value, where: str) -> list[list[int]]:
    return [_int_list(row, w) for row, w in _items(value, where)]


def _sized(row: list, where: str, n: int, of: str) -> list:
    if len(row) != n:
        raise ParseError(
            f"{where}: length {len(row)} does not match {of} {n}")
    return row


# -- fans --------------------------------------------------------------------


def _rays(value, where: str, rank: int) -> list[list[int]]:
    """Every ray is read before any length is checked."""
    return [_sized(ray, w, rank, "rank")
            for ray, w in _items(_int_rows(value, where), where)]


def _cones(value, where: str, rays: list, rank: int) -> list[Cone]:
    cones = []
    for idxs, w in _items(_int_rows(value, where), where):
        for j in idxs:
            if not 0 <= j < len(rays):
                raise ParseError(f"{w}: ray index {j} out of range")
        cones.append(cone_from_generators([rays[j] for j in idxs], n=rank))
    return cones


def parse_fan_data(obj, where: str) -> tuple[int, list[Cone]]:
    """Rank and maximal cones of a fan object, without the fan axioms."""
    rank = _field(obj, "rank", where, parse_int, 0)
    rays = _field(obj, "rays", where, _rays, rank)
    return rank, _field(obj, "maximal_cones", where, _cones, rays, rank)


def _fan(obj, where: str) -> Fan:
    rank, cones = parse_fan_data(obj, where)
    return fan_from_cones(cones, n=rank)


def parse_fan(path: str) -> Fan:
    return _fan(load_json(path), path)


def parse_fan_cones(path: str) -> tuple[int, list[Cone]]:
    """Rank and maximal cones of a fan file, for reporting fan violations."""
    return parse_fan_data(load_json(path), path)


def _cone(obj, where: str, n: int) -> Cone:
    return cone_from_generators(_field(obj, "rays", where, _int_rows), n=n)


def parse_toric_fiber(path: str) -> tuple[list[list[int]], Fan, Fan, Cone]:
    """Lattice map, source and target fans and base cone of a toric-fiber
    file."""
    obj = load_json(path)
    matrix = _field(obj, "matrix", path, _int_rows)
    source, target = (_field(obj, k, path, _fan) for k in ("source", "target"))
    return matrix, source, target, _field(obj, "base", path, _cone, target.n)


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


def _exponent(value, where: str, n: int) -> tuple[int, ...]:
    return tuple(_sized(_int_list(value, where, 0), where, n, "vars"))


def _terms(value, where: str, n: int) -> list[tuple[tuple, Fraction]]:
    terms = _items(value, where)
    if not terms:
        raise ParseError(f"{where}: expected at least one term")
    return [(_field(t, "exp", w, _exponent, n),
             _field(t, "val", w, parse_rational)) for t, w in terms]


def parse_polynomial(path: str) -> TropicalPolynomial:
    obj = load_json(path)
    n = _field(obj, "vars", path, parse_int)
    return trop_poly(_field(obj, "terms", path, _terms, n), n=n)


# -- incidence and complexes -------------------------------------------------


def _mode(value, where: str) -> str:
    if value not in INCIDENCE_MODES:
        raise ParseError(f"{where}: expected " + " or ".join(
            map(repr, INCIDENCE_MODES)) + f", got {value!r}")
    return value


def parse_incidence(path: str) -> StrataIncidence:
    obj = load_json(path)
    mode = _field(obj, "mode", path, _mode)
    strata = [(_field(s, "name", w, _name), _field(s, "codim", w, parse_int),
               _field(s, "branches", w, parse_int))
              for s, w in _field(obj, "strata", path, _items)]
    closures = [tuple(_name(v, vw) for v, vw in
                      _pair(pair, w, "a [lower, upper] pair"))
                for pair, w in _field(obj, "closures", path, _items)]
    return make_incidence(mode, strata, closures)


def parse_complex_data(obj, where: str) -> DeltaComplex:
    cells = []
    for c, w in _field(obj, "cells", where, _items):
        faces = _field(c, "faces", w, _items)
        cells.append((_field(c, "name", w, _name),
                      [_name(f, fw) for f, fw in faces]))
    affine = _field(obj, "affine", where, _typed, bool, "a boolean",
                    default=True)
    provenance = _field(obj, "provenance", where, _typed, (str, type(None)),
                        "a string or null", default=None)
    return make_complex(cells, affine=affine, provenance=provenance)


def serialize_complex(x: DeltaComplex) -> dict:
    return {
        "cells": [{"name": c.name, "faces": list(c.faces)} for c in x.cells],
        "affine": x.affine,
        "provenance": x.provenance,
    }


def _cycle_size(obj, where: str) -> int:
    """m of the {"m": int, ...} object under "elliptic"."""
    return _field(obj, "m", where, parse_int)


def _tower_data(obj, where: str) -> tuple[int, list[int]]:
    return _cycle_size(obj, where), _field(obj, "degrees", where, _int_list)


def parse_cycle_or_complex(path: str
                           ) -> Union[PolygonDegeneration, DeltaComplex]:
    """A complex file, or {"elliptic": {"m": k}} for the I_k cycle."""
    obj = load_json(path)
    if "elliptic" in obj:
        return PolygonDegeneration(_field(obj, "elliptic", path, _cycle_size))
    return parse_complex_data(obj, path)


def _image(value, where: str) -> tuple[str, tuple[int, ...]]:
    (cell, cell_at), (phi, phi_at) = _pair(value, where, "[target cell, phi]")
    return _name(cell, cell_at), tuple(_int_list(phi, phi_at))


def parse_map_fibers(path: str) -> tuple[
        ComplexMap, Optional[DeltaComplex], list[tuple[str, list[Fraction]]]]:
    """The simplicial map, the optional reference complex and the query
    points (cell name, barycentric coordinates) of a map-fibers file."""
    obj = load_json(path)
    source, target = (_field(obj, k, path, parse_complex_data)
                      for k in ("source", "target"))
    vertex_map = _field(obj, "vertex_map", path, _map, _name)
    cell_images = _field(obj, "cell_images", path, _nullable, _map, _image,
                         default=None)
    reference = _field(obj, "reference", path, _nullable, parse_complex_data,
                       default=None)
    points = []
    for pt, w in _field(obj, "points", path, _items):
        coords = _field(pt, "coords", w, _items)
        points.append((_field(pt, "cell", w, _name),
                       [parse_rational(c, cw) for c, cw in coords]))
    return (induced_map(source, target, vertex_map, cell_images), reference,
            points)


# -- symbolic vectors --------------------------------------------------------


def _symbol(obj, where: str) -> Symbol:
    name = _field(obj, "name", where, _name)
    lo, hi = (_field(obj, k, where, parse_rational) for k in ("lo", "hi"))
    if lo > hi:
        raise ParseError(f"{where}: lo {fmt_rational(lo)} exceeds hi "
                         f"{fmt_rational(hi)}")
    return Symbol(name, lo, hi)


def _entry(value, where: str, symbols: list[Symbol]):
    """A rational, or a list of its coefficients over 1 and the symbols."""
    if not isinstance(value, list):
        return parse_rational(value, where)
    if len(value) != len(symbols) + 1:
        basis = ", ".join(["1"] + [s.name for s in symbols])
        raise ParseError(f"{where}: expected one coefficient for each of "
                         f"({basis}), got {len(value)}")
    return [parse_rational(c, cw) for c, cw in _items(value, where)]


def parse_symbolic_vector_data(obj, where: str) -> SymbolicVector:
    symbols: list[Symbol] = []
    for s, w in _field(obj, "symbols", where, _items, default=[]):
        symbol = _symbol(s, w)
        earlier = [t.name for t in symbols]
        if symbol.name in earlier:
            raise ParseError(f"{w}.name: repeats the name {symbol.name!r} of "
                             f"symbols[{earlier.index(symbol.name)}]")
        symbols.append(symbol)
    entries = [_entry(e, w, symbols)
               for e, w in _field(obj, "entries", where, _items)]
    return symbolic_vector(entries, symbols)


def parse_symbolic_vector(path: str) -> SymbolicVector:
    return parse_symbolic_vector_data(load_json(path), path)


# -- towers and galaxies ------------------------------------------------------


def parse_galaxy(path: str) -> tuple[EllipticTower, list[GalaxyPoint]]:
    """The elliptic tower and the angles of a galaxy file."""
    obj = load_json(path)
    m, degrees = _field(obj, "elliptic", path, _tower_data)
    points = [galaxy_point(_field(raw, "symbol", w, _symbol)
                           if isinstance(raw, dict) else parse_rational(raw, w))
              for raw, w in _field(obj, "points", path, _items, default=[])]
    return elliptic_tower(m, degrees), points


def _strategy_kind(value, where: str) -> str:
    if value not in ("stellar-at-barycenters", "toward-direction",
                     "common-refine-with"):
        raise ParseError(f"{where}: unknown strategy {value!r}")
    return value


def _parse_strategy(obj, where: str):
    kind = _field(obj, "kind", where, _strategy_kind)
    if kind == "stellar-at-barycenters":
        return StellarAtBarycenters()
    if kind == "toward-direction":
        return TowardDirection(_field(obj, "direction", where,
                                      parse_symbolic_vector_data))
    return CommonRefineWith(_field(obj, "fan", where, _fan))


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
    base = _field(obj, "base_fan", path, _fan)
    steps = _field(obj, "steps", path, parse_int, 0, default=0)
    strategy = None
    if steps or "strategy" in obj:
        strategy = _field(obj, "strategy", path, _parse_strategy)
    if "direction" in obj or not isinstance(strategy, TowardDirection):
        direction = _field(obj, "direction", path, parse_symbolic_vector_data)
    else:
        direction = strategy.target
    return base, strategy, steps, direction


# -- report helpers ----------------------------------------------------------


def cone_to_json(cone: Cone) -> dict:
    out: dict = {"rays": [[str(a) for a in r] for r in cone.rays]}
    if cone.lines:
        out["lines"] = [[str(a) for a in l] for l in cone.lines]
    return out
