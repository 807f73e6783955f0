"""File formats: exact JSON schemas, parsing, canonical serialization.

Every rational travels as a string "p/q" (or "k") and ray coordinates as
strings, so nothing is ever squeezed through floating point.  Canonical
serialization is deterministic: sorted keys, two-space indent, trailing
newline.  serialize(parse(x)) is byte-identical for canonical files, which
keeps golden outputs stable, and reports embed sha256 digests of their
inputs instead of timestamps.

Schemas (all JSON objects):
  fan         {"rank": n, "rays": [["a", "b", ...], ...],
               "maximal_cones": [[ray indices], ...]}
  polynomial  {"vars": n, "terms": [{"exp": [ints], "val": "p/q"}, ...]}
  incidence   {"mode": "analytic"|"algebraic",
               "strata": [{"name": s, "codim": int, "branches": int}, ...],
               "closures": [["lower", "upper"], ...]}
  complex     {"cells": [{"name": s, "faces": [names]}, ...],
               "affine": bool, "provenance": str|null}
  vector      {"symbols": [{"name": s, "lo": "p/q", "hi": "p/q"}, ...],
               "entries": ["p/q" or ["c0", "c1", ...], ...]}
  tower       {"base_fan": fan, "strategy": {"kind": ...}, "steps": int}
              or {"elliptic": {"m": int, "degrees": [ints]}}
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import Optional, Union

from .complexes import DeltaComplex, StrataIncidence, make_complex, make_incidence
from .errors import ParseError
from .fans import Fan, fan_from_cones
from .galaxy import EllipticTower, elliptic_tower
from .lattice import Cone, cone_from_generators
from .towers import (
    CommonRefineWith,
    FanTower,
    StellarAtBarycenters,
    Symbol,
    SymbolicVector,
    TowardDirection,
    extend_tower,
    fan_tower,
    symbolic_vector,
)
from .tropical import TropicalPolynomial, trop_poly


# -- primitives --------------------------------------------------------------


def canonical_json(obj) -> str:
    """Deterministic rendering used for every file and report."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


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


def parse_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{where}: expected an integer, got {value!r}")


def fmt_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return [parse_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


# -- fans --------------------------------------------------------------------


def parse_fan_data(obj: dict, where: str) -> tuple[int, list[Cone]]:
    """Rank and maximal cones, without imposing the fan axioms."""
    rank = parse_int(require_field(obj, "rank", where), f"{where}.rank")
    rays_raw = require_field(obj, "rays", where)
    if not isinstance(rays_raw, list):
        raise ParseError(f"{where}.rays: expected a list")
    rays = []
    for i, r in enumerate(rays_raw):
        v = _int_list(r, f"{where}.rays[{i}]")
        if len(v) != rank:
            raise ParseError(
                f"{where}.rays[{i}]: length {len(v)} does not match rank "
                f"{rank}")
        rays.append(tuple(v))
    cones_raw = require_field(obj, "maximal_cones", where)
    if not isinstance(cones_raw, list):
        raise ParseError(f"{where}.maximal_cones: expected a list")
    cones = []
    for i, idxs in enumerate(cones_raw):
        ii = _int_list(idxs, f"{where}.maximal_cones[{i}]")
        for j in ii:
            if not 0 <= j < len(rays):
                raise ParseError(
                    f"{where}.maximal_cones[{i}]: ray index {j} out of "
                    f"range")
        cones.append(cone_from_generators([rays[j] for j in ii], n=rank))
    return rank, cones


def parse_fan(path: str) -> Fan:
    obj = load_json(path)
    rank, cones = parse_fan_data(obj, path)
    return fan_from_cones(cones, n=rank)


def serialize_fan(fan: Fan) -> dict:
    rays = sorted({r for c in fan.maximal for r in c.rays})
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
    terms_raw = require_field(obj, "terms", path)
    if not isinstance(terms_raw, list):
        raise ParseError(f"{path}.terms: expected a list")
    terms = []
    for i, t in enumerate(terms_raw):
        if not isinstance(t, dict):
            raise ParseError(f"{path}.terms[{i}]: expected an object")
        exp = _int_list(require_field(t, "exp", f"{path}.terms[{i}]"),
                        f"{path}.terms[{i}].exp")
        if len(exp) != n:
            raise ParseError(
                f"{path}.terms[{i}].exp: length {len(exp)} does not match "
                f"vars {n}")
        val = parse_rational(require_field(t, "val", f"{path}.terms[{i}]"),
                             f"{path}.terms[{i}].val")
        terms.append((tuple(exp), val))
    return trop_poly(terms, n=n)


# -- incidence and complexes -------------------------------------------------


def parse_incidence(path: str) -> StrataIncidence:
    obj = load_json(path)
    mode = require_field(obj, "mode", path)
    strata_raw = require_field(obj, "strata", path)
    if not isinstance(strata_raw, list):
        raise ParseError(f"{path}.strata: expected a list")
    strata = []
    for i, s in enumerate(strata_raw):
        w = f"{path}.strata[{i}]"
        if not isinstance(s, dict):
            raise ParseError(f"{w}: expected an object")
        strata.append((
            str(require_field(s, "name", w)),
            parse_int(require_field(s, "codim", w), f"{w}.codim"),
            parse_int(require_field(s, "branches", w), f"{w}.branches"),
        ))
    closures_raw = require_field(obj, "closures", path)
    if not isinstance(closures_raw, list):
        raise ParseError(f"{path}.closures: expected a list")
    closures = []
    for i, pair in enumerate(closures_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(
                f"{path}.closures[{i}]: expected a [lower, upper] pair")
        closures.append((str(pair[0]), str(pair[1])))
    return make_incidence(mode, strata, closures)


def parse_complex_data(obj: dict, where: str) -> DeltaComplex:
    cells_raw = require_field(obj, "cells", where)
    if not isinstance(cells_raw, list):
        raise ParseError(f"{where}.cells: expected a list")
    cells = []
    for i, c in enumerate(cells_raw):
        w = f"{where}.cells[{i}]"
        if not isinstance(c, dict):
            raise ParseError(f"{w}: expected an object")
        faces = require_field(c, "faces", w)
        if not isinstance(faces, list):
            raise ParseError(f"{w}.faces: expected a list")
        cells.append((str(require_field(c, "name", w)), [str(f) for f in faces]))
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


# -- symbolic vectors --------------------------------------------------------


def parse_symbolic_vector_data(obj: dict, where: str) -> SymbolicVector:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    symbols_raw = obj.get("symbols", [])
    if not isinstance(symbols_raw, list):
        raise ParseError(f"{where}.symbols: expected a list")
    symbols = []
    for i, s in enumerate(symbols_raw):
        w = f"{where}.symbols[{i}]"
        if not isinstance(s, dict):
            raise ParseError(f"{w}: expected an object")
        symbols.append(Symbol(
            str(require_field(s, "name", w)),
            parse_rational(require_field(s, "lo", w), f"{w}.lo"),
            parse_rational(require_field(s, "hi", w), f"{w}.hi"),
        ))
    entries_raw = require_field(obj, "entries", where)
    if not isinstance(entries_raw, list):
        raise ParseError(f"{where}.entries: expected a list")
    entries = []
    for i, e in enumerate(entries_raw):
        w = f"{where}.entries[{i}]"
        if isinstance(e, list):
            entries.append([parse_rational(c, f"{w}[{j}]")
                            for j, c in enumerate(e)])
        else:
            entries.append(parse_rational(e, w))
    return symbolic_vector(entries, symbols)


# -- towers ------------------------------------------------------------------


def _parse_strategy(obj: dict, where: str):
    kind = require_field(obj, "kind", where)
    if kind == "stellar-at-barycenters":
        return StellarAtBarycenters()
    if kind == "toward-direction":
        direction = require_field(obj, "direction", where)
        if not isinstance(direction, dict):
            raise ParseError(f"{where}.direction: expected a vector object")
        return TowardDirection(
            parse_symbolic_vector_data(direction, f"{where}.direction"))
    if kind == "common-refine-with":
        fan_obj = require_field(obj, "fan", where)
        if not isinstance(fan_obj, dict):
            raise ParseError(f"{where}.fan: expected a fan object")
        rank, cones = parse_fan_data(fan_obj, f"{where}.fan")
        return CommonRefineWith(fan_from_cones(cones, n=rank))
    raise ParseError(f"{where}.kind: unknown strategy {kind!r}")


def parse_elliptic(obj: dict, where: str, tower: bool = False
                   ) -> tuple[int, Optional[list[int]]]:
    """m and degrees of the {"elliptic": {"m": int, "degrees": [ints]}} form.

    A single cycle I_m needs only m (degrees come back None); a tower also
    requires the list of cumulative degrees.
    """
    ell = require_field(obj, "elliptic", where)
    where = f"{where}.elliptic"
    if not isinstance(ell, dict):
        raise ParseError(f"{where}: expected an object")
    m = parse_int(require_field(ell, "m", where), f"{where}.m")
    if not tower:
        return m, None
    return m, _int_list(require_field(ell, "degrees", where),
                        f"{where}.degrees")


def tower_spec_from_data(obj: dict, path: str
                         ) -> Union[FanTower, EllipticTower]:
    if "elliptic" in obj:
        return elliptic_tower(*parse_elliptic(obj, path, tower=True))
    base_obj = require_field(obj, "base_fan", path)
    if not isinstance(base_obj, dict):
        raise ParseError(f"{path}.base_fan: expected a fan object")
    rank, cones = parse_fan_data(base_obj, f"{path}.base_fan")
    base = fan_from_cones(cones, n=rank)
    tower = fan_tower(base)
    steps = parse_int(obj.get("steps", 0), f"{path}.steps")
    if steps:
        strategy_obj = require_field(obj, "strategy", path)
        if not isinstance(strategy_obj, dict):
            raise ParseError(f"{path}.strategy: expected an object")
        tower = extend_tower(tower, _parse_strategy(strategy_obj,
                                                    f"{path}.strategy"),
                             steps)
    return tower


# -- report helpers ----------------------------------------------------------


def cone_to_json(cone: Cone) -> dict:
    out: dict = {"rays": [[str(a) for a in r] for r in cone.rays]}
    if cone.lines:
        out["lines"] = [[str(a) for a in l] for l in cone.lines]
    return out
