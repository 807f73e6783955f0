"""Per-layer tracing of troplim from outside the program.

`install` wraps the public functions of every layer module and rebinds each
name that refers to one of them in every loaded `troplim` module (the
modules import names with `from .lattice import ...`, so patching the
defining module alone would miss most calls), plus the two name lookups
`DeltaComplex.cell` and `SubdivisionResult.carrier` on their classes.  Each
call becomes a span (name, start, end, parent) kept in memory; self time is
a span's duration minus the time its child spans cover.  Nothing is changed
inside `src/`, and uninstalling restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

MODULES = ("_linalg", "lattice", "_polyhedra", "tropical", "sampling",
           "fans", "towers", "complexes", "galaxy", "io", "cli")

# arithmetic leaves of _linalg, called millions of times per pass for a few
# operations each: a wrapper would cost more than the call, so their time
# counts as self time of their callers
LEAVES = {"_linalg": {"dot", "vec_add", "vec_sub", "vec_scale", "is_zero_vec",
                      "primitivize", "mat_mul_vec"}}

# private functions wrapped because a per-layer metric counts them
PRIVATE = {"sampling": {"_branch_slopes", "_last_var_roots", "_cluster"}}

METHODS = (("complexes", "DeltaComplex", "cell"),
           ("complexes", "SubdivisionResult", "carrier"))


class Tracer:
    """Spans and per-name aggregates of one traced pass."""

    def __init__(self, max_spans=1_000_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.spans_dropped = 0
        self.stack: list[list] = []     # [span index, name id, start, child s]
        self.calls: list[int] = []
        self.total: list[float] = []    # outermost spans only, so recursion
        self.self_time: list[float] = []
        self.active: list[int] = []
        self.counts = dict.fromkeys((
            "h2g_repeats", "info_empty", "info_in_hypersurface", "cells",
            "clusters", "cells_built", "levels_built"), 0)
        self.h2g_seen: set[int] = set()
        self.towers: dict[int, list] = {}   # id(tower) -> [depth, needed]
        self.tower_log: list[list] = []

    def _name(self, name):
        self.ids[name] = len(self.names)
        self.names.append(name)
        for agg in (self.calls, self.active):
            agg.append(0)
        for agg in (self.total, self.self_time):
            agg.append(0.0)
        return len(self.names) - 1

    def wrap(self, name, fn, on_call=None, on_result=None):
        nid = self._name(name)
        stack, perf = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            parent = stack[-1][0] if stack else -1
            idx = len(self.starts)
            if idx < self.max_spans:
                self.starts.append(0.0)
                self.ends.append(0.0)
                self.name_ids.append(nid)
                self.parents.append(parent)
            else:
                idx = -1
                self.spans_dropped += 1
            self.active[nid] += 1
            frame = [idx, nid, 0.0, 0.0]
            stack.append(frame)
            frame[2] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self._close(frame, end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _close(self, frame, end):
        idx, nid, start, child = frame
        duration = end - start
        if idx >= 0:
            self.starts[idx] = start
            self.ends[idx] = end
        self.calls[nid] += 1
        self.self_time[nid] += duration - child
        self.active[nid] -= 1
        if not self.active[nid]:
            self.total[nid] += duration
        if self.stack:
            self.stack[-1][3] += duration

    # -- hooks for the counters that need arguments or results ---------------

    def _h2g_args(self, args):
        if len(args) != 3:
            return
        key = hash((frozenset(map(tuple, args[0])),
                    frozenset(map(tuple, args[1])), args[2]))
        if key in self.h2g_seen:
            self.counts["h2g_repeats"] += 1
        else:
            self.h2g_seen.add(key)

    def _info_args(self, args):
        if self.active[self.ids["tropical.trop_hypersurface"]]:
            self.counts["info_in_hypersurface"] += 1

    def _info_result(self, info):
        if info is None:
            self.counts["info_empty"] += 1

    def _tower_result(self, tower):
        entry = [tower.depth, 0]
        self.tower_log.append(entry)
        self.towers[id(tower)] = entry
        self.counts["levels_built"] += tower.depth

    def _classify_args(self, args):
        """Levels a lazy tower would have built to classify this point."""
        tower, point = args[0], args[1]
        entry = self.towers.get(id(tower))
        if entry is None:
            return
        sizes = [level.m for level in tower.levels]
        needed = len(sizes)
        if point.rational is not None:
            q = point.rational.denominator
            needed = next((i + 1 for i, m in enumerate(sizes) if m % q == 0),
                          needed)
        else:
            lo, hi = point.symbol.lo, point.symbol.hi
            for i, m in enumerate(sizes):
                k = math.floor(lo * m)
                if not (k < lo * m and hi * m < k + 1):
                    needed = i + 1
                    break
        entry[1] = max(entry[1], needed)

    def _count(self, key, size=len):
        def hook(result):
            self.counts[key] += size(result)
        return hook

    def hooks(self):
        """(on_call, on_result) per wrapped name."""
        return {
            "lattice.halfspaces_to_generators": (self._h2g_args, None),
            "_polyhedra.polyhedron_info": (self._info_args,
                                           self._info_result),
            "tropical.trop_hypersurface": (
                None, self._count("cells", lambda h: len(h.cells))),
            "sampling.ptrop_sample_oracle": (None, self._count("clusters")),
            "complexes.make_complex": (
                None, self._count("cells_built", lambda x: len(x.cells))),
            "galaxy.elliptic_tower": (None, self._tower_result),
            "galaxy.classify_point": (self._classify_args, None),
        }

    # -- results ---------------------------------------------------------------

    def stat(self, name):
        """(calls, total seconds, self seconds) of one wrapped name."""
        nid = self.ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        calls = lambda n: self.stat(n)[0]  # noqa: E731
        total = lambda n: self.stat(n)[1]  # noqa: E731
        own = lambda n: self.stat(n)[2]  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        c = self.counts
        h2g = "lattice.halfspaces_to_generators"
        info = "_polyhedra.polyhedron_info"
        lookups = ("complexes.DeltaComplex.cell",
                   "complexes.SubdivisionResult.carrier")
        parse = [n for n in self.names if n.startswith("io.parse_")] + [
            "io.load_json", "io.tower_spec_from_data", "io.require_field"]
        serialize = [n for n in self.names
                     if n.startswith("io.serialize_")] + ["io.canonical_json"]
        needed = sum(e[1] for e in self.tower_log)
        return {
            "linalg.rref_calls": (calls("_linalg.rref"), "count"),
            "linalg.rref_self_s": (own("_linalg.rref"), "s"),
            "linalg.minor_kernel_calls": (
                calls("_linalg.signed_minor_kernel"), "count"),
            "linalg.det_calls": (calls("_linalg.det"), "count"),
            "lattice.h2g_calls": (calls(h2g), "count"),
            "lattice.h2g_self_s": (own(h2g), "s"),
            "lattice.h2g_repeat_ratio": (
                ratio(c["h2g_repeats"], calls(h2g)), "ratio"),
            "lattice.make_cone_calls": (calls("lattice.make_cone"), "count"),
            "lattice.make_cone_s": (total("lattice.make_cone"), "s"),
            "lattice.cone_intersect_calls": (
                calls("lattice.cone_intersect"), "count"),
            "lattice.cone_contains_calls": (
                calls("lattice.cone_contains"), "count"),
            "polyhedra.info_calls": (calls(info), "count"),
            "polyhedra.info_self_s": (own(info), "s"),
            "polyhedra.empty_ratio": (
                ratio(c["info_empty"], calls(info)), "ratio"),
            "tropical.hypersurface_s": (
                total("tropical.trop_hypersurface"), "s"),
            "tropical.cells": (c["cells"], "count"),
            "tropical.info_per_cell": (
                ratio(c["info_in_hypersurface"], c["cells"]), "ratio"),
            "tropical.normal_fan_route_s": (
                total("tropical.ptrop_normal_fan"), "s"),
            "tropical.recession_route_s": (
                total("tropical.trop_hypersurface")
                + total("tropical.ptrop_recession"), "s"),
            "sampling.oracle_s": (total("sampling.ptrop_sample_oracle"), "s"),
            "sampling.root_solves": (calls("sampling._last_var_roots"),
                                     "count"),
            "sampling.root_solves_per_path": (
                ratio(calls("sampling._last_var_roots"),
                      calls("sampling._branch_slopes")), "ratio"),
            "sampling.cluster_s": (total("sampling._cluster"), "s"),
            "sampling.clusters": (c["clusters"], "count"),
            "fans.facet_cones_calls": (calls("fans.facet_cones"), "count"),
            "fans.facet_cones_self_s": (own("fans.facet_cones"), "s"),
            "fans.refine_s": (total("fans.common_refinement"), "s"),
            "fans.is_subdivision_s": (total("fans.is_subdivision"), "s"),
            "fans.stellar_s": (total("fans.stellar_subdivision"), "s"),
            "fans.validate_s": (total("fans.validate_fan"), "s"),
            "towers.extend_s": (total("towers.extend_tower"), "s"),
            "towers.chain_s": (total("towers.chain_toward"), "s"),
            "towers.symbolic_locate_calls": (
                calls("towers.symbolic_locate"), "count"),
            "towers.resolve_s": (total("towers.resolve_direction"), "s"),
            "complexes.subdivide_s": (
                total("complexes.scale_subdivide"), "s"),
            "complexes.cells_built": (c["cells_built"], "count"),
            "complexes.cell_lookups": (calls(lookups[0]), "count"),
            "complexes.carrier_lookups": (calls(lookups[1]), "count"),
            "complexes.lookup_self_s": (sum(own(n) for n in lookups), "s"),
            "complexes.rational_points_s": (
                total("complexes.rational_points"), "s"),
            "complexes.map_fiber_s": (total("complexes.map_fiber"), "s"),
            "complexes.make_complex_s": (
                total("complexes.make_complex"), "s"),
            "galaxy.base_change_calls": (calls("galaxy.base_change"),
                                         "count"),
            "galaxy.base_change_s": (total("galaxy.base_change"), "s"),
            "galaxy.levels_built": (c["levels_built"], "count"),
            "galaxy.levels_read_ratio": (
                ratio(needed, c["levels_built"]), "ratio"),
            "galaxy.classify_s": (total("galaxy.classify_point"), "s"),
            "io.parse_s": (sum(own(n) for n in parse), "s"),
            "io.serialize_s": (sum(total(n) for n in serialize), "s"),
            "cli.handler_self_s": (
                sum(own(n) for n in self.names
                    if n.startswith("cli.handle_")), "s"),
        }

    def write(self, path):
        """Store the kept spans as arrays, with the name table."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_ids, dtype=np.int32),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 start=np.frombuffer(self.starts), end=np.frombuffer(self.ends))


def install(tracer, troplim):
    """Wrap every layer function; return a function that undoes it."""
    hooks = tracer.hooks()
    wrapped = {}        # id(original) -> wrapper
    for short in MODULES:
        mod = sys.modules[f"{troplim.__name__}.{short}"]
        for attr, fn in list(vars(mod).items()):
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                continue
            if attr in LEAVES.get(short, ()):
                continue
            name = f"{short}.{attr}"
            wrapped[id(fn)] = tracer.wrap(name, fn,
                                          *hooks.get(name, (None, None)))
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == troplim.__name__ or
                               mod_name.startswith(troplim.__name__ + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                setattr(mod, attr, wrapped[id(value)])
                undo.append((setattr, mod, attr, value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped and inspect.isfunction(item):
                        value[key] = wrapped[id(item)]
                        undo.append((dict.__setitem__, value, key, item))
    for short, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"{troplim.__name__}.{short}"], cls_name)
        fn = cls.__dict__[attr]
        name = f"{short}.{cls_name}.{attr}"
        setattr(cls, attr, tracer.wrap(name, fn))
        undo.append((setattr, cls, attr, fn))

    def uninstall():
        for restore, owner, key, value in reversed(undo):
            restore(owner, key, value)

    return uninstall
