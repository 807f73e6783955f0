#!/usr/bin/env python3
"""Time one troplim CLI process per subcommand, and see what it imports.

For each subcommand this writes a tiny valid input to a temporary
directory and runs the CLI on it in a fresh interpreter --runs times, from
the sources next to this script.  Each process runs `troplim.cli` as
`python -m troplim.cli` does (through runpy), with an exit hook that
reports whether numpy or scipy was loaded.  The printed time is the median
wall time of a whole process, interpreter start-up included.  Beside it
is the median in-process time of `build_parser().parse_args(argv)` on the
same command line, over PARSE_REPEATS calls: a cost of a few milliseconds
that the spread of whole-process times hides.

Usage:
    python3 scripts/cli_startup.py [--runs 5] [subcommand ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from troplim.cli import build_parser  # noqa: E402

PARSE_REPEATS = 101

# runs the CLI as `python -m troplim.cli` would, then names the loaded
# numeric modules on the last line of stderr
PROBE = ("import atexit, runpy, sys; atexit.register(lambda: print("
         "'loaded', *(m in sys.modules for m in ('numpy', 'scipy')), "
         "file=sys.stderr)); "
         "runpy.run_module('troplim.cli', run_name='__main__', alter_sys=True)")

NODAL = {"vars": 2, "terms": [{"exp": [1, 1], "val": "0"},
                              {"exp": [3, 0], "val": "0"},
                              {"exp": [0, 3], "val": "0"}]}
QUADRANT = {"rank": 2,
            "rays": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
            "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
DIAMOND = {"rank": 2,
           "rays": [["1", "1"], ["-1", "1"], ["-1", "-1"], ["1", "-1"]],
           "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
SYMBOL = {"name": "s", "lo": "1/3", "hi": "1/2"}
SEGMENT = {"cells": [{"name": "z0", "faces": []},
                     {"name": "z1", "faces": []},
                     {"name": "e", "faces": ["z1", "z0"]}]}
# each subcommand's input files, in the order the CLI takes them
INPUTS = {
    "trop": [NODAL],
    "ptrop": [NODAL],
    "fan-validate": [QUADRANT],
    "refine": [QUADRANT, DIAMOND],
    "limit-point": [{"base_fan": QUADRANT, "steps": 1, "strategy": {
        "kind": "toward-direction", "direction": {
            "symbols": [SYMBOL], "entries": [["1", "0"], ["0", "1"]]}}}],
    "fiber-rank": [{"symbols": [SYMBOL], "entries": ["1", ["0", "1"]]}],
    "dualcx": [{"mode": "analytic",
                "strata": [{"name": "C", "codim": 0, "branches": 1},
                           {"name": "p", "codim": 1, "branches": 2}],
                "closures": [["p", "C"]]}],
    "subdivide": [SEGMENT],
    "rational-points": [{"elliptic": {"m": 3}}],
    "map-fibers": [{"source": SEGMENT, "target": SEGMENT,
                    "vertex_map": {"z0": "z0", "z1": "z1"},
                    "cell_images": {"e": ["e", [0, 1]]},
                    "points": [{"cell": "e", "coords": ["1/2", "1/2"]}],
                    "reference": SEGMENT}],
    "toric-fiber": [{"matrix": [[1, 0]],
                     "source": {"rank": 2,
                                "rays": [["1", "0"], ["1", "1"], ["1", "2"]],
                                "maximal_cones": [[0, 1], [1, 2]]},
                     "target": {"rank": 1, "rays": [["1"]],
                                "maximal_cones": [[0]]},
                     "base": {"rays": [[1]]}}],
    "galaxy": [{"elliptic": {"m": 3, "degrees": [1, 2]},
                "points": ["1/6", {"symbol": SYMBOL}]}],
}


def run_once(argv, env):
    """Wall seconds of one CLI process on `argv`, and whether it loaded
    numpy and scipy; raises RuntimeError if the run fails."""
    command = argv[0]
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", PROBE, *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    seconds = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"{command} exited {out.returncode}: "
                           f"{out.stderr.strip()}")
    _, numpy, scipy = out.stderr.splitlines()[-1].split()
    return seconds, numpy == "True", scipy == "True"


def parse_seconds(argv):
    """Median seconds of `build_parser().parse_args(argv)` in this process."""
    times = []
    for _ in range(PARSE_REPEATS):
        start = time.perf_counter()
        build_parser().parse_args(argv)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="processes per subcommand; the median is shown")
    parser.add_argument("commands", nargs="*", metavar="subcommand",
                        help=f"any of {', '.join(INPUTS)} (default: all)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    unknown = sorted(set(args.commands) - INPUTS.keys())
    if unknown:
        parser.error(f"unknown subcommands {unknown}")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, "
          f"median of {args.runs} run(s) per subcommand")
    with tempfile.TemporaryDirectory() as tmp:
        for command in args.commands or INPUTS:
            paths = []
            for i, obj in enumerate(INPUTS[command]):
                paths.append(os.path.join(tmp, f"{command}-{i}.json"))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
            argv = [command, *paths, "--json"]
            runs = [run_once(argv, env) for _ in range(args.runs)]
            numpy = any(r[1] for r in runs)
            scipy = any(r[2] for r in runs)
            print(f"{command}: numpy {'yes' if numpy else 'no'}, "
                  f"scipy {'yes' if scipy else 'no'}, "
                  f"{statistics.median(r[0] for r in runs):.3f} s, "
                  f"parse {parse_seconds(argv) * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
