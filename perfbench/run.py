#!/usr/bin/env python3
"""Job-batch benchmark for troplim.

    python3 perfbench/run.py --workload ptrop|towers|skeletons --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes a seeded
input corpus to perfbench/_work/<workload>/, runs it as a closed-loop batch of
`troplim` subcommand jobs (one job at a time, each through
`troplim.cli.run` in this single process, BLAS threads pinned to 1), checks
every report, and prints one line per metric followed by a JSON result line.

A run is: set-up (import troplim, write the corpus, one warm-up pass over a
small separate corpus; done three times, each with fresh warm-up inputs,
and the median reported as setup_s), then one measured pass over the
measured corpus.  The measured corpus holds as many blocks as take about
--seconds on a 2-vCPU machine at the commit that defined the benchmark, in
the machine's slower phases; a block is a fixed job mix whose inputs the
seed draws (see corpus.py).
Each input is run once, so a cache can only reuse work within the pass.

Timings are scaled to a reference machine speed: each job's (and each
set-up's) wall time is multiplied by REFERENCE_MS over the time of a fixed
reference loop (not troplim code) measured right before and after it, so
that the drift of a shared machine's speed cancels out; the wall-clock
values are printed too.  See REFERENCE_MS.

With --trace 0 the result carries the end-to-end metrics.  With --trace 1
the measured pass runs traced (layers.py wraps every layer's functions from
outside), then again untraced; the two passes must produce identical
report bytes, and the result carries the per-layer metrics.

`--write-pins` stores the report digests of a seed-0 run in pins.json;
later seed-0 runs then check every report against them byte for byte.

Exit status: 0 after a complete run, even when some job failed its check
(the result then says so); 2 when the run cannot be made at all, for
instance because no troplim sources are found next to this directory.
"""

import os

# pin BLAS and OpenMP pools before numpy loads: one thread, as the jobs run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402

# wall seconds one block of each workload takes on a 2-vCPU machine at the
# commit that defined the benchmark, in its slower phases (see
# REFERENCE_MS); sets how many blocks --seconds buys
BLOCK_SECONDS = {"ptrop": 5.5, "towers": 5.5, "skeletons": 3.2}
SETUP_REPEATS = 3
PIN_SEED = 0
TAIL_BEYOND = 10
# The reference loop is not troplim code.  On the 2-vCPU machine the
# benchmark was defined on, the loop took from 1.0 to 2.7 ms, drifting within
# minutes with other tenants' load; every timing metric is therefore
# scaled to the speed at which the loop takes REFERENCE_MS, using the loop
# timed right before and right after each job (or set-up).  Wall-clock
# values are printed beside the scaled ones.
REFERENCE_MS = 1.0


class Unrunnable(Exception):
    """The benchmark cannot run here at all (exit status 2)."""


def load_troplim():
    if not os.path.isfile(os.path.join(SRC, "troplim", "cli.py")):
        raise Unrunnable(f"no troplim sources under {SRC}")
    sys.path.insert(0, SRC)
    import troplim.cli
    import troplim.errors
    import troplim.io
    if not os.path.abspath(troplim.__file__).startswith(SRC + os.sep):
        raise Unrunnable(f"troplim imported from {troplim.__file__}, "
                         f"not from {SRC}")
    return troplim


def child_import_seconds():
    """Import time of troplim in a fresh interpreter, as it measures it,
    scaled by the reference loop timed in that interpreter just after."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import troplim.cli; "
            "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
            "import run, statistics; "
            "print(t, statistics.median(run.reference_ms() for _ in range(5)))")
    out = subprocess.run([sys.executable, "-c", code, SRC, HERE], check=True,
                         capture_output=True, text=True, timeout=120)
    seconds, reference = map(float, out.stdout.split())
    return seconds * REFERENCE_MS / reference


def reference_ms():
    """Time of one run of the reference loop, a fixed Fraction sum."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return 1000 * (time.perf_counter() - start)


def write_corpus(jobs):
    for job in jobs:
        for name, obj in job.files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(corpus.canonical(obj))


class Batch:
    """Runs jobs one after another and checks each report."""

    def __init__(self, troplim, workload, seed, check_pins=True):
        self.cli = troplim.cli
        self.io = troplim.io
        errors = troplim.errors
        self.documented = tuple(getattr(errors, n) for n in checks.DOCUMENTED)
        self.pins = {}
        if check_pins and seed == PIN_SEED and os.path.isfile(PINS):
            with open(PINS, encoding="utf-8") as fh:
                self.pins = json.load(fh).get(workload, {})
        self.attempted = 0
        self.failures = []      # names of the jobs that failed
        self.pinned = 0
        self.digests = {}       # job name -> sha256 of its report

    def run_job(self, job):
        """(latency in s, report text, outcome) of one job."""
        start = time.perf_counter()
        try:
            cfg = self.cli.config_from_args(
                self.cli.build_parser().parse_args(job.argv))
            report = self.cli.run(cfg)
            text = self.io.canonical_json(report)
            outcome = report
        except self.documented as exc:
            outcome = type(exc).__name__
            text = corpus.canonical({"outcome": outcome, "message": str(exc)})
        except Exception as exc:  # any other exception fails the job
            outcome, text = exc, None
        return time.perf_counter() - start, text, outcome

    def fail(self, job, reason):
        """Record a failed job and print it with the paths of its inputs."""
        here = os.path.relpath(os.getcwd(), ROOT)
        paths = " ".join(os.path.join(here, name) for name in job.inputs)
        self.failures.append(job.name)
        print(f"FAIL {job.name} ({' '.join(job.argv)}) input {paths}: "
              f"{reason}", flush=True)

    def judge(self, job, text, outcome):
        """Check one outcome; its report digest, or None if it failed."""
        self.attempted += 1
        if text is None:
            self.fail(job, f"raised {type(outcome).__name__}: {outcome}")
            return None
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.digests[job.name] = digest
        reason = checks.check(job, outcome)
        pin = self.pins.get(job.name)
        if reason is None and pin is not None:
            self.pinned += 1
            if digest != pin:
                reason = "report digest differs from the pinned one"
        if reason is not None:
            self.fail(job, reason)
            return None
        return digest

    def run_pass(self, jobs, on_report=None):
        """Wall latencies (s), reference-loop times (ms, one before each
        job and one after the last) and report digests of one pass."""
        latencies, references, digests = [], [reference_ms()], []
        for job in jobs:
            latency, text, outcome = self.run_job(job)
            references.append(reference_ms())
            digest = self.judge(job, text, outcome)
            latencies.append(latency)
            digests.append(digest)
            if on_report is not None and digest is not None:
                on_report(job, text, outcome)
        return latencies, references, digests


def scaled(latencies, references):
    """Each latency scaled by REFERENCE_MS over the loop time around it."""
    return [latency * 2 * REFERENCE_MS / (before + after)
            for latency, before, after
            in zip(latencies, references, references[1:])]


def tail(latencies):
    """(value, percentile) of the highest percentile with 10 jobs beyond."""
    ranked = sorted(latencies)
    k = len(ranked) - TAIL_BEYOND - 1
    if k < 0:
        return ranked[-1], 100.0
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def oracle_misses(job, outcome):
    """(clusters farther than 1e-2 from the exact set, clusters)."""
    if not isinstance(outcome, dict) or job.argv[0] != "ptrop":
        return 0, 0
    clusters = outcome["results"][0]["oracle_clusters"] or []
    return sum(c["distance_to_exact"] > 1e-2 for c in clusters), len(clusters)


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help=f"store this run's report digests as the pins "
                             f"(seed {PIN_SEED} only, all checks passing)")
    args = parser.parse_args(argv)
    if args.write_pins and args.seed != PIN_SEED:
        parser.error(f"pins are kept for seed {PIN_SEED} only")

    troplim = load_troplim()
    blocks = max(1, round(args.seconds / BLOCK_SECONDS[args.workload]))
    # kept after the run, so that the input of a failed job can be read
    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return measure(troplim, args, blocks)
    finally:
        os.chdir(cwd)


def measure(troplim, args, blocks):
    batch = Batch(troplim, args.workload, args.seed,
                  check_pins=not args.write_pins)
    setups = []         # scaled import time plus scaled in-process time
    for i in range(SETUP_REPEATS):
        imported = child_import_seconds()
        before = statistics.median(reference_ms() for _ in range(5))
        start = time.perf_counter()
        warm, measured = corpus.generate(args.workload, args.seed, blocks,
                                         SETUP_REPEATS)
        write_corpus(warm[i] + measured)
        batch.run_pass(warm[i])
        elapsed = time.perf_counter() - start
        after = statistics.median(reference_ms() for _ in range(5))
        setups.append(imported + elapsed * 2 * REFERENCE_MS / (before + after))

    misses = [0, 0]
    report_bytes = [0]

    def on_report(job, text, outcome):
        miss, total = oracle_misses(job, outcome)
        misses[0] += miss
        misses[1] += total
        report_bytes[0] += len(text)

    if args.trace:
        tracer = layers.Tracer()
        uninstall = layers.install(tracer, troplim)
        try:
            latencies, references, digests = batch.run_pass(measured,
                                                            on_report)
        finally:
            uninstall()
        plain, plain_references, plain_digests = batch.run_pass(measured)
        for job, a, b in zip(measured, digests, plain_digests):
            if a != b:
                batch.fail(job, "traced and untraced reports differ")
        metrics = tracer.metrics()
        metrics["io.report_bytes"] = (report_bytes[0], "bytes")
        metrics["sampling.oracle_miss_ratio"] = (
            misses[0] / misses[1] if misses[1] else 0.0, "ratio")
        metrics["trace.overhead_ratio"] = (
            sum(scaled(plain, plain_references))
            / sum(scaled(latencies, references)), "ratio")
        if tracer.spans_dropped:
            print(f"trace: {tracer.spans_dropped} spans beyond the "
                  f"{tracer.max_spans} kept were aggregated only")
        tracer.write("spans.npz")
    else:
        latencies, references, digests = batch.run_pass(measured, on_report)
        times = scaled(latencies, references)
        value, pct = tail(times)
        metrics = {
            "jobs_per_s": (len(times) / sum(times), "jobs/s"),
            "job_p50_ms": (1000 * statistics.median(times), "ms"),
            "job_tail_ms": (1000 * value, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"job_tail_ms is p{pct:.1f} of {len(times)} jobs "
              f"({TAIL_BEYOND} beyond it)")
        print(f"wall clock, unscaled: jobs_per_s "
              f"{len(latencies) / sum(latencies):.4g} jobs/s, job_p50_ms "
              f"{1000 * statistics.median(latencies):.4g} ms, job_tail_ms "
              f"{1000 * tail(latencies)[0]:.4g} ms")

    if args.write_pins:
        write_pins(batch, args.workload)

    print(f"workload {args.workload} seed {args.seed}: {blocks} blocks, "
          f"{len(measured)} measured jobs, scaled set-up times "
          f"{[round(s, 3) for s in setups]} s")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"reference loop {min(references):.3f} to {max(references):.3f} "
          f"ms in the measured pass, median "
          f"{statistics.median(references):.3f} ms "
          f"(timings scaled to {REFERENCE_MS} ms)")
    print(f"error_rate {len(batch.failures)}/{batch.attempted} = "
          f"{len(batch.failures) / batch.attempted:.4f} ratio")
    if args.workload == "ptrop":
        print(f"oracle_miss_ratio {misses[0]}/{misses[1]} = "
              f"{misses[0] / max(misses[1], 1):.4f} ratio")
    if batch.pins:
        print(f"pinned report digests checked: {batch.pinned}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not batch.failures,
        "attempted": batch.attempted,
        "failed": len(batch.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def write_pins(batch, workload):
    if batch.failures:
        raise SystemExit("not writing pins: some job failed")
    pins = {}
    if os.path.isfile(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    pins[workload] = dict(sorted(batch.digests.items()))
    with open(PINS, "w", encoding="utf-8") as fh:
        fh.write(corpus.canonical(pins))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Unrunnable as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        sys.exit(2)
