"""groupcalc benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout::

    python3 bench/run.py --workload spectra --seed 1 --seconds 36 --trace 0

``--workload`` is ``spectra``, ``arithmetic`` or ``identities`` (see
``bench/workloads.py`` for what each sends and why).  The program is imported
from ``src/`` of the same checkout and never from an installed copy.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of a
fresh process (median of several), requests per second, latency percentiles
and peak resident memory.  A request's latency is its mean over its timed
visits, and the rate and percentiles weigh every request of the corpus
alike.  On a shared host whose speed drifts by tens of percent for seconds
to minutes, a long run's mean is steadier than its fastest stretch, so the
metrics come from every visit rather than from the best ones.  With
``--trace 1`` it runs half the time untraced and half traced, and reports
per-request layer metrics from the spans recorded at each module boundary
(see ``bench/tracing.py``), plus the tracing overhead.  Every result is
checked against an independent reference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the provenance of the run: seed, sample counts, outcome counts,
accuracy, versions, processor count and BLAS thread cap.  The spans of a
traced run go to ``.bench_out/`` at the root of the checkout.

A run cycles through a corpus of requests drawn from the seed.  Each request
is verified against its reference on its first visit; every later visit must
give the same output, which a digest checks.  ``attempted`` and ``failed``
count the requests of the corpus, so they depend on the seed alone, not on
how many visits the host's speed allows.

Outcomes: a verified result is ``ok``; a typed ``GroupCalcError`` where the
reference has no value is ``typed``; an untyped exception, a check the
program itself reports as failed, a typed error where the reference has a
value, or a result that disagrees with its reference is ``failed``.
``correct`` is false when any result disagreed with its reference or a
later visit gave another output than the first.
"""

from __future__ import annotations

import os
import sys

# One single-threaded process: fix the BLAS pool before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Mismatch  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
MODULES = (
    "groups",
    "algebra",
    "closed_forms",
    "calculus",
    "checks",
    "config",
    "exprlang",
    "spectral",
    "tables",
    "well",
    "errors",
)
CHECK_SUITES = (
    "roundtrip",
    "pythagorean",
    "derivatives_fd",
    "axioms",
    "homomorphism",
    "oracle_equivalence",
    "non_distributivity",
    "exp_derivative_identity",
    "fundamental_theorem",
    "quadrature_paths",
)

# A fresh interpreter times ``import groupcalc`` plus building the classes.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import groupcalc
for spec in sys.argv[2:]:
    groupcalc.parse_class_spec(spec)
print(repr(time.perf_counter() - t0))
"""


class Program:
    """The groupcalc modules, imported from this checkout's ``src``."""

    def __init__(self):
        init = SRC / "groupcalc" / "__init__.py"
        if not init.is_file():
            raise SystemExit(f"bench: no groupcalc sources at {init}")
        sys.path.insert(0, str(SRC))
        self.package = importlib.import_module("groupcalc")
        if Path(self.package.__file__).resolve() != init.resolve():
            raise SystemExit(f"bench: imported {self.package.__file__}, expected {init}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"groupcalc.{name}"))


def measure_setup(specs, repeats):
    """Median set-up time over fresh processes, and every sample."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), *specs],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples), samples


class Phase:
    """Closed-loop timing of one stretch of the request stream.

    Only later visits are timed: a first visit is verified against its
    reference, which leaves the caches in another state, so the first pass
    over the corpus serves as warm-up.  Each request's latency is the mean
    of its timed visits, so a run weighs every request of the corpus alike,
    however far into the corpus its last pass got.  ``outcomes`` counts
    visits by the outcome of the request visited.
    """

    def __init__(self):
        self.timed = {}  # key -> [seconds summed over timed visits, timed visits]
        self.visits = 0
        self.outcomes = Counter()

    def latencies(self):
        """Mean latency of each request, in seconds."""
        return [total / count for total, count in self.timed.values()]

    def ops_per_s(self):
        return len(self.timed) / sum(self.latencies())


class Ledger:
    """The outcome and output digest of each request of the corpus, from its
    first visit, with the details of what failed."""

    def __init__(self):
        self.entries = {}  # key -> (outcome, digest)
        self.exceptions = Counter()  # failed requests by exception type
        self.reports = []  # the first few mismatches, failed checks and changed outputs
        self.max_rel_err = 0.0
        self.changed = 0  # later visits whose output differed from the first

    def report(self, text):
        if len(self.reports) < 5:
            self.reports.append(text)

    def counts(self):
        return Counter(outcome for outcome, _ in self.entries.values())

    def first_visit(self, workload, request, output, exc, typed_error):
        """Verify a request's first output and return its outcome."""
        if exc is not None:
            if not isinstance(exc, typed_error):
                self.exceptions[type(exc).__name__] += 1
                return "failed"
            if workload.has_answer(request):
                self.exceptions[f"{type(exc).__name__} where a reference has a value"] += 1
                self.report(f"{request}: {exc!r}")
                return "failed"
            return "typed"
        try:
            err = workload.verify(request, output)
        except Mismatch as bad:
            self.report(str(bad))
            return "mismatch"
        except CheckFailed as bad:
            self.exceptions[type(bad).__name__] += 1
            self.report(str(bad))
            return "failed"
        self.max_rel_err = max(self.max_rel_err, err)
        return "ok"


def drive(workload, seconds, phase, ledger, errors, tracer=None):
    """Send requests one after another from the start of the corpus until
    ``seconds`` of wall time have passed and every request of the corpus has
    had a first visit and a timed one.  Only the requests are timed."""
    typed_error = errors.GroupCalcError
    corpus_size = workload.corpus_size()
    stream = workload.stream()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(phase.timed) < corpus_size:
        key, request = next(stream)
        output = exc = None
        if tracer is not None:
            tracer.request_id += 1
            tracer.active = True
        start = perf_counter()
        try:
            output = workload.run(request)
        except Exception as caught:  # typed or not, sorted out below
            exc = caught
        latency = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        phase.visits += 1
        seen = ledger.entries.get(key)
        if seen is not None:
            timed = phase.timed.setdefault(key, [0.0, 0])
            timed[0] += latency
            timed[1] += 1
        fingerprint = (
            f"raised {type(exc).__name__}" if exc is not None
            else workload.fingerprint(request, output)
        )
        if seen is None:
            outcome = ledger.first_visit(workload, request, output, exc, typed_error)
            ledger.entries[key] = (outcome, fingerprint)
        else:
            outcome = seen[0]
            if fingerprint != seen[1]:
                ledger.changed += 1
                ledger.report(f"{request}: output changed between visits")
        phase.outcomes[outcome] += 1


def percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1e3


def end_to_end(phase, setup_s):
    lat = phase.latencies()
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "latency_p50_ms": (percentile_ms(lat, 50), "ms"),
        "latency_p90_ms": (percentile_ms(lat, 90), "ms"),
        "latency_p99_ms": (percentile_ms(lat, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced):
    n = traced.visits  # every traced request opened spans
    stats, counters = tracer.stats, tracer.counters

    def self_ms(*categories):
        return sum(stats[c][1] for c in categories) * 1e3 / n

    def calls(category):
        return stats[category][0] / n

    def peak_mb(category):
        peaks = tracer.peaks.get(category)
        return statistics.median(peaks) / 2**20 if peaks else 0.0

    metrics = {
        "spectral.assembly_ms": (self_ms("spectral.assembly"), "ms"),
        "spectral.eigensolve_ms": (self_ms("spectral.eigensolve"), "ms"),
        "spectral.lapack_ms": (self_ms("spectral.lapack"), "ms"),
        "spectral.transform_ms": (self_ms("spectral.transform"), "ms"),
        "spectral.operator_cells": (counters["spectral.operator_cells"] / n, "count"),
        "spectral.assembly_peak_mb": (peak_mb("spectral.assembly"), "MB"),
        "spectral.eigensolve_peak_mb": (peak_mb("spectral.eigensolve"), "MB"),
        "tables.write_ms": (self_ms("tables.write"), "ms"),
        "tables.bytes_written": (counters["tables.bytes_written"] / n, "bytes"),
        "groups.calls": (calls("groups"), "count"),
        "groups.ms": (self_ms("groups"), "ms"),
        "groups.numeric_inverse_calls": (counters["groups.numeric_inverse_calls"] / n, "count"),
        "algebra.calls": (calls("algebra"), "count"),
        "algebra.ms": (self_ms("algebra"), "ms"),
        "exprlang.parse_ms": (self_ms("exprlang.parse"), "ms"),
        "exprlang.evaluate_ms": (self_ms("exprlang.evaluate"), "ms"),
        "exprlang.typed_errors": (traced.outcomes["typed"] / n, "count"),
    }
    for suite in CHECK_SUITES:  # suites report inclusive time
        metrics[f"checks.{suite}_ms"] = (stats[f"checks.{suite}"][2] * 1e3 / n, "ms")
    metrics.update(
        {
            "closed_forms.ms": (self_ms("closed_forms"), "ms"),
            "calculus.integrate_ms": (self_ms("calculus.integrate"), "ms"),
            "calculus.derivative_ms": (self_ms("calculus.derivative"), "ms"),
            "calculus.integrand_evals": (counters["calculus.integrand_evals"] / n, "count"),
            "trace.overhead_ratio": (traced.ops_per_s() / untraced.ops_per_s(), "ratio"),
        }
    )
    return metrics


def provenance(args, program, workload, phases, ledger, setup_samples):
    counts = ledger.counts()
    attempted = len(ledger.entries)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "timed_visits": [sum(count for _, count in p.timed.values()) for p in phases],
        "visits": [p.visits for p in phases],
        "attempted": attempted,
        "outcomes": dict(counts),
        "failed": counts["failed"] + counts["mismatch"],
        "failed_ratio": (counts["failed"] + counts["mismatch"]) / attempted,
        "changed_outputs": ledger.changed,
        "exceptions": dict(ledger.exceptions),
        "reports": ledger.reports,
        "max_rel_err": ledger.max_rel_err,
        "verification_notes": dict(workload.notes),
        "setup_samples_s": setup_samples,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "groupcalc": getattr(program.package, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up sample")
    args = parser.parse_args(argv)

    program = Program()
    OUT.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, tmp_dir)
        setup_s, setup_samples = measure_setup(
            [info.spec for info in workload.infos], 1 if args.smoke else SETUP_REPEATS
        )
        workload.setup(program)
        for request in workload.warmup():
            try:
                workload.run(request)
            except Exception:  # untimed and unverified: only the caches matter
                pass

        ledger = Ledger()
        if not args.trace:
            phase = Phase()
            drive(workload, args.seconds, phase, ledger, program.errors)
            phases = [phase]
            metrics = end_to_end(phase, setup_s)
        else:
            untraced, traced = Phase(), Phase()
            drive(workload, args.seconds / 2, untraced, ledger, program.errors)
            tracer = Tracer()
            tracer.install(program)
            tracer.memory = True
            for request in workload.memory_probe():
                workload.run(request)
            tracer.memory = False
            drive(workload, args.seconds / 2, traced, ledger, program.errors, tracer=tracer)
            tracer.uninstall()
            phases = [untraced, traced]
            metrics = per_layer(tracer, traced, untraced)
            tracer.dump(
                OUT / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "requests": traced.visits},
            )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    prov = provenance(args, program, workload, phases, ledger, setup_samples)
    print(json.dumps({"provenance": prov}))
    result = {
        "correct": prov["outcomes"].get("mismatch", 0) == 0 and ledger.changed == 0,
        "attempted": prov["attempted"],
        "failed": prov["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
