"""Benchmark of the ``biquadrates`` command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the program from ``src/`` of the checkout it sits in, then drives
``biquadrates.cli.main(argv)`` in this one process, without threads, over the
seeded job list of one workload (see ``jobs.py``).  It repeats whole rounds of
the job list while another round still fits in S seconds (at least one),
captures each job's stdout and stderr, and checks every output (see
``checks.py``).  With ``--seed`` equal to ``jobs.DEFAULT_SEED`` each job's
exit code and stdout digest must also match ``expected/<workload>.json``.

``--trace 0`` reports the end-to-end metrics, each timing scaled to the
host's nominal speed by probes that run beside it (see ``speed.py``).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (see ``tracer.py``), the tracing
overhead, and checks that traced and untraced outputs are identical.  A human-readable table goes to stdout; the
last line is one JSON object: correct, attempted, failed, metrics.

``--record-expected`` runs one untraced round at the default seed and
rewrites ``expected/<workload>.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module
from typing import NamedTuple

import checks
import jobs
import tracer
from speed import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED_DIR = os.path.join(HERE, "expected")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPS = 31
MAX_SECONDS = 120   # run limit, far under the 180 s a run may take
# tracemalloc slows the search loop about 12x, so the allocation round stops
# after the job that takes it past this many seconds.
ALLOC_SECONDS = 15


class JobResult(NamedTuple):
    argv: list
    rc: int
    out: str
    err: str
    crashed: bool
    start: float
    seconds: float


class SetupError(Exception):
    """The checkout holds no importable ``biquadrates`` under src/."""


def setup():
    """Import biquadrates.cli from scratch and build its parser: (start, end, module)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "biquadrates"]:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        cli = import_module("biquadrates.cli")
    except ImportError as exc:
        raise SetupError("cannot import biquadrates.cli from %s: %s" % (SRC, exc))
    cli.build_parser()
    end = time.perf_counter()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError("biquadrates was imported from %s, not %s" % (cli.__file__, SRC))
    return start, end, cli


def timed_setup():
    """(setup_s, module): the median of SETUP_REPS setups, each scaled."""
    stamps = []
    with Speedometer() as speed:
        for _ in range(SETUP_REPS):
            start, end, cli = setup()
            stamps.append((start, end))
    return statistics.median(speed.scaled(a, b) for a, b in stamps), cli


def run_job(cli, argv) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            rc, crashed = 1, True
    seconds = time.perf_counter() - start
    return JobResult(argv, rc, out.getvalue(), err.getvalue(), crashed, start, seconds)


def run_round(cli, job_list, budget=None):
    """Run the jobs in order; with ``budget`` seconds, stop once it is spent."""
    start = time.perf_counter()
    results = []
    for argv in job_list:
        results.append(run_job(cli, argv))
        if budget is not None and time.perf_counter() - start > budget:
            break
    return time.perf_counter() - start, results


def load_expected(workload, seed):
    """[(argv, exit code, stdout digest)] per job for the default seed, else None."""
    if seed != jobs.DEFAULT_SEED:
        return None
    with open(os.path.join(EXPECTED_DIR, workload + ".json")) as f:
        data = json.load(f)
    return [(j["argv"], j["exit"], j["stdout_sha256"]) for j in data["jobs"]]


class Outcomes:
    """Status of every job run, checked against expectations and earlier rounds."""

    def __init__(self, expected):
        self.expected = expected
        self.first = None            # (rc, digest, status) per job of the first round
        self.counts = {checks.OK: 0, checks.KNOWN_DEFECT: 0, checks.FAIL: 0}
        self.failures = []

    def _fail(self, argv, reason):
        self.failures.append("%s: %s" % (" ".join(argv), reason))
        return checks.FAIL

    def _first_status(self, i, r, dig):
        status, reason = checks.classify(r.argv, r.rc, r.out, r.err, r.crashed)
        if status == checks.FAIL:
            return self._fail(r.argv, reason)
        if self.expected is not None:
            argv, exit_code, want = self.expected[i]
            if argv != list(r.argv):
                return self._fail(r.argv, "job list differs from expected/")
            fixed = exit_code != 0 and status == checks.OK
            if (r.rc, dig) != (exit_code, want) and not fixed:
                return self._fail(r.argv, "exit %d / stdout digest differ from expected/"
                                  % r.rc)
        return status

    def add_round(self, results, reference=None):
        """Record one round; ``reference`` is a round whose outputs must match."""
        digests = [checks.digest(r.out) for r in results]
        if self.first is None:
            self.first = [(r.rc, d, self._first_status(i, r, d))
                          for i, (r, d) in enumerate(zip(results, digests))]
        for i, (r, d) in enumerate(zip(results, digests)):
            rc0, d0, status = self.first[i]
            if (r.rc, d) != (rc0, d0):
                status = self._fail(r.argv, "output differs between rounds")
            elif reference is not None and (r.rc, d) != (reference[i].rc,
                                                         checks.digest(reference[i].out)):
                status = self._fail(r.argv, "traced output differs from untraced")
            self.counts[status] += 1

    @property
    def attempted(self):
        return sum(self.counts.values())

    @property
    def fail_ratio(self):
        return (self.counts[checks.FAIL] + self.counts[checks.KNOWN_DEFECT]) / self.attempted


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def _keep_going(start, last_round, seconds):
    """Whether another round as long as the last one still fits."""
    elapsed = time.perf_counter() - start
    return elapsed + last_round <= min(seconds, MAX_SECONDS)


def measure(cli, job_list, outcomes, seconds):
    """Untraced rounds: the end-to-end metrics, every job time scaled.

    wall_s is the median over rounds of the round's time; job_p50_s and
    job_p90_s are taken over the jobs of the list, each job's time being its
    median over the rounds.
    """
    stamps = []                  # per round, (start, seconds) per job
    start = time.perf_counter()
    with Speedometer() as speed:
        while True:
            wall, results = run_round(cli, job_list)
            stamps.append([(r.start, r.seconds) for r in results])
            outcomes.add_round(results)
            if not _keep_going(start, wall, seconds):
                break
    times = [[speed.scaled(t, t + dt) for t, dt in round_] for round_ in stamps]
    per_job = [statistics.median(ts) for ts in zip(*times)]
    # "inclusive" keeps p90 within the job times; the search and derive lists
    # have six jobs, past whose slowest the default method would extrapolate.
    p90 = (statistics.quantiles(per_job, n=10, method="inclusive")[8]
           if len(per_job) > 1 else per_job[0])
    metrics = {
        "wall_s": (statistics.median(sum(ts) for ts in times), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_p90_s": (p90, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    beyond = sum(t > p90 for t in per_job)
    raw = statistics.median(sum(dt for _, dt in round_) for round_ in stamps)
    notes = ["rounds %d, jobs per round %d, jobs beyond p90 %d, median round unscaled %.4g s"
             % (len(stamps), len(per_job), beyond, raw)]
    return metrics, notes


def _traced_round(cli, job_list, layers=None):
    """A round under a fresh tracer; with ``layers``, under tracemalloc too."""
    tr = tracer.Tracer()
    if layers is not None:
        tracemalloc.start()
    tr.install(layers)
    try:
        wall, results = run_round(cli, job_list, None if layers is None else ALLOC_SECONDS)
    finally:
        tr.uninstall()
        if layers is not None:
            tracemalloc.stop()
    return tr, wall, results


def measure_traced(cli, job_list, outcomes, seconds, spans_path):
    """Per-layer metrics, tracing overhead, and traced-vs-untraced output checks.

    Each iteration runs an untraced round, a traced round (spans and counts)
    and an allocation round (tracemalloc, with spans only at the layers whose
    peak allocation is reported, over the jobs that fit in ALLOC_SECONDS).
    Allocation tracing is kept out of the traced round's timings.
    """
    traced_ratios, alloc_ratios, per_round = [], [], []
    start = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        plain_wall, plain = run_round(cli, job_list)
        outcomes.add_round(plain)
        tr, wall, traced = _traced_round(cli, job_list)
        traced_ratios.append(wall / plain_wall)
        outcomes.add_round(traced, reference=plain)
        ta, wall, alloc = _traced_round(cli, job_list, tracer.ALLOC_LAYERS)
        alloc_ratios.append(wall / sum(r.seconds for r in plain[:len(alloc)]))
        outcomes.add_round(alloc, reference=plain)
        m = tr.metrics()
        m.update(ta.peak_metrics())
        m["cli.stdout_bytes"] = sum(len(r.out.encode()) for r in traced)
        per_round.append(m)
        if spans_path is not None:
            tr.write_spans(spans_path)
            spans_path = None
        if not _keep_going(start, time.perf_counter() - iteration_start, seconds):
            break
    metrics = {name: statistics.median(m[name] for m in per_round)
               for name in tracer.PER_LAYER if name in per_round[0]}
    metrics["cli.fail_ratio"] = outcomes.fail_ratio
    metrics["trace.overhead_ratio"] = statistics.median(traced_ratios)
    metrics["trace.alloc_overhead_ratio"] = statistics.median(alloc_ratios)
    notes = ["iterations %d (untraced, traced and allocation rounds), jobs per round %d,"
             " jobs in the allocation round %d" % (len(per_round), len(job_list), len(alloc))]
    return metrics, notes


def record_expected(cli, workload):
    job_list = jobs.job_list(workload, jobs.DEFAULT_SEED)
    _, results = run_round(cli, job_list)
    bad = [r.argv for r in results
           if checks.classify(r.argv, r.rc, r.out, r.err, r.crashed)[0] == checks.FAIL]
    if bad:
        raise SystemExit("refusing to record: %d jobs fail their checks, e.g. %s"
                         % (len(bad), " ".join(bad[0])))
    lines = [json.dumps({"argv": list(r.argv), "exit": r.rc,
                         "stdout_sha256": checks.digest(r.out)}) for r in results]
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(os.path.join(EXPECTED_DIR, workload + ".json"), "w") as f:
        f.write('{"seed": %d, "jobs": [\n%s\n]}\n' % (jobs.DEFAULT_SEED, ",\n".join(lines)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-expected", action="store_true")
    ns = p.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        setup_s, cli = timed_setup()
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    if ns.record_expected:
        record_expected(cli, ns.workload)
        return 0

    job_list = jobs.job_list(ns.workload, ns.seed)
    outcomes = Outcomes(load_expected(ns.workload, ns.seed))
    if ns.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s-%d.tsv" % (ns.workload, ns.seed))
        values, notes = measure_traced(cli, job_list, outcomes, ns.seconds, spans)
        metrics = {k: (v, tracer.PER_LAYER[k][0]) for k, v in values.items()}
    else:
        metrics, notes = measure(cli, job_list, outcomes, ns.seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}

    failed = outcomes.counts[checks.FAIL]
    print("workload %s, seed %d, trace %d" % (ns.workload, ns.seed, ns.trace))
    for note in notes:
        print("  " + note)
    print("  jobs attempted %d, ok %d, known defects %d, failed %d, fail_ratio %.4f"
          % (outcomes.attempted, outcomes.counts[checks.OK],
             outcomes.counts[checks.KNOWN_DEFECT], failed, outcomes.fail_ratio))
    for reason in outcomes.failures[:10]:
        print("  FAILED " + reason)
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
