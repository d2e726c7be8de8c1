"""End-to-end benchmark of the QOCO reproduction, with a traced per-layer run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload qoco-paper --seed 1 --seconds 15 --trace 0

Workloads: ``qoco-paper``, ``crowd-dispatch``, ``service-burst`` and
``csv-repair`` (see ``e2ebench/README.md``).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones.  Lines before it are a readable
report: the environment, per-job digests and, when traced, the layer
self-time table.

An in-process workload repeats its fixed job list (a *pass*) until
``--seconds`` have been measured and reports each job's median;
``service-burst`` runs a fixed count of sessions.  Set-up is repeated in
units and its median reported as ``setup_s``.  Timings are in reference
seconds (``calibrate.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from calibrate import speed_factor
from layers import PER_LAYER_UNITS, install, layer_metrics, layer_table_rows, percentile
from tracer import OTHER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch state of every run (ignored by git); the span records of the
#: last traced run of each workload are kept here
WORK = ROOT / ".e2ebench-work"
WORKLOADS = ("qoco-paper", "crowd-dispatch", "service-burst", "csv-repair")
#: at least this many passes of each kind, whatever ``--seconds`` says
MIN_PASSES = 3
#: server start-ups per service-burst run (the last one is measured)
SERVER_STARTS = 3

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "questions": "count", "ms_per_question": "ms",
    "sessions_per_s": "1/s", "session_ms_p50": "ms", "session_ms_top1pct": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    #: final checks beyond the per-job ones (digests, traced == untraced)
    checks_ok: bool
    jobs_per_pass: int
    lines: list


def _load_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _fstype(path: Path) -> str:
    """Filesystem type of the mount holding *path* (Linux ``/proc/mounts``)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and target.startswith(parts[1]) and len(parts[1]) > len(best):
            best, kind = parts[1], parts[2]
    return kind


def environment(args, workdir: Path, jobs_per_pass: int) -> dict:
    import numpy

    from repro.query.sqlbackend import default_engine
    from service import FLUSH_POLICY

    try:
        import duckdb  # noqa: F401
        duck = True
    except ImportError:
        duck = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "duckdb": duck,
        "sql_engine": default_engine(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "workdir": str(workdir.relative_to(ROOT)),
        "workdir_fs": _fstype(workdir),
        "flush_policy": FLUSH_POLICY,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": jobs_per_pass,
    }


def top_mean(values, share: float = 0.01, floor: int = 10) -> float:
    """Mean of the slowest *share* of *values*, but of at least *floor*.

    A steadier tail than a single order statistic: on ``service-burst``
    about 1.1% of sessions stall, so the p99 flips between a stall and
    the shoulder below it from run to run.
    """
    ordered = sorted(values, reverse=True)
    count = min(len(ordered), max(floor, int(len(ordered) * share)))
    return sum(ordered[:count]) / count


def _table_lines(rows) -> list[str]:
    out = ["layer self time per pass (span, seconds, share of traced wall):"]
    out += [f"  {name:<24} {seconds:10.4f} {share:7.1%}" for name, seconds, share in rows]
    return out


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------
def setup_units(spec, seed: int, workdir: Path, around=nullcontext):
    """Build every unit's jobs; returns (jobs, reference seconds per unit)."""
    from workloads import unit_seeds

    jobs, times = [], []
    for noise_seed in unit_seeds(seed, spec.units):
        gc.collect()
        before = speed_factor()
        with around():
            start = time.perf_counter()
            jobs += spec.unit(noise_seed, workdir)
            seconds = time.perf_counter() - start
        times.append(seconds / ((before + speed_factor()) / 2.0))
    return jobs, times


class PassLog:
    """Timings and outcomes of every pass of one kind."""

    def __init__(self) -> None:
        self.raw_walls: list[float] = []
        self.factors: list[float] = []
        #: per job, its reference seconds in each pass
        self.by_job: list[list[float]] = []
        self.latencies: list[float] = []
        self.questions: list[int] = []
        self.digests: list[list[str]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.counts: dict = {}

    def add(self, jobs, outcomes) -> None:
        self.raw_walls.append(sum(o.seconds for o in outcomes))
        self.factors += [o.factor for o in outcomes]
        if not self.by_job:
            self.by_job = [[] for _ in outcomes]
        for times, o in zip(self.by_job, outcomes):
            times.append(o.ref_seconds)
        self.latencies += [o.ref_seconds * 1000.0 for o in outcomes]
        self.questions.append(sum(o.questions for o in outcomes))
        self.digests.append([o.digest for o in outcomes])
        self.attempted += len(outcomes)
        for job, o in zip(jobs, outcomes):
            if not o.ok:
                self.failures.append(f"FAILED job {job.label}: {o.why}")
            for name, value in o.counts.items():
                self.counts[name] = self.counts.get(name, 0) + value

    def job_medians(self) -> list[float]:
        """Each job's median over the passes, in reference seconds."""
        return [statistics.median(times) for times in self.by_job]

    def wall(self) -> float:
        """The pass time: each job's median, summed.

        Per-job medians filter the second-scale swings in CPU speed of a
        shared machine better than the median of whole-pass sums.
        """
        return sum(self.job_medians())

    def agree(self) -> bool:
        return all(q == self.questions[0] for q in self.questions) and all(
            d == self.digests[0] for d in self.digests)


def run_pass(spec, jobs, log: PassLog, around=nullcontext) -> None:
    """Run every job once, each between two CPU-speed calibrations."""
    gc.collect()
    outcomes = []
    after = speed_factor()
    for job in jobs:
        before = after
        outcome = spec.run_job(job, around)
        after = speed_factor()
        outcome.factor = (before + after) / 2.0
        outcomes.append(outcome)
    log.add(jobs, outcomes)


def in_process(args, workdir: Path) -> Result:
    from workloads import IN_PROCESS

    spec = IN_PROCESS[args.workload]
    jobs, setup_times = setup_units(spec, args.seed, workdir)
    plain = PassLog()
    deadline = time.perf_counter() + args.seconds
    while len(plain.raw_walls) < MIN_PASSES or time.perf_counter() < deadline:
        run_pass(spec, jobs, plain)
    wall = plain.wall()
    questions = plain.questions[0]
    job_ms = [m * 1000.0 for m in plain.job_medians()]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "questions": questions,
        "ms_per_question": wall * 1000.0 / max(1, questions),
        "sessions_per_s": len(jobs) / wall,
        # a job is a session here; both are over the jobs' median
        # latencies, so the tail is the mean of the 10 slowest jobs
        "session_ms_p50": percentile(job_ms, 50),
        "session_ms_top1pct": top_mean(job_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"job {job.label}: median {ms:.2f} ms (reference), digest {digest}"
        for job, ms, digest in zip(jobs, job_ms, plain.digests[0])
    ]
    lines += [
        f"passes: {len(plain.raw_walls)}; job runs: {len(plain.latencies)}; "
        f"setup units: {len(setup_times)}",
        f"raw pass seconds (median): {statistics.median(plain.raw_walls):.4f}; speed factor "
        f"median {statistics.median(plain.factors):.3f} (min {min(plain.factors):.3f}, "
        f"max {max(plain.factors):.3f})",
        f"passes agree on questions and digests: {plain.agree()}",
        f"session_ms_p99 (not gated): {percentile(plain.latencies, 99):.3f} ms "
        f"over {len(plain.latencies)} job runs",
    ]
    return Result(metrics, plain.attempted, len(plain.failures), True, len(jobs),
                  lines + plain.failures)


def traced_in_process(args, workdir: Path) -> Result:
    """Untraced, traced and telemetry-on passes, alternating."""
    from repro.telemetry import telemetry_session
    from workloads import IN_PROCESS

    spec = IN_PROCESS[args.workload]
    setup_tracer = Tracer(keep=0)
    patches = install(setup_tracer)
    try:
        jobs, _ = setup_units(spec, args.seed, workdir, lambda: setup_tracer.span(OTHER))
    finally:
        patches.uninstall()

    tracer = Tracer()

    def root():
        tracer.new_trace()
        return tracer.span(OTHER)

    plain, traced, telemetry = PassLog(), PassLog(), PassLog()
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < 1 or time.perf_counter() < deadline:
        rounds += 1
        run_pass(spec, jobs, plain)
        patches = install(tracer)
        try:
            run_pass(spec, jobs, traced, root)
        finally:
            patches.uninstall()
        with telemetry_session():
            run_pass(spec, jobs, telemetry)
    phase = tracer.summary()
    tracer.write_records(WORK / f"last-trace-{args.workload}.jsonl")
    logs = (plain, traced, telemetry)
    attempted = sum(log.attempted for log in logs)
    failures = [f for log in logs for f in log.failures]
    metrics = layer_metrics(phase, rounds, setup_tracer.summary(), spec.units, traced.counts)
    metrics.update({
        "telemetry.on_overhead": telemetry.wall() / plain.wall(),
        "trace.overhead": traced.wall() / plain.wall(),
        "failed_frac": len(failures) / attempted,
        "session_ms_p99": percentile(plain.latencies, 99),
    })
    same = plain.questions == traced.questions and plain.digests == traced.digests
    lines = [f"traced passes match untraced passes (questions, digests): {same}"]
    lines += _table_lines(layer_table_rows(phase, rounds))
    return Result(metrics, attempted, len(failures), same, len(jobs), lines + failures)


# ---------------------------------------------------------------------------
# service-burst
# ---------------------------------------------------------------------------
def _burst_lines(result) -> list[str]:
    return [
        f"raw session seconds: {sum(result.raw_latencies_ms) / 1000.0:.4f}; speed factor "
        f"median {statistics.median(result.factors):.3f} (min {min(result.factors):.3f}, "
        f"max {max(result.factors):.3f})",
        f"sessions: {len(result.latencies_ms)} committed: {result.committed} "
        f"failed: {result.failed} answers: {result.questions}",
        f"served digest equals ground truth: {result.digest_ok}",
        f"session log digest: {result.digest}",
        "reference seconds per 200 sessions: " + " ".join(
            f"{sum(result.latencies_ms[i:i + 200]) / 1000.0:.3f}"
            for i in range(0, len(result.latencies_ms), 200)),
        f"session_ms_p99 (not gated): {percentile(result.latencies_ms, 99):.3f} ms "
        f"over {len(result.latencies_ms)} sessions",
        f"slowest session: {max(result.latencies_ms):.1f} ms (reference), "
        f"{max(result.raw_latencies_ms):.1f} ms (raw)",
    ] + [f"FAILED {error}" for error in result.errors[:20]]


def service_burst(args, workdir: Path) -> Result:
    from service import SESSIONS, run_burst, start_server

    startups = []
    for i in range(SERVER_STARTS - 1):
        server = start_server(ROOT, workdir, f"warm{i}", SESSIONS)
        startups.append(server.startup_s)
        server.stop()
    server = start_server(ROOT, workdir, "run", SESSIONS)
    startups.append(server.startup_s)
    try:
        result = run_burst(server, args.seed)
    finally:
        server.stop()
    sessions = len(result.latencies_ms)
    metrics = {
        "setup_s": statistics.median(startups),
        "wall_s": result.wall_s,
        "questions": result.questions,
        "ms_per_question": result.wall_s * 1000.0 / max(1, result.questions),
        "sessions_per_s": sessions / result.wall_s,
        "session_ms_p50": percentile(result.latencies_ms, 50),
        "session_ms_top1pct": top_mean(result.latencies_ms),
        "peak_rss_mb": result.peak_rss_mb,
    }
    return Result(metrics, sessions, result.failed, result.digest_ok, 1, _burst_lines(result))


def traced_service_burst(args, workdir: Path) -> Result:
    """The sessions against an untraced primary, then a traced one."""
    from service import SESSIONS, read_trace, run_burst, start_server

    results = []
    for tag, traced in (("plain", False), ("traced", True)):
        server = start_server(ROOT, workdir, tag, SESSIONS, traced=traced)
        try:
            results.append(run_burst(server, args.seed))
        finally:
            server.stop()
    plain, traced = results
    phase = read_trace(server)
    if phase is None:
        raise RuntimeError("traced server wrote no span summary")
    spans = server.summary.with_suffix(".jsonl")
    if spans.exists():
        shutil.move(str(spans), WORK / "last-trace-service-burst.jsonl")
    attempted = len(plain.latencies_ms) + len(traced.latencies_ms)
    failed = plain.failed + traced.failed
    metrics = layer_metrics(phase, 1)
    metrics.update({
        "trace.overhead": traced.wall_s / plain.wall_s,
        "failed_frac": failed / attempted,
        "session_ms_p99": percentile(plain.latencies_ms, 99),
    })
    same = plain.questions == traced.questions and plain.digest == traced.digest
    lines = [f"traced run matches untraced run (questions, digest): {same}"]
    lines += _burst_lines(plain) + _burst_lines(traced)
    lines += _table_lines(layer_table_rows(phase, 1))
    ok = plain.digest_ok and traced.digest_ok and same
    return Result(metrics, attempted, failed, ok, 1, lines)


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()

    run = {
        (False, False): in_process, (False, True): traced_in_process,
        (True, False): service_burst, (True, True): traced_service_burst,
    }[(args.workload == "service-burst", bool(args.trace))]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, workdir)
        env = environment(args, workdir, result.jobs_per_pass)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: result.metrics.get(name, 0.0) for name in units}
    print("env: " + json.dumps(env, sort_keys=True))
    for line in result.lines:
        print(line)
    print(f"failed_frac: {result.failed / max(1, result.attempted):.6f} "
          f"({result.failed} of {result.attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(result.checks_ok and result.failed == 0),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
