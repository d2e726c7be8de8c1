"""The four workloads: inputs from a seed, jobs, and correctness checks.

Each in-process workload (``qoco-paper``, ``crowd-dispatch``,
``csv-repair``) builds its inputs in *units* (one dataset + noise seed
each), then turns them into a fixed list of jobs.  A job calls one public
entry point (``repro.api.clean``, ``dispatch_clean`` or ``repair``) on a
fresh copy of its dirty database and is checked afterwards; only the
entry-point call is timed, inside the *around* context a job runner is
given (the traced run passes a root span there).  ``service-burst`` lives in ``service.py``.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Optional

import repro.api as api
from repro.constraints import parse_fd, satisfies
from repro.crowdsim import lognormal_latency
from repro.datasets import noise as dataset_noise
from repro.datasets import worldcup
from repro.dispatch import FaultModel, RetryPolicy
from repro.ingest import DuplicateRows, MixedFormats, NoisePipeline, TypePollution
from repro.ingest import loader as ingest_loader
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.evaluator import Evaluator
from repro.workloads import Q1, Q2, Q3, Q4, Q5

PAPER_QUERIES = (Q1, Q2, Q3, Q4, Q5)
#: noise seeds (units) per run of the paper workloads: 5 x Q1-Q5 = 25 jobs
PAPER_UNITS = 5
#: wrong and missing answers injected per query (the paper's 5 + 5)
PAPER_WRONG, PAPER_MISSING = 5, 5

CROWD_MEMBERS = 8
CROWD_VOTES = 3
#: retries per vote slot.  An assignment fails about 44% of the time
#: (20% no-show, 20% late, 13% of log-normal answers past the 300 s
#: timeout); with 6 retries about 1 job in 30 exhausted a slot and
#: degraded to an unconverged clean by design.  20 makes that
#: vanishingly rare while every retry path still runs.
CROWD_RETRIES = 20

CSV_REPLICAS = 10
CSV_UNITS = 2
CSV_HEADER = ["date", "winner", "runner_up", "stage", "result"]
CSV_FD = "games: date -> winner, runner_up, stage, result"


Around = Callable[[], ContextManager]


@dataclass
class Job:
    """One measured call: a clean, a dispatched clean or a repair."""

    label: str
    dirty: Any
    truth: Any
    query: Any = None
    seed: int = 0
    #: Q(D_G), filled lazily outside every timer
    true_answers: Optional[set] = None


@dataclass
class Outcome:
    seconds: float
    questions: int
    ok: bool
    digest: str
    why: str = ""
    #: per-layer counts read from the entry point's own result
    counts: dict = field(default_factory=dict)
    #: machine slowness around the job: mean of the calibrations just
    #: before and just after it (calibrate.py)
    factor: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.factor


def digest_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(str(line).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_digest(log_records, edits) -> str:
    """Digest of one job's question log and edits (printed, not gated)."""
    return digest_lines(
        [f"{r.kind.value}|{r.cost}|{r.detail}" for r in log_records]
        + [f"{e.kind.value}|{e.fact!r}" for e in edits]
    )


def unit_seeds(seed: int, units: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(units)]


# ---------------------------------------------------------------------------
# qoco-paper / crowd-dispatch: worldcup at paper scale, Q1-Q5
# ---------------------------------------------------------------------------
def paper_unit(noise_seed: int, workdir: Optional[Path] = None) -> list[Job]:
    """One set-up unit: generate worldcup, dirty Q1-Q5 under one seed."""
    truth = worldcup.worldcup_database()
    jobs = []
    for query in PAPER_QUERIES:
        errors = dataset_noise.inject_result_errors(
            truth, query, PAPER_WRONG, PAPER_MISSING, random.Random(noise_seed)
        )
        jobs.append(Job(f"{query.name}/{noise_seed}", errors.dirty, truth, query, noise_seed))
    return jobs


def _check_clean(job: Job, db, report) -> tuple[bool, str]:
    if job.true_answers is None:
        job.true_answers = Evaluator(job.query, job.truth).answers()
    if not report.converged:
        return False, "not converged"
    if Evaluator(job.query, db).answers() != job.true_answers:
        return False, "Q(D) != Q(D_G)"
    return True, ""


def run_paper_job(job: Job, around: Around = nullcontext) -> Outcome:
    db = job.dirty.copy()
    oracle = AccountingOracle(PerfectOracle(job.truth))
    with around():
        start = time.perf_counter()
        report = api.clean(db, job.query, oracle, seed=job.seed)
        seconds = time.perf_counter() - start
    ok, why = _check_clean(job, db, report)
    return Outcome(seconds, report.log.question_count, ok,
                   run_digest(report.log.records, report.edits), why)


def run_dispatch_job(job: Job, around: Around = nullcontext) -> Outcome:
    db = job.dirty.copy()
    members = [PerfectOracle(job.truth)] * CROWD_MEMBERS
    with around():
        start = time.perf_counter()
        report, engine = api.dispatch_clean(
            db, job.query, members,
            votes_per_closed=CROWD_VOTES,
            latency=lognormal_latency(),
            retry=RetryPolicy(timeout=300.0, max_retries=CROWD_RETRIES),
            faults=FaultModel(no_show_rate=0.2, late_rate=0.2, dropout_rate=0.0,
                              rng=random.Random(job.seed + 1)),
            rng=random.Random(job.seed),
            seed=job.seed,
        )
        seconds = time.perf_counter() - start
    ok, why = _check_clean(job, db, report)
    stats = engine.stats
    counts = {
        "dispatch.leases": stats.member_answers + stats.no_shows + stats.dropouts,
        "dispatch.answers": stats.member_answers - stats.discarded_answers,
        "dispatch.timeouts": stats.timeouts,
        "dispatch.reroutes": stats.retries,
        "dispatch.dedup_hits": stats.dedup_coalesced,
        "dispatch.sim_makespan_s": engine.wall_clock,
        "oracle.cache_hits": stats.cache_hits,
        "oracle.lookups": stats.cache_hits + stats.questions,
    }
    return Outcome(seconds, report.log.question_count, ok,
                   run_digest(report.log.records, report.edits), why, counts)


# ---------------------------------------------------------------------------
# csv-repair: worldcup games x 10 through CSV, FD repair on columnar
# ---------------------------------------------------------------------------
def csv_unit(noise_seed: int, workdir: Path) -> list[Job]:
    """One set-up unit: generate, write CSV, add noise, load both sides."""
    db = worldcup.worldcup_database(worldcup.WorldCupConfig(replicas=CSV_REPLICAS))
    rows = [[str(v) for v in f.values] for f in sorted(db.facts("games"), key=lambda f: f.values)]
    unit_dir = Path(tempfile.mkdtemp(prefix=f"csv-{noise_seed}-", dir=workdir))
    clean_csv, dirty_csv = unit_dir / "games.csv", unit_dir / "games_dirty.csv"
    ingest_loader.write_csv(clean_csv, CSV_HEADER, rows)
    noise = NoisePipeline(
        (TypePollution(rate=0.02), MixedFormats(rate=0.05),
         DuplicateRows(rate=0.10, perturb_columns=(1, 4))),
        seed=noise_seed,
    )
    ingest_loader.make_noisy_csv(clean_csv, dirty_csv, noise)
    truth = api.load_csv(clean_csv, relation="games")
    dirty = api.load_csv(dirty_csv, relation="games")
    return [Job(f"games/{noise_seed}", dirty, truth, None, noise_seed)]


def run_repair_job(job: Job, around: Around = nullcontext) -> Outcome:
    db = job.dirty.copy()
    with around():
        start = time.perf_counter()
        report = api.repair(db, CSV_FD, PerfectOracle(job.truth), strategy="oracle",
                            backend="columnar")
        seconds = time.perf_counter() - start
    ok, why = True, ""
    if not report.consistent:
        ok, why = False, "repair not consistent"
    elif not satisfies(db, [parse_fd(CSV_FD)]):
        ok, why = False, "FD violated after repair"
    digest = digest_lines(
        [report.questions_asked] + [f"{e.kind.value}|{e.fact!r}" for e in report.edits]
    )
    return Outcome(seconds, report.questions_asked, ok, digest, why,
                   {"constraints.rounds": report.rounds})


@dataclass(frozen=True)
class InProcess:
    """An in-process workload: its set-up unit, unit count and job runner."""

    units: int
    #: (noise seed, scratch directory) -> the unit's jobs
    unit: Callable[[int, Path], list[Job]]
    run_job: Callable[..., Outcome]


IN_PROCESS = {
    "qoco-paper": InProcess(PAPER_UNITS, paper_unit, run_paper_job),
    "crowd-dispatch": InProcess(PAPER_UNITS, paper_unit, run_dispatch_job),
    "csv-repair": InProcess(CSV_UNITS, csv_unit, run_repair_job),
}
