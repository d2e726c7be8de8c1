"""Layer spans for the traced run, installed from outside the program.

:func:`install` wraps public functions and methods of each ``repro``
layer so that every call opens a span named after the layer (see
``SPANS`` below); :meth:`Patches.uninstall` puts the originals back.  No
file under ``src/`` changes.  A module-level function is replaced in every
loaded ``repro`` module that imported it by name, so call sites that did
``from ..x import f`` are covered too.  Spans are only taken inside a root
span (a job, a set-up unit, a server thread's task), so the benchmark's
own copies and checks stay out of the layer table.

:func:`layer_metrics` turns a tracer summary into the per-layer metrics
named in ``BENCHMARK.json``.  Metrics named ``*.self_s`` are exclusive
time; other ``*_s`` metrics are the inclusive time of that operation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import types
from typing import Any, Callable, Optional

from tracer import IDLE, OTHER, Tracer, traced_wall

#: (module, class or None, attribute names, span name)
SPANS: list[tuple[str, Optional[str], tuple[str, ...], str]] = [
    # datasets / ingest (set-up)
    ("repro.datasets.worldcup", None, ("worldcup_database",), "datasets.generate"),
    ("repro.datasets.noise", None, ("inject_result_errors",), "datasets.noise"),
    ("repro.ingest.loader", None, ("make_noisy_csv",), "ingest.noise"),
    ("repro.ingest.loader", None, ("load_csv",), "ingest.load"),
    ("repro.ingest.loader", None, ("write_csv",), "ingest.write"),
    ("repro.ingest.loader", None, ("read_table",), "ingest.read"),
    # query evaluation (naive, backends, columnar, sql)
    ("repro.query.evaluator", "Evaluator",
     ("answers", "assignments", "is_satisfiable", "witnesses"), "query"),
    ("repro.query.backend", "NaiveBackend",
     ("assignments", "evaluate", "run", "is_satisfiable"), "query"),
    ("repro.query.backend", "FallbackBackend",
     ("assignments", "evaluate", "run", "is_satisfiable"), "query"),
    ("repro.query.backend", "BackendEvaluator",
     ("assignments", "answers", "is_satisfiable", "witnesses"), "query"),
    ("repro.query.columnar", "ColumnarBackend",
     ("assignments", "evaluate", "run", "is_satisfiable"), "query"),
    ("repro.query.columnar", "_Store", ("relation",), "query.encode"),
    ("repro.query.sqlbackend", "SQLBackend",
     ("assignments", "evaluate", "run", "is_satisfiable"), "query"),
    # incremental maintenance
    ("repro.query.incremental", "IncrementalAnswers",
     ("before_change", "after_change"), "incremental.delta"),
    ("repro.query.incremental", "IncrementalAnswers", ("refresh",), "incremental.refresh"),
    ("repro.query.incremental", "IncrementalAnswers",
     ("answers", "witnesses", "__contains__"), "incremental"),
    # provenance, min-cut, hitting sets
    ("repro.provenance.witness", None,
     ("why_provenance", "lineage", "fact_frequencies", "most_frequent_fact",
      "witnesses_containing", "witnesses_without", "remove_fact_from_all"),
     "provenance"),
    ("repro.core.split", "ProvenanceSplit", ("split",), "provenance"),
    ("repro.provenance.whynot", None, ("find_picky_join",), "provenance.whynot"),
    ("repro.core.split", "MinCutSplit", ("split",), "mincut"),
    ("repro.mincut.stoer_wagner", None, ("minimum_cut",), "mincut"),
    ("repro.hitting.hitting_set", None,
     ("normalize", "is_hitting_set", "is_minimal_hitting_set", "singleton_elements",
      "unique_minimal_hitting_set", "most_frequent_element", "greedy_hitting_set",
      "exact_minimum_hitting_set", "all_minimal_hitting_sets"),
     "hitting"),
    # core cleaning loop
    ("repro.core.qoco", "QOCO", ("clean",), "core"),
    ("repro.core.parallel", "ParallelQOCO", ("clean",), "core"),
    ("repro.core.deletion", None, ("crowd_remove_wrong_answer",), "core.deletion"),
    ("repro.core.insertion", None, ("crowd_add_missing_answer",), "core.insertion"),
    ("repro.core.parallel", None, ("removal_task",), "core.deletion"),
    ("repro.core.parallel", None, ("insertion_task",), "core.insertion"),
    # oracle: the accounting wrapper and the member oracles behind it
    ("repro.oracle.base", "AccountingOracle",
     ("verify_fact", "verify_facts", "verify_answer", "verify_candidate",
      "complete_assignment", "complete_result", "record_interaction"),
     "oracle"),
    ("repro.server.sharing", "SharedOracle",
     ("verify_fact", "verify_answer", "verify_candidate"), "oracle"),
    ("repro.oracle.perfect", "PerfectOracle",
     ("verify_fact", "verify_facts", "verify_answer", "verify_candidate",
      "complete_assignment", "complete_result"),
     "oracle.member"),
    ("repro.service.broker", "BrokeredOracle",
     ("verify_fact", "verify_facts", "verify_answer", "verify_candidate",
      "complete_assignment", "complete_result"),
     "oracle.member"),
    # simulated crowd dispatch
    ("repro.dispatch.engine", "DispatchEngine", ("resolve_round",), "dispatch"),
    # constraint repairs
    ("repro.constraints.repairer", "OracleRepairer", ("run",), "constraints"),
    ("repro.constraints.violations", None, ("find_violations",), "constraints.detect"),
    ("repro.constraints.repair", None, ("violation_hypergraph",), "constraints.hypergraph"),
    # the repairer's own most-frequent-fact pick over the hypergraph (it
    # does not call repro.hitting)
    ("repro.constraints.repairer", "OracleRepairer", ("_most_frequent",), "constraints.choose"),
    # database edits, copies, forks
    ("repro.db.database", "Database", ("insert", "delete"), "db.edit"),
    ("repro.db.fork", "DatabaseFork", ("insert", "delete"), "db.edit"),
    ("repro.db.database", "Database", ("copy",), "db.copy"),
    ("repro.db.database", "Database", ("fork",), "db.fork"),
    # server: fork -> run -> commit per session
    ("repro.server.manager", "SessionManager", ("drive",), "server"),
    # durability: WAL append + fsync, checkpoints
    ("repro.durability.store", "DurabilityStore", ("append",), "durability.append"),
    ("repro.durability.store", "DurabilityStore", ("write_checkpoint",), "durability.checkpoint"),
    ("repro.durability.wal", "WalWriter", ("sync",), "durability.fsync"),
    # service: the question broker (handlers are timed separately)
    ("repro.service.broker", "QuestionBroker", ("submit", "lease", "answer", "expire"),
     "service"),
]

#: spans whose calls into ``db.edit`` are bulk loads, charged to the parent
_ABSORBS_EDITS = {"db.copy", "ingest.load", "datasets.generate"}

#: HTTP routes whose handler latency is recorded (CrowdService coroutine
#: methods, bound as route handlers when the service is constructed)
ROUTES = {
    "open": "_open_session",
    "wait": "_wait_session",
    "feed": "_worker_feed",
    "answer": "_worker_answer",
}


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------
def _traced_generator(tracer: Tracer, name: str, gen):
    """Re-yield *gen*, each resumption inside its own *name* span."""
    send, throw = None, None
    while True:
        top = tracer.top()
        frame = None if top is None or top == name else tracer.enter(name)
        try:
            item = gen.send(send) if throw is None else gen.throw(throw)
        except StopIteration as stop:
            return stop.value
        finally:
            if frame is not None:
                tracer.exit(frame)
        send, throw = None, None
        try:
            send = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as error:  # thrown in by the consumer: forward it
            throw = error


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Optional[Callable] = None):
    absorb = _ABSORBS_EDITS if name == "db.edit" else ()
    calls_key = "calls:" + name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        top = tracer.top()
        if top is None or top == name or top in absorb:
            # outside every root span (benchmark glue), or a re-entry
            return fn(*args, **kwargs)
        tracer.count(calls_key)
        done = hook(args, kwargs) if hook is not None else None
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = tracer.exit(frame)
        if done is not None:
            done(result, seconds)
        if isinstance(result, types.GeneratorType):
            return _traced_generator(tracer, name, result)
        return result

    return wrapper


class Patches:
    """The attributes :func:`install` replaced, for :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original, had in reversed(self._undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _replace_function(patches: Patches, module: types.ModuleType, attr: str, wrapper) -> None:
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                patches.set(loaded, key, wrapper)


def _hooks(tracer: Tracer) -> dict[tuple[str, str], Callable]:
    """Per-call hooks that count what happens at a layer boundary."""
    local = threading.local()

    def oracle_call(args, kwargs):
        oracle = args[0]
        before = oracle.log.question_count

        def done(result, seconds):
            tracer.count("oracle.lookups")
            if oracle.log.question_count == before:
                tracer.count("oracle.cache_hits")

        return done

    def member_call(args, kwargs):
        now = tracer.clock()
        last = getattr(local, "last_answer", None)
        trace = tracer.current_trace()
        if last is not None and last[0] == trace:
            tracer.observe("oracle.gap_ms", (now - last[1]) * 1000.0)

        def done(result, seconds):
            local.last_answer = (trace, tracer.clock())

        return done

    def fallback_call(args, kwargs):
        backend, query = args[0], args[1]
        tracer.count("query.routed")
        if not backend.preferred.supports(query):
            tracer.count("query.fallbacks")
        return None

    def query_call(args, kwargs):
        if tracer.is_open("datasets.noise"):
            tracer.count("datasets.noise_evals")
        return None

    def delta_call(args, kwargs):
        tracer.count("incremental.deltas")
        return None

    def drive_call(args, kwargs):
        tracer.new_trace()

        def done(session, seconds):
            state = getattr(session.state, "name", str(session.state))
            if state == "COMMITTED":
                tracer.count("server.commits")
            tracer.count("server.replays", session.replays)

        return done

    def append_call(args, kwargs):
        def done(size, seconds):
            tracer.count("durability.bytes", size or 0)
            tracer.observe("durability.append_ms", seconds * 1000.0)

        return done

    submitted: dict[int, float] = {}

    def submit_call(args, kwargs):
        def done(question, seconds):
            submitted[question.qid] = tracer.clock()

        return done

    def lease_call(args, kwargs):
        def done(lease, seconds):
            if lease is not None and lease.get("attempt") == 1:
                at = submitted.pop(lease["qid"], None)
                if at is not None:
                    tracer.observe("service.lease_wait_ms", (tracer.clock() - at) * 1000.0)

        return done

    def answer_call(args, kwargs):
        def done(outcome, seconds):
            if outcome.get("status") == "duplicate":
                tracer.count("service.duplicate_answers")

        return done

    def read_call(args, kwargs):
        loading = tracer.is_open("ingest.load")

        def done(result, seconds):
            if loading:
                tracer.count("ingest.rows", len(result[1]))

        return done

    def tick_call(args, kwargs):
        tracer.count("core.rounds")
        return None

    questions = ("verify_fact", "verify_facts", "verify_answer", "verify_candidate",
                 "complete_assignment", "complete_result")
    return {
        **{(owner, attr): oracle_call
           for owner in ("AccountingOracle", "SharedOracle") for attr in questions},
        ("oracle.member", "*"): member_call,
        ("FallbackBackend", "*"): fallback_call,
        ("Evaluator", "*"): query_call,
        ("IncrementalAnswers", "after_change"): delta_call,
        ("SessionManager", "drive"): drive_call,
        ("DurabilityStore", "append"): append_call,
        ("QuestionBroker", "submit"): submit_call,
        ("QuestionBroker", "lease"): lease_call,
        ("QuestionBroker", "answer"): answer_call,
        ("RoundScheduler", "tick"): tick_call,
        (None, "read_table"): read_call,
    }


def _hook_for(hooks: dict, owner: Optional[str], attr: str, span: str) -> Optional[Callable]:
    for key in ((owner, attr), (owner, "*"), (span, "*")):
        if key in hooks:
            return hooks[key]
    return None


def _count_only(fn: Callable, hook: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hook(args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer, *, server: bool = False) -> Patches:
    """Wrap every layer in ``SPANS``; with *server*, the service too."""
    hooks = _hooks(tracer)
    patches = Patches()
    for module_name, owner, attrs, span in SPANS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:  # an optional engine that is not installed
            continue
        for attr in attrs:
            hook = _hook_for(hooks, owner, attr, span)
            if owner is None:
                fn = getattr(module, attr)
                _replace_function(patches, module, attr, _wrap(tracer, span, fn, hook))
            else:
                cls = getattr(module, owner)
                patches.set(cls, attr, _wrap(tracer, span, getattr(cls, attr), hook))
    parallel = importlib.import_module("repro.core.parallel")
    patches.set(
        parallel.RoundScheduler, "tick",
        _count_only(parallel.RoundScheduler.tick, hooks[("RoundScheduler", "tick")]),
    )
    if server:
        _install_service(tracer, patches)
    return patches


def _install_service(tracer: Tracer, patches: Patches) -> None:
    """Server-process spans: route latency, executor roots, loop idle."""
    import concurrent.futures
    import selectors

    from repro.service.app import CrowdService
    from repro.service.http import HttpError

    def route_wrapper(route: str, fn):
        key = "service.request_ms." + route

        @functools.wraps(fn)
        async def handler(self, request):
            start = tracer.clock()
            tracer.count("service.requests")
            try:
                return await fn(self, request)
            except HttpError as error:
                if error.status == 429:
                    tracer.count("service.rejections_429")
                raise
            finally:
                tracer.observe(key, (tracer.clock() - start) * 1000.0)

        return handler

    for route, attr in ROUTES.items():
        patches.set(CrowdService, attr, route_wrapper(route, getattr(CrowdService, attr)))

    submit = concurrent.futures.ThreadPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        def root(*a, **k):
            tracer.new_trace()
            with tracer.span(OTHER):
                return fn(*a, **k)

        return submit(self, root, *args, **kwargs)

    patches.set(concurrent.futures.ThreadPoolExecutor, "submit", traced_submit)

    selector = selectors.DefaultSelector
    select = selector.select

    def idle_select(self, timeout=None):
        with tracer.span(IDLE):
            return select(self, timeout)

    patches.set(selector, "select", idle_select)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metric names and units, in report order
PER_LAYER_UNITS: dict[str, str] = {
    "datasets.generate_s": "s", "datasets.noise_s": "s", "datasets.noise_evals": "count",
    "ingest.noise_s": "s", "ingest.load_s": "s", "ingest.rows": "count",
    "query.calls": "count", "query.self_s": "s", "query.columnar_encode_s": "s",
    "query.fallbacks": "count", "query.fallback_ratio": "ratio",
    "incremental.self_s": "s", "incremental.deltas": "count", "incremental.delta_s": "s",
    "incremental.refreshes": "count", "incremental.refresh_s": "s",
    "incremental.recompute_ratio": "ratio",
    "provenance.self_s": "s", "provenance.whynot_calls": "count", "mincut.self_s": "s",
    "hitting.calls": "count", "hitting.self_s": "s",
    "core.self_s": "s", "core.deletion_self_s": "s", "core.insertion_self_s": "s",
    "core.episodes": "count", "core.parallel_rounds": "count",
    "oracle.self_s": "s", "oracle.calls": "count", "oracle.busy_s": "s",
    "oracle.cache_hit_ratio": "ratio", "oracle.gap_ms_p50": "ms", "oracle.gap_ms_p99": "ms",
    "dispatch.self_s": "s", "dispatch.leases": "count", "dispatch.timeouts": "count",
    "dispatch.reroutes": "count", "dispatch.dedup_hits": "count",
    "dispatch.answers_per_lease": "ratio", "dispatch.sim_makespan_s": "s",
    "constraints.self_s": "s", "constraints.detect_calls": "count", "constraints.detect_s": "s",
    "constraints.hypergraph_s": "s", "constraints.choose_s": "s", "constraints.rounds": "count",
    "db.self_s": "s", "db.edits": "count", "db.edit_s": "s", "db.copy_s": "s",
    "db.forks": "count", "db.fork_s": "s",
    "server.drive_self_s": "s", "server.commits": "count", "server.replays": "count",
    "durability.self_s": "s", "durability.appends": "count", "durability.append_ms_p50": "ms",
    "durability.append_ms_p99": "ms", "durability.fsyncs": "count",
    "durability.wal_bytes_per_commit": "B",
    "service.self_s": "s", "service.requests": "count",
    **{f"service.request_ms_{q}.{route}": "ms" for route in ROUTES for q in ("p50", "p99")},
    "service.lease_wait_ms_p50": "ms", "service.rejections_429": "count",
    "service.duplicate_answers": "count",
    "telemetry.on_overhead": "ratio",
    "trace.wall_s": "s", "trace.other_s": "s", "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "failed_frac": "ratio",
    "session_ms_p99": "ms",
}


def layer_metrics(phase: dict, passes: int, setup: Optional[dict] = None,
                  setup_units: int = 1, extra_counts: Optional[dict] = None) -> dict[str, float]:
    """Per-layer metrics from a measured-phase summary (per pass).

    *phase* and *setup* are :meth:`Tracer.summary` results; times and
    counts are divided by *passes* (or *setup_units*), ratios and
    percentiles are taken over everything recorded.
    """
    self_s, total_s, spans = phase["self_s"], phase["total_s"], phase["spans"]
    counts = dict(phase["counts"])
    for name, value in (extra_counts or {}).items():
        counts[name] = counts.get(name, 0) + value
    samples = phase["samples"]
    n = max(1, passes)

    def own(*names: str) -> float:
        return sum(self_s.get(x, 0.0) for x in names) / n

    def incl(name: str) -> float:
        return total_s.get(name, 0.0) / n

    def calls(name: str) -> float:
        return counts.get("calls:" + name, 0) / n

    def cnt(name: str) -> float:
        return counts.get(name, 0) / n

    wall = traced_wall(self_s)
    setup = setup or {"self_s": {}, "total_s": {}, "counts": {}}
    units = max(1, setup_units)
    out = {
        "datasets.generate_s": setup["total_s"].get("datasets.generate", 0.0) / units,
        "datasets.noise_s": setup["total_s"].get("datasets.noise", 0.0) / units,
        "datasets.noise_evals": setup["counts"].get("datasets.noise_evals", 0) / units,
        "ingest.noise_s": setup["total_s"].get("ingest.noise", 0.0) / units,
        "ingest.load_s": setup["total_s"].get("ingest.load", 0.0) / units,
        "ingest.rows": setup["counts"].get("ingest.rows", 0) / units,
        "query.calls": calls("query"),
        "query.self_s": own("query", "query.encode"),
        "query.columnar_encode_s": own("query.encode"),
        "query.fallbacks": cnt("query.fallbacks"),
        "query.fallback_ratio": _ratio(counts.get("query.fallbacks", 0),
                                       counts.get("query.routed", 0)),
        "incremental.self_s": own("incremental", "incremental.delta", "incremental.refresh"),
        "incremental.deltas": cnt("incremental.deltas"),
        "incremental.delta_s": incl("incremental.delta"),
        "incremental.refreshes": calls("incremental.refresh"),
        "incremental.refresh_s": incl("incremental.refresh"),
        "incremental.recompute_ratio": _ratio(
            counts.get("calls:incremental.refresh", 0),
            counts.get("calls:incremental.refresh", 0) + counts.get("incremental.deltas", 0)),
        "provenance.self_s": own("provenance", "provenance.whynot"),
        "provenance.whynot_calls": calls("provenance.whynot"),
        "mincut.self_s": own("mincut"),
        "hitting.calls": calls("hitting"),
        "hitting.self_s": own("hitting"),
        "core.self_s": own("core", "core.deletion", "core.insertion"),
        "core.deletion_self_s": own("core.deletion"),
        "core.insertion_self_s": own("core.insertion"),
        "core.episodes": calls("core.deletion") + calls("core.insertion"),
        "core.parallel_rounds": cnt("core.rounds"),
        "oracle.self_s": own("oracle", "oracle.member"),
        "oracle.calls": calls("oracle.member"),
        "oracle.busy_s": incl("oracle.member"),
        "oracle.cache_hit_ratio": _ratio(counts.get("oracle.cache_hits", 0),
                                         counts.get("oracle.lookups", 0)),
        "oracle.gap_ms_p50": percentile(samples.get("oracle.gap_ms", []), 50),
        "oracle.gap_ms_p99": percentile(samples.get("oracle.gap_ms", []), 99),
        "dispatch.self_s": own("dispatch"),
        "dispatch.leases": cnt("dispatch.leases"),
        "dispatch.timeouts": cnt("dispatch.timeouts"),
        "dispatch.reroutes": cnt("dispatch.reroutes"),
        "dispatch.dedup_hits": cnt("dispatch.dedup_hits"),
        "dispatch.answers_per_lease": _ratio(counts.get("dispatch.answers", 0),
                                             counts.get("dispatch.leases", 0)),
        "dispatch.sim_makespan_s": cnt("dispatch.sim_makespan_s"),
        "constraints.self_s": own("constraints", "constraints.detect", "constraints.hypergraph",
                                  "constraints.choose"),
        "constraints.detect_calls": calls("constraints.detect"),
        "constraints.detect_s": incl("constraints.detect"),
        "constraints.hypergraph_s": incl("constraints.hypergraph"),
        "constraints.choose_s": incl("constraints.choose"),
        "constraints.rounds": cnt("constraints.rounds"),
        "db.self_s": own("db.edit", "db.copy", "db.fork"),
        "db.edits": calls("db.edit"),
        "db.edit_s": incl("db.edit"),
        "db.copy_s": incl("db.copy"),
        "db.forks": calls("db.fork"),
        "db.fork_s": incl("db.fork"),
        "server.drive_self_s": own("server"),
        "server.commits": cnt("server.commits"),
        "server.replays": cnt("server.replays"),
        "durability.self_s": own("durability.append", "durability.fsync",
                                 "durability.checkpoint"),
        "durability.appends": calls("durability.append"),
        "durability.append_ms_p50": percentile(samples.get("durability.append_ms", []), 50),
        "durability.append_ms_p99": percentile(samples.get("durability.append_ms", []), 99),
        "durability.fsyncs": calls("durability.fsync"),
        "durability.wal_bytes_per_commit": _ratio(counts.get("durability.bytes", 0),
                                                  counts.get("server.commits", 0)),
        "service.self_s": own("service", "service.loop"),
        "service.requests": cnt("service.requests"),
    }
    for route in ROUTES:
        values = samples.get("service.request_ms." + route, [])
        out[f"service.request_ms_p50.{route}"] = percentile(values, 50)
        out[f"service.request_ms_p99.{route}"] = percentile(values, 99)
    out.update({
        "service.lease_wait_ms_p50": percentile(samples.get("service.lease_wait_ms", []), 50),
        "service.rejections_429": cnt("service.rejections_429"),
        "service.duplicate_answers": cnt("service.duplicate_answers"),
        "trace.wall_s": wall / n,
        "trace.other_s": own(OTHER),
        "trace.coverage": _ratio(wall - self_s.get(OTHER, 0.0), wall),
    })
    return out


def layer_table_rows(phase: dict, passes: int) -> list[tuple[str, float, float]]:
    """(span name, self seconds per pass, share of traced wall), largest first."""
    self_s = phase["self_s"]
    wall = traced_wall(self_s)
    rows = [
        (name, value / max(1, passes), _ratio(value, wall))
        for name, value in self_s.items() if name != IDLE
    ]
    return sorted(rows, key=lambda row: -row[1])


__all__ = [
    "PER_LAYER_UNITS", "Patches", "ROUTES", "SPANS", "install", "layer_metrics",
    "layer_table_rows", "percentile",
]
