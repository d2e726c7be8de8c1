"""Tests of the benchmark's tracer arithmetic and of traced/untraced parity.

Run from the repository root::

    python3 -m pytest -q e2ebench/test_tracer.py

The arithmetic tests drive :class:`tracer.Tracer` with a hand-set clock;
the parity tests run small slices of ``qoco-paper`` and ``service-burst``
with and without the layer spans and require identical question counts,
verdicts and digests.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import IDLE, OTHER, Tracer, traced_wall  # noqa: E402


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _at(clock: Clock, t: float) -> None:
    clock.now = t


def _nested(tracer: Tracer, clock: Clock, stop_at: float = 10.0) -> dict:
    """other[0,10] > query[1,4] > hitting[2,3] > query[2.2,2.8];
    siblings oracle[5,6], oracle[6,7]; db[8,10] > db.edit[9,10]."""
    frames = {}

    def enter(name, t):
        _at(clock, t)
        frames.setdefault(name, []).append(tracer.enter(name))

    def leave(name, t):
        if t > stop_at:
            return False
        _at(clock, t)
        tracer.exit(frames[name].pop())
        return True

    enter(OTHER, 0)
    enter("query", 1)
    enter("hitting", 2)
    enter("query", 2.2)
    leave("query", 2.8)
    leave("hitting", 3)
    leave("query", 4)
    enter("oracle", 5)
    leave("oracle", 6)
    enter("oracle", 6)
    leave("oracle", 7)
    enter("db", 8)
    enter("db.edit", 9)
    # the child ends exactly when its parent and the root end
    if leave("db.edit", 10) and leave("db", 10):
        leave(OTHER, 10)
    return frames


def test_self_times_of_nested_reentered_and_sibling_spans() -> None:
    clock = Clock()
    tracer = Tracer(clock=clock)
    _nested(tracer, clock)
    summary = tracer.summary()
    self_s = summary["self_s"]
    assert self_s["query"] == pytest.approx(2.0 + 0.6)
    assert self_s["hitting"] == pytest.approx(0.4)
    assert self_s["oracle"] == pytest.approx(2.0)
    assert self_s["db"] == pytest.approx(1.0)
    assert self_s["db.edit"] == pytest.approx(1.0)
    assert self_s[OTHER] == pytest.approx(3.0)
    # self times plus the explicit other bucket sum to the traced wall
    assert traced_wall(self_s) == pytest.approx(10.0)
    # a layer re-entered inside itself counts its wall time once
    assert summary["total_s"]["query"] == pytest.approx(3.0)
    assert summary["spans"]["query"] == 2


def test_open_spans_are_charged_up_to_the_flush() -> None:
    clock = Clock()
    tracer = Tracer(clock=clock)
    _nested(tracer, clock, stop_at=9.5)  # db.edit, db and other stay open
    summary = tracer.summary(now=9.5)
    self_s = summary["self_s"]
    assert self_s["db.edit"] == pytest.approx(0.5)
    assert self_s["db"] == pytest.approx(1.0)
    assert self_s[OTHER] == pytest.approx(3.0)
    assert traced_wall(self_s) == pytest.approx(9.5)
    assert summary["total_s"][OTHER] == pytest.approx(9.5)


def test_idle_is_excluded_from_the_traced_wall() -> None:
    clock = Clock()
    tracer = Tracer(clock=clock)
    root = tracer.enter("service.loop")
    _at(clock, 1)
    idle = tracer.enter(IDLE)
    _at(clock, 4)
    tracer.exit(idle)
    _at(clock, 5)
    tracer.exit(root)
    self_s = tracer.summary()["self_s"]
    assert self_s["service.loop"] == pytest.approx(2.0)
    assert traced_wall(self_s) == pytest.approx(2.0)


def test_threads_keep_their_own_stacks() -> None:
    tracer = Tracer()
    barrier = threading.Barrier(4)

    def work() -> None:
        barrier.wait()
        for _ in range(200):
            with tracer.span(OTHER):
                with tracer.span("query"):
                    with tracer.span("hitting"):
                        pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    summary = tracer.summary()
    assert summary["spans"] == {OTHER: 800, "query": 800, "hitting": 800}
    assert traced_wall(summary["self_s"]) == pytest.approx(summary["total_s"][OTHER])


def test_out_of_order_close_is_refused() -> None:
    tracer = Tracer()
    outer = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_generator_resumptions_are_spans_and_sends_pass_through() -> None:
    from layers import _wrap

    clock = Clock()
    tracer = Tracer(clock=clock)

    def task():
        total = 0
        while total < 3:
            clock.now += 1.0  # work inside the generator
            total += yield total
        return "done"

    wrapped = _wrap(tracer, "core.deletion", task)
    with tracer.span(OTHER):
        gen = wrapped()
        got = [next(gen)]
        clock.now += 10.0  # the consumer's own work
        try:
            while True:
                got.append(gen.send(1))
        except StopIteration as stop:
            result = stop.value
    assert got == [0, 1, 2]
    assert result == "done"
    self_s = tracer.summary()["self_s"]
    assert self_s["core.deletion"] == pytest.approx(3.0)
    assert self_s[OTHER] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# traced vs untraced parity on the real workloads
# ---------------------------------------------------------------------------
def test_traced_qoco_paper_jobs_match_untraced() -> None:
    from layers import install
    from workloads import paper_unit, run_paper_job

    jobs = paper_unit(11)[:3]
    plain = [run_paper_job(job) for job in jobs]
    tracer = Tracer()
    patches = install(tracer)
    try:
        traced = [run_paper_job(job, lambda: tracer.span(OTHER)) for job in jobs]
    finally:
        patches.uninstall()
    assert [(o.questions, o.ok, o.digest) for o in plain] == [
        (o.questions, o.ok, o.digest) for o in traced
    ]
    assert all(o.ok for o in plain)
    summary = tracer.summary()
    assert summary["spans"].get("query", 0) > 0
    assert traced_wall(summary["self_s"]) == pytest.approx(summary["total_s"][OTHER])
    # uninstall restored the originals: no span is taken any more
    run_paper_job(jobs[0], lambda: tracer.span(OTHER))
    assert tracer.summary()["spans"]["query"] == summary["spans"]["query"]


@pytest.mark.slow
def test_traced_service_burst_matches_untraced() -> None:
    from service import read_trace, run_burst, start_server

    workdir = Path(tempfile.mkdtemp(prefix="e2ebench-test-"))
    try:
        results = []
        for tag, traced in (("plain", False), ("traced", True)):
            server = start_server(HERE.parent, workdir, tag, 40, traced=traced)
            try:
                results.append(run_burst(server, seed=3, sessions=40))
            finally:
                server.stop()
        plain, traced = results
        summary = read_trace(server)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert plain.failed == traced.failed == 0
    assert plain.digest_ok and traced.digest_ok
    assert (plain.questions, plain.digest) == (traced.questions, traced.digest)
    assert summary is not None
    assert summary["counts"]["server.commits"] == 40
