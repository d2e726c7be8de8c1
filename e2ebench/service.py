"""``service-burst``: closed-loop sessions against a durable primary.

The primary runs as a subprocess (``python -m repro.service.cli primary
--dataset burst``, WAL fsync per commit ack, the CLI default).  This
process holds one tenant connection, which opens ``burst_query(i)`` and
waits for its commit before opening the next, and one worker connection,
a ``WorkerClient`` over ``PerfectOracle(ground truth)`` long-polling the
question feed.  The traced variant starts the primary through
``serve_traced.py`` so that spans are taken inside the server.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from calibrate import speed_factor
from repro.durability.codec import database_digest
from repro.oracle.perfect import PerfectOracle
from repro.service.cli import build_workload, burst_query
from repro.service.client import ServiceClient, ServiceError, WorkerClient
from workloads import digest_lines

#: sessions per run; a p99 needs >= 1000 samples to have 10 beyond it
SESSIONS = 1000
#: flush policy of the primary: the ``qoco-serve primary`` default
FLUSH_POLICY = "always"
#: sessions between two CPU-speed calibrations (calibrate.py)
CALIBRATE_EVERY = 10
_HERE = Path(__file__).resolve().parent
_TRANSPORT_ERRORS = (ServiceError, OSError, http.client.HTTPException)


@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int
    startup_s: float
    log: Path
    summary: Optional[Path] = None

    def peak_rss_mb(self) -> float:
        """High-water RSS of the server process, from ``/proc``."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=20)


def start_server(root: Path, workdir: Path, tag: str, sessions: int,
                 traced: bool = False) -> Server:
    """Start a primary and wait for its ``LISTENING`` line."""
    state = workdir / f"state-{tag}"
    log = workdir / f"server-{tag}.log"
    cli_args = ["primary", "--dataset", "burst", "--tenants", str(sessions),
                "--dir", str(state), "--port", "0"]
    summary = None
    if traced:
        summary = workdir / f"server-{tag}.trace.json"
        command = [sys.executable, str(_HERE / "serve_traced.py"), str(summary), *cli_args]
    else:
        command = [sys.executable, "-m", "repro.service.cli", *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    with open(log, "wb") as out:
        process = subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT, env=env,
                                   cwd=str(root))
    server = None
    try:
        deadline = start + 60.0
        while time.perf_counter() < deadline:
            for line in log.read_text(errors="replace").splitlines():
                if line.startswith("LISTENING"):
                    _, host, port = line.split()
                    server = Server(process, host, int(port), time.perf_counter() - start,
                                    log, summary)
                    return server
            if process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"primary did not start: {log.read_text(errors='replace')[-2000:]}")
    finally:
        if server is None and process.poll() is None:
            process.kill()
            process.wait(timeout=20)


@dataclass
class BurstResult:
    #: Σ session latencies in reference seconds (calibrate.py)
    wall_s: float
    #: per-session open -> committed latency, reference milliseconds
    latencies_ms: list[float]
    raw_latencies_ms: list[float]
    factors: list[float]
    committed: int
    failed: int
    questions: int
    digest_ok: bool
    digest: str
    peak_rss_mb: float
    errors: list[str] = field(default_factory=list)


class _Worker:
    """The worker connection: long-polls until stopped, counting failures."""

    def __init__(self, host: str, port: int, truth) -> None:
        self.client = WorkerClient(host, port, "w0", PerfectOracle(truth), poll_wait=1.0)
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-worker", daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.client.poll_once()
            except _TRANSPORT_ERRORS as error:
                self.errors.append(repr(error))
                self._stop.wait(0.1)

    def __enter__(self) -> "_Worker":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=30)
        self.client.close()
        if self._thread.is_alive():
            raise RuntimeError("worker thread did not stop")


def run_burst(server: Server, seed: int, sessions: int = SESSIONS) -> BurstResult:
    """Drive *sessions* closed-loop sessions; check commits and the digest."""
    truth = build_workload("burst", tenants=sessions).ground_truth
    order = list(range(sessions))
    random.Random(seed).shuffle(order)
    latencies: list[float] = []
    committed, failed = 0, 0
    errors: list[str] = []
    log_lines: list[str] = []
    tenant = ServiceClient(server.host, server.port, tenant="bench")
    try:
        with _Worker(server.host, server.port, truth) as worker:
            marks = [speed_factor()]
            for count, index in enumerate(order):
                if count and count % CALIBRATE_EVERY == 0:
                    marks.append(speed_factor())
                start = time.perf_counter()
                try:
                    sid = tenant.open(burst_query(index))
                    doc = tenant.wait(sid, timeout=60.0)
                except _TRANSPORT_ERRORS as error:
                    errors.append(f"session {index}: {error!r}")
                    failed += 1
                    continue
                finally:
                    latencies.append((time.perf_counter() - start) * 1000.0)
                if doc.get("state") == "committed":
                    committed += 1
                else:
                    failed += 1
                    errors.append(f"session {index}: state {doc.get('state')}")
                edits = (doc.get("report") or {}).get("edits", [])
                log_lines.append(f"{index}|{doc.get('cost')}|{json.dumps(edits, sort_keys=True)}")
            marks.append(speed_factor())
        failed += len(worker.errors)
        errors += worker.errors
        served = tenant.digest()["digest"]
    finally:
        tenant.close()
    expected = database_digest(truth)
    # each block of sessions is scaled by the mean of the calibrations
    # taken just before and just after it
    factors = [
        (marks[i // CALIBRATE_EVERY] + marks[i // CALIBRATE_EVERY + 1]) / 2.0
        for i in range(len(latencies))
    ]
    ref = [ms / f for ms, f in zip(latencies, factors)]
    return BurstResult(
        wall_s=sum(ref) / 1000.0, latencies_ms=ref, raw_latencies_ms=latencies,
        factors=factors, committed=committed, failed=failed,
        questions=worker.client.answered, digest_ok=served == expected,
        digest=digest_lines(log_lines), peak_rss_mb=server.peak_rss_mb(), errors=errors,
    )


def read_trace(server: Server) -> Optional[dict]:
    """The span summary a traced server wrote on SIGTERM."""
    if server.summary is None or not server.summary.exists():
        return None
    return json.loads(server.summary.read_text())
