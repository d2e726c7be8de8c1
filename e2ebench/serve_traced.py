"""Run ``qoco-serve`` with layer spans installed, flushing them on SIGTERM.

Usage::

    python e2ebench/serve_traced.py SUMMARY.json primary --dataset burst ...

Everything after the summary path is handed to
``repro.service.cli.main``.  The main thread (the asyncio event loop) runs
inside a ``service.loop`` root span, with time blocked in ``select`` as
``idle``; every executor task runs inside an ``other`` root span.  On
SIGTERM the aggregated spans are written to SUMMARY.json (spans still
open are charged up to that moment), the span records beside it with the
suffix ``.jsonl``, and the process exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "src"))

import repro.api  # noqa: E402,F401  (loads every layer before wrapping)
import repro.service.cli as cli  # noqa: E402
from layers import install  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    summary_path = Path(argv[0])
    tracer = Tracer()
    install(tracer, server=True)

    def flush(signum, frame) -> None:
        summary = tracer.summary(now=tracer.clock())
        tmp = summary_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(summary))
        tracer.write_records(summary_path.with_suffix(".jsonl"))
        os.replace(tmp, summary_path)
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, flush)
    tracer.new_trace()
    with tracer.span("service.loop"):
        return cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
