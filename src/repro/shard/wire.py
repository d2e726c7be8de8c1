"""Wire format for everything that crosses the shard process boundary.

Workers and the parent exchange plain JSON-style objects built from the
:mod:`repro.durability.codec` primitives, so the protocol inherits the
codec's lossless round-trip guarantees (negated atoms, inequalities,
float/negative constants) and stays pickle- and spawn-safe by
construction — no live strategy objects, backends, or oracles ever
travel.

* :func:`config_to_obj` / :func:`config_from_obj` map a
  :class:`~repro.core.qoco.QOCOConfig` onto registry *names*
  (:meth:`~repro.core.registry.StrategyRegistry.name_of` for strategy
  and estimator instances, backend names); configs carrying live
  objects that have no registered name are rejected up front rather
  than mis-pickled.  A strategy instance crosses as its name, so the
  worker rebuilds it with default arguments: per-instance state, such
  as a trust provider, stays in the parent.
* :func:`question_to_obj` / :func:`question_from_obj` and
  :func:`reply_to_obj` / :func:`reply_from_obj` encode the request
  tuples of :mod:`repro.oracle.questions` (all six question kinds) and
  their answers, for the parent-side router and the service's worker
  feed alike.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..core.insertion import InsertionConfig
from ..core.qoco import QOCOConfig
from ..core.registry import REGISTRY, RegistryError
from ..durability import codec
from ..durability.codec import CodecError
from .partition import ShardingError


def _wire_name(kind: str, spec: Any) -> str:
    """The wire name of a strategy or estimator field: strings validate
    against the registry, instances and factories map back by type."""
    try:
        if isinstance(spec, str):
            REGISTRY.resolve(kind, spec)
            return spec
        return REGISTRY.name_of(kind, spec)
    except RegistryError as error:
        raise ShardingError(
            f"{error}; sharded cleaning needs a registered name"
        ) from error


def _planner_name(spec: Any) -> Any:
    """Planner wire form: ``None`` or a registry name — live planner
    instances hold locks, RNGs, and shared cost models; they do not
    cross the process boundary."""
    if spec is None:
        return None
    if isinstance(spec, str):
        try:
            REGISTRY.resolve("planner", spec)
        except RegistryError as error:
            raise ShardingError(str(error)) from error
        return spec
    raise ShardingError(
        f"planner {spec!r} cannot cross the process boundary; pass a "
        f"registry name (one of {REGISTRY.names('planner')})"
    )


def config_to_obj(config: QOCOConfig) -> dict:
    """Encode a :class:`QOCOConfig` for a worker process."""
    if config.scheduler_factory is not None:
        raise ShardingError(
            "scheduler_factory cannot cross the process boundary; shard "
            "workers run the synchronous loop (dispatch engines live in "
            "the parent)"
        )
    if not isinstance(config.backend, str):
        raise ShardingError(
            f"backend must be a registered name to cross the process "
            f"boundary, got instance {config.backend!r}"
        )
    return {
        "deletion_strategy": _wire_name("deletion", config.deletion),
        "split_strategy": _wire_name("split", config.split),
        "planner": _planner_name(config.planner),
        "estimator": _wire_name("estimator", config.estimator_factory),
        "insertion": {
            "max_candidates_per_subquery": config.insertion.max_candidates_per_subquery,
            "max_subqueries": config.insertion.max_subqueries,
        },
        "max_iterations": config.max_iterations,
        "max_completions_per_phase": config.max_completions_per_phase,
        "minimize_query": config.minimize_query,
        "use_incremental": config.use_incremental,
        "backend": config.backend,
        "seed": config.seed,
        "completion_width": config.completion_width,
    }


def config_from_obj(obj: dict) -> QOCOConfig:
    try:
        return QOCOConfig(
            deletion=REGISTRY.resolve("deletion", obj["deletion_strategy"]),
            split=REGISTRY.resolve("split", obj["split_strategy"]),
            planner=obj.get("planner"),
            estimator_factory=type(REGISTRY.resolve("estimator", obj["estimator"])),
            insertion=InsertionConfig(
                max_candidates_per_subquery=obj["insertion"][
                    "max_candidates_per_subquery"
                ],
                max_subqueries=obj["insertion"]["max_subqueries"],
            ),
            max_iterations=obj["max_iterations"],
            max_completions_per_phase=obj["max_completions_per_phase"],
            minimize_query=obj["minimize_query"],
            use_incremental=obj["use_incremental"],
            backend=obj["backend"],
            seed=obj["seed"],
            completion_width=obj["completion_width"],
        )
    except (KeyError, TypeError, RegistryError) as error:
        raise CodecError(f"malformed config object {obj!r}") from error


# ---------------------------------------------------------------------------
# oracle questions and replies
# ---------------------------------------------------------------------------
#: The wire stand-in for "the query this shard session is cleaning".
#: Most questions carry the session query verbatim; eliding it saves an
#: encode + parse per question — the parent router's dominant per-question
#: cost — and the router substitutes its (interned) session query back.
SESSION_QUERY = "@session"


#: Request kind -> the wire field of each argument, in tuple order.
_FIELDS = {
    "verify_fact": ("fact",),
    "verify_facts": ("facts",),
    "verify_answer": ("query", "answer"),
    "verify_candidate": ("query", "partial"),
    "complete_assignment": ("query", "partial"),
    "complete_result": ("query", "known"),
}

#: Request kind -> the wire field of its non-boolean replies.
_REPLY_FIELDS = {
    "verify_facts": "verdicts",
    "complete_assignment": "partial",
    "complete_result": "answer",
}

#: Wire field -> ``(encode, decode)``.
_CODECS: dict[str, tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "fact": (codec.fact_to_obj, codec.fact_from_obj),
    "facts": (
        lambda facts: [codec.fact_to_obj(f) for f in facts],
        lambda objs: [codec.fact_from_obj(o) for o in objs],
    ),
    "query": (codec.query_to_obj, codec.query_from_obj),
    "answer": (codec.answer_to_obj, codec.answer_from_obj),
    "partial": (codec.assignment_to_obj, codec.assignment_from_obj),
    "known": (
        lambda known: sorted(
            (codec.answer_to_obj(a) for a in known), key=codec.canonical_json
        ),
        lambda objs: [codec.answer_from_obj(o) for o in objs],
    ),
    "verdicts": (
        lambda verdicts: [[codec.fact_to_obj(f), v] for f, v in verdicts.items()],
        lambda pairs: {codec.fact_from_obj(o): v for o, v in pairs},
    ),
}


def _fields(kind: Any) -> tuple[str, ...]:
    fields = _FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise CodecError(f"unknown question kind {kind!r}")
    return fields


def question_to_obj(request: tuple, *, session_query: Any = None) -> dict:
    """Encode one question request (see :mod:`repro.oracle.questions`).

    The object holds the kind, then one named field per argument.  A
    query that *is* the declared *session_query* wires as the
    :data:`SESSION_QUERY` marker instead of a full encoding (split
    subqueries still travel whole).
    """
    obj: dict[str, Any] = {"kind": request[0]}
    for name, part in zip(_fields(request[0]), request[1:]):
        if name == "query" and session_query is not None and part is session_query:
            obj[name] = SESSION_QUERY
        else:
            obj[name] = _CODECS[name][0](part)
    return obj


def question_from_obj(obj: dict, *, session_query: Any = None) -> tuple:
    """Decode a question object back into its request tuple.

    *session_query* resolves the :data:`SESSION_QUERY` marker; a marker
    with no session query declared is a protocol error.
    """
    try:
        parts = [obj["kind"]]
        for name in _fields(obj["kind"]):
            if name == "query" and obj[name] == SESSION_QUERY:
                if session_query is None:
                    raise CodecError(
                        "question references the session query but none "
                        "was declared to the router"
                    )
                parts.append(session_query)
            else:
                parts.append(_CODECS[name][1](obj[name]))
        return tuple(parts)
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed question object {obj!r}") from error


def reply_to_obj(kind: str, value: Any) -> dict:
    """Encode an oracle reply (shape depends on the question kind)."""
    if value is None or isinstance(value, bool):
        return {"value": value}
    if kind not in _REPLY_FIELDS:
        raise CodecError(f"unsupported reply {value!r} for question kind {kind!r}")
    return {"value": _CODECS[_REPLY_FIELDS[kind]][0](value)}


def reply_from_obj(kind: str, obj: dict) -> Any:
    value = obj["value"]
    if value is None or isinstance(value, bool):
        return value
    if kind not in _REPLY_FIELDS:
        raise CodecError(f"unsupported reply object {obj!r} for kind {kind!r}")
    return _CODECS[_REPLY_FIELDS[kind]][1](value)


def answers_to_obj(answers: Sequence) -> list[list]:
    """A deterministic (sorted) encoding of an answer set."""
    return sorted(
        (codec.answer_to_obj(a) for a in answers), key=codec.canonical_json
    )


def answers_from_obj(objs: Sequence) -> list[tuple]:
    return [codec.answer_from_obj(o) for o in objs]


def report_to_obj(report) -> dict:
    """The per-shard slice of a cleaning report a worker sends home."""
    return {
        "query_name": report.query_name,
        "iterations": report.iterations,
        "converged": report.converged,
        "edits": codec.edits_to_obj(report.edits),
        "wrong_answers_removed": [
            codec.answer_to_obj(a) for a in report.wrong_answers_removed
        ],
        "missing_answers_added": [
            codec.answer_to_obj(a) for a in report.missing_answers_added
        ],
        "question_count": report.log.question_count,
        "total_cost": report.log.total_cost,
    }
