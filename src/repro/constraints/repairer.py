"""Oracle-guided constraint repair.

:class:`OracleRepairer` resolves the violation hypergraph the way
Section 4 resolves witness sets, with one extra lever constraints
provide: since the ground truth satisfies every constraint, *each*
violation contains at least one false fact, so

* a **singleton** edge proves its fact false — deleted for free, no
  question (the Theorem 4.5 condition lifted to constraints);
* asking ``TRUE(R(ā))?`` about the fact shared by the **most** edges
  either deletes it (resolving all of them at once) or shrinks every
  edge containing it — and a pair edge shrinking to a singleton pins
  its partner false *without asking* (``constraints.inferred``); a
  :class:`~repro.hitting.hitting_set.DegreeQueue` keeps the degrees as
  edges resolve, so no pick recounts the hypergraph;
* questions are never repeated: the :class:`AccountingOracle` cache and
  the cross-session :class:`~repro.dispatch.dedup.AnswerBoard` (when
  the repairer runs under a :class:`~repro.server.SessionManager`)
  dedupe structurally.

Foreign-key violations stay out of the hypergraph: a dangling child may
be true with its parent missing, so its singleton edge proves nothing.
Each one takes its own path — ask ``TRUE(child)?``, delete the child on
a no, otherwise insert the parent, completed by one ``COMPL`` over the
parent atom when the key leaves columns unbound.

Cost/deadline budgets degrade gracefully: when the budget runs out the
remaining edges (dangling children included) are hit by the
frequency-greedy deletion repair without asking anything — the result
satisfies the constraints (best-effort) but is no longer certified
against the ground truth, so the report says ``converged=False``.

:class:`ExhaustiveRepairer` is the enumerate-and-score baseline: it
verifies every fact of every violation, then deletes the false ones —
correct, oracle-hungry, and the contrast ``benchmarks/bench_constraints.py``
gates (oracle-guided must ask strictly fewer questions).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from ..core.registry import REGISTRY
from ..db.database import Database
from ..db.edits import Edit, EditKind, delete as delete_edit, insert as insert_edit
from ..db.tuples import Fact
from ..hitting.hitting_set import DegreeQueue
from ..oracle.base import AccountingOracle, Oracle
from ..query.ast import Atom, Query, Var
from ..query.backend import EvalBackend
from ..query.evaluator import negated_match_exists
from ..telemetry import TELEMETRY as _TELEMETRY
from .ast import Constraint, as_constraints
from .repair import greedy_repair, violation_hypergraph
from .violations import Violation, find_violations


@dataclass
class RepairBudget:
    """Question-cost and wall-clock ceilings for one repair run.

    Mirrors the dispatch :class:`~repro.dispatch.policy.Budget`
    semantics: checked *before* each question, so exhaustion degrades
    (best-effort greedy repair) rather than aborting mid-question.
    """

    max_cost: Optional[float] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_cost is not None and self.max_cost < 0:
            raise ValueError("max_cost must be >= 0")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0")

    def exhausted(self, spent: float, elapsed: float) -> bool:
        if self.max_cost is not None and spent >= self.max_cost:
            return True
        return self.deadline is not None and elapsed >= self.deadline


@dataclass
class RepairReport:
    """The outcome of one constraint-repair run (ReportLike surface).

    ``converged`` means every repair decision was certified by the
    oracle (or soundly inferred); ``consistent`` that the final
    database satisfies the constraints.  A budget-degraded run is
    typically ``consistent=True, converged=False``.
    """

    query_name: str
    edits: list[Edit] = field(default_factory=list)
    violations_found: int = 0
    questions_asked: int = 0
    cost: int = 0
    inferred: int = 0
    free_deletions: int = 0
    updates_applied: int = 0
    rounds: int = 0
    converged: bool = True
    consistent: bool = True
    wall_clock: float = 0.0

    @property
    def deletions(self) -> list[Edit]:
        return [e for e in self.edits if e.kind is EditKind.DELETE]

    @property
    def insertions(self) -> list[Edit]:
        return [e for e in self.edits if e.kind is EditKind.INSERT]

    @property
    def total_cost(self) -> int:
        return self.cost

    def summary(self) -> str:
        text = (
            f"{self.query_name}: {self.violations_found} violation(s), "
            f"{len(self.deletions)}-/{len(self.insertions)}+ edits, "
            f"{self.questions_asked} question(s) ({self.cost} units), "
            f"{self.inferred} inferred free, {self.rounds} round(s)"
        )
        if not self.consistent:
            text += " [still inconsistent]"
        if not self.converged:
            text += " [budget-degraded]"
        return text


def _as_accounting(oracle: Oracle) -> AccountingOracle:
    return oracle if isinstance(oracle, AccountingOracle) else AccountingOracle(oracle)


def _pairs_by_fact(violations: list[Violation]) -> dict[Fact, list[tuple[Fact, int]]]:
    """Each fact's FD pair partners and differing RHS column, in
    violation order (the first violation of a fact pair wins), so an
    update knows which cell to rewrite."""
    pairs: dict[Fact, list[tuple[Fact, int]]] = {}
    seen: set[frozenset[Fact]] = set()
    for violation in violations:
        position = violation.rhs_position
        if position is None or len(violation.facts) != 2 or violation.facts in seen:
            continue
        seen.add(violation.facts)
        a, b = violation.facts
        pairs.setdefault(a, []).append((b, position))
        pairs.setdefault(b, []).append((a, position))
    return pairs


class OracleRepairer:
    """Repairs constraint violations by asking the oracle which facts lie.

    Parameters
    ----------
    database:
        The instance to repair in place (a plain :class:`Database` or a
        session's :class:`~repro.db.fork.DatabaseFork`).
    oracle:
        The crowd backend; wrapped in an :class:`AccountingOracle` if it
        is not one already, so questions are logged, charged, and cached.
    constraints:
        :class:`~repro.constraints.ast.FD` / ``ForeignKey`` /
        ``DenialConstraint`` objects, FD strings
        (``"games: date -> winner"``), or an iterable of them.
    backend:
        Evaluation substrate for violation detection (``EvalBackend``
        name or instance; default the reference engine).
    updates:
        Attempt FD value-update repairs: when a pair's false side is
        known and its partner certified true, ask whether the corrected
        fact (false fact with the partner's RHS value) belongs to the
        ground truth and insert it on a yes.  Off by default — it
        spends extra questions to preserve rows.
    budget:
        Optional :class:`RepairBudget`; exhaustion degrades to the
        greedy best-effort repair.
    max_rounds:
        Detection/resolution rounds.  Repairs can surface new
        violations: an update or an inserted parent can break an FD,
        and deleting a parent can leave its children dangling.
    """

    def __init__(
        self,
        database: Database,
        oracle: Oracle,
        constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
        *,
        backend: Union[str, EvalBackend, None] = None,
        updates: bool = False,
        budget: Optional[RepairBudget] = None,
        max_rounds: int = 10,
    ) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.database = database
        self.oracle = _as_accounting(oracle)
        self.constraints = as_constraints(constraints)
        self.backend = backend
        self.updates = updates
        self.budget = budget
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    def run(self) -> RepairReport:
        names = ",".join(c.name for c in self.constraints)
        report = RepairReport(query_name=f"repair({names})")
        start = time.perf_counter()
        cost_before = self.oracle.log.total_cost
        questions_before = self.oracle.log.question_count
        with _TELEMETRY.span("constraints.repair", constraints=len(self.constraints)):
            for _ in range(self.max_rounds):
                violations = find_violations(
                    self.database, self.constraints, backend=self.backend
                )
                if not violations:
                    break
                report.rounds += 1
                report.violations_found += len(violations)
                self._resolve(violations, report, cost_before, start)
            else:
                violations = find_violations(
                    self.database, self.constraints, backend=self.backend
                )
            report.consistent = not violations
        report.questions_asked = self.oracle.log.question_count - questions_before
        report.cost = self.oracle.log.total_cost - cost_before
        report.wall_clock = time.perf_counter() - start
        if _TELEMETRY.enabled:
            _TELEMETRY.count("constraints.repair_edits", len(report.edits))
            if not report.converged:
                _TELEMETRY.count("constraints.budget_exhausted")
        return report

    # ------------------------------------------------------------------
    def _resolve(
        self,
        violations: list[Violation],
        report: RepairReport,
        cost_before: int,
        start: float,
    ) -> None:
        """Decide a repair for every violation found this round."""
        dangling = [v for v in violations if v.parent is not None]
        # A fact's verdict becomes known only when it is asked, deleted or
        # inferred (and then deleted free before the next pick), so the
        # queue never holds a stale "known" flag below its top.
        queue = DegreeQueue(
            violation_hypergraph(v for v in violations if v.parent is None),
            known=self.oracle.knows_fact,
        )
        pairs = _pairs_by_fact(violations) if self.updates else {}
        #: facts the oracle certified true in this round
        certified: set[Fact] = set()
        while queue:
            # 1. singleton edges are free: their fact is certainly false
            fact = queue.first_singleton()
            if fact is not None:
                self._delete(fact, report)
                if self.updates:
                    self._try_update(fact, pairs, certified, report)
                report.free_deletions += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("constraints.free_deletions")
                queue.hit(fact)
                continue
            # 2. budget gate before the next paid question
            if self._exhausted(cost_before, start):
                self._degrade(
                    queue.edges() + [v.facts for v in dangling if self._dangles(v)], report
                )
                return
            # 3. ask about the most shared fact (cache makes repeats free)
            fact = self._most_frequent(queue)
            if self.oracle.verify_fact(fact):
                certified.add(fact)
                # a pair edge shrunk to one fact pins that fact false
                for partner in queue.shrink(fact):
                    if _TELEMETRY.enabled:
                        _TELEMETRY.count("constraints.inferred")
                    report.inferred += 1
                    self.oracle.remember_fact(partner, False)
            else:
                self._delete(fact, report)
                if self.updates:
                    self._try_update(fact, pairs, certified, report)
                queue.hit(fact)
        for index, violation in enumerate(dangling):
            if not self._dangles(violation):
                continue  # resolved by an earlier repair this round
            if self._exhausted(cost_before, start):
                rest = [v.facts for v in dangling[index:] if self._dangles(v)]
                self._degrade(rest, report)
                return
            (child,) = violation.facts
            if self.oracle.verify_fact(child):
                self._insert_parent(violation.parent, report)
            else:
                self._delete(child, report)

    # ------------------------------------------------------------------
    def _dangles(self, violation: Violation) -> bool:
        """Whether a foreign-key violation still holds in the database."""
        (child,) = violation.facts
        return child in self.database and not negated_match_exists(
            violation.parent, {}, self.database
        )

    def _exhausted(self, cost_before: int, start: float) -> bool:
        if self.budget is None:
            return False  # skip the log total: it sums every record
        spent = self.oracle.log.total_cost - cost_before
        return self.budget.exhausted(spent, time.perf_counter() - start)

    def _insert_parent(self, parent: Atom, report: RepairReport) -> None:
        """Insert the missing parent of a true child.

        A fully bound parent is inserted as is; otherwise the crowd
        fills the unbound columns through ``COMPL`` over the one-atom
        query ``parent(bound…, v_i…)``.  A crowd that knows no such
        parent leaves the violation standing (``converged=False``).
        """
        if not parent.is_ground():
            head = tuple(t for t in parent.terms if isinstance(t, Var))
            query = Query(head=head, atoms=(parent,), name=f"fk:{parent.relation}")
            completion = self.oracle.complete_assignment(query, {})
            if completion is None:
                report.converged = False
                return
            parent = parent.substitute(completion)
        fact = Fact(parent.relation, parent.terms)
        if self.database.insert(fact):
            report.edits.append(insert_edit(fact))

    def _most_frequent(self, queue: DegreeQueue) -> Fact:
        """The fact on the most edges; known verdicts first so cached
        questions (free) are preferred over fresh ones at equal degree."""
        return queue.top()

    def _delete(self, fact: Fact, report: RepairReport) -> None:
        if self.database.delete(fact):
            report.edits.append(delete_edit(fact))
        self.oracle.remember_fact(fact, False)

    def _try_update(
        self,
        false_fact: Fact,
        pairs: dict[Fact, list[tuple[Fact, int]]],
        certified: set[Fact],
        report: RepairReport,
    ) -> None:
        """Propose ``false[rhs] := partner[rhs]`` for one certified pair."""
        for partner, position in pairs.get(false_fact, ()):
            if partner not in certified:
                continue
            corrected = false_fact.replace(position, partner.values[position])
            if corrected in self.database:
                continue
            if self.oracle.verify_fact(corrected):
                if self.database.insert(corrected):
                    report.edits.append(insert_edit(corrected))
                    report.updates_applied += 1
                    if _TELEMETRY.enabled:
                        _TELEMETRY.count("constraints.updates_applied")
            return

    def _degrade(self, edges: list[frozenset[Fact]], report: RepairReport) -> None:
        """Best-effort: greedily hit the remaining edges without asking."""
        report.converged = False
        fake = [Violation("budget", e) for e in edges]
        for edit in greedy_repair(fake).edits:
            if edit.apply(self.database):
                report.edits.append(edit)


class ExhaustiveRepairer:
    """The enumerate-and-score baseline: verify every involved fact.

    Scores the candidate-repair pool the blunt way — one
    ``TRUE(R(ā))?`` per distinct fact of the violation hypergraph, in
    deterministic order, no frequency ordering and no inference — then
    deletes every fact the oracle called false.  Repeats until
    consistent.  For FDs and denial constraints: same final database as
    the oracle-guided path under a perfect oracle; strictly more
    questions whenever any inference or free deletion fires.  It never
    inserts, so a true child with a missing parent stays dangling.
    """

    def __init__(
        self,
        database: Database,
        oracle: Oracle,
        constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
        *,
        backend: Union[str, EvalBackend, None] = None,
        max_rounds: int = 10,
    ) -> None:
        self.database = database
        self.oracle = _as_accounting(oracle)
        self.constraints = as_constraints(constraints)
        self.backend = backend
        self.max_rounds = max_rounds

    def run(self) -> RepairReport:
        names = ",".join(c.name for c in self.constraints)
        report = RepairReport(query_name=f"exhaustive({names})")
        start = time.perf_counter()
        cost_before = self.oracle.log.total_cost
        questions_before = self.oracle.log.question_count
        for _ in range(self.max_rounds):
            violations = find_violations(
                self.database, self.constraints, backend=self.backend
            )
            if not violations:
                break
            report.rounds += 1
            report.violations_found += len(violations)
            facts = sorted(
                {f for v in violations for f in v.facts}, key=repr
            )
            false_facts = [f for f in facts if not self.oracle.verify_fact(f)]
            for fact in false_facts:
                if self.database.delete(fact):
                    report.edits.append(delete_edit(fact))
            if not false_facts:
                # the oracle certified every involved fact: the violation
                # cannot be repaired by deletion alone — give up cleanly
                report.converged = False
                break
        else:
            violations = find_violations(
                self.database, self.constraints, backend=self.backend
            )
        # either break leaves the database as that round's detection saw it
        report.consistent = not violations
        report.questions_asked = self.oracle.log.question_count - questions_before
        report.cost = self.oracle.log.total_cost - cost_before
        report.wall_clock = time.perf_counter() - start
        return report


def repair(
    database: Database,
    constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
    oracle: Oracle,
    *,
    strategy: str = "oracle",
    **options,
) -> RepairReport:
    """One-call constraint repair (see :mod:`repro.api`).

    *strategy* is a registry name — ``"oracle"`` (default),
    ``"exhaustive"``, or any name registered under the ``"repair"``
    kind; remaining keyword arguments go to the repairer.
    """
    factory = REGISTRY.resolve("repair", strategy)
    return factory.repair(database, oracle, constraints, **options)


# ----------------------------------------------------------------------
# registry strategies
# ----------------------------------------------------------------------
class OracleRepairStrategy:
    """Registry adapter for :class:`OracleRepairer`."""

    name = "oracle"

    def repair(self, database, oracle, constraints, **options) -> RepairReport:
        return OracleRepairer(database, oracle, constraints, **options).run()


class ExhaustiveRepairStrategy:
    """Registry adapter for :class:`ExhaustiveRepairer`."""

    name = "exhaustive"

    def repair(self, database, oracle, constraints, **options) -> RepairReport:
        return ExhaustiveRepairer(database, oracle, constraints, **options).run()


class GreedyRepairStrategy:
    """Oracle-free fallback: greedy hitting-set deletion, zero questions."""

    name = "greedy"

    def repair(self, database, oracle, constraints, *, backend=None, max_rounds=10):
        names = ",".join(c.name for c in as_constraints(constraints))
        report = RepairReport(query_name=f"greedy({names})", converged=False)
        for _ in range(max_rounds):
            violations = find_violations(database, constraints, backend=backend)
            if not violations:
                break
            report.rounds += 1
            report.violations_found += len(violations)
            for edit in greedy_repair(violations).edits:
                if edit.apply(database):
                    report.edits.append(edit)
        else:
            violations = find_violations(database, constraints, backend=backend)
        report.consistent = not violations
        return report


REGISTRY.register("repair", "oracle", OracleRepairStrategy)
REGISTRY.register("repair", "exhaustive", ExhaustiveRepairStrategy)
REGISTRY.register("repair", "greedy", GreedyRepairStrategy)


__all__ = [
    "ExhaustiveRepairer",
    "OracleRepairer",
    "RepairBudget",
    "RepairReport",
    "repair",
]
