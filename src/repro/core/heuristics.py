"""Alternative fact-selection heuristics for Algorithm 1 (Section 4).

"Our algorithm employs a greedy heuristic, asking the crowd first about
tuples that occur in the highest number of witnesses.  This heuristic
could be replaced by others, such as asking the crowd first about
influential tuples [40] or, tuples with high causality/responsibility
[46], or tuples which are least trustworthy (assuming that they have
trust scores)."

This module supplies those drop-in replacements:

* :class:`ResponsibilityDeletion` — ranks facts by causal
  responsibility (Meliou et al. [46]): a fact's responsibility for the
  wrong answer is ``1 / (1 + |Γ|)`` where ``Γ`` is a smallest
  *contingency set* — facts whose removal makes the fact counterfactual
  (i.e. the remaining witnesses all contain it).  We compute ``|Γ|``
  with the greedy hitting-set cover of the witnesses avoiding the fact.
* :class:`TrustScoreDeletion` — asks about the least trustworthy fact
  first, given a trust-score provider (e.g. source reputation).

All plug into :func:`repro.core.deletion.crowd_remove_wrong_answer`
unchanged, including the Theorem 4.5 singleton rule.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping

from ..db.tuples import Fact
from ..hitting.hitting_set import greedy_hitting_set
from .deletion import DeletionStrategy

#: Maps a fact to its trust in [0, 1] (lower = more suspicious).
TrustProvider = Callable[[Fact], float]


class ResponsibilityDeletion(DeletionStrategy):
    """Highest-responsibility fact first (causality-based ranking)."""

    name = "Responsibility"
    infer_singletons = True

    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        pool = sorted({f for s in sets for f in s}, key=repr)
        best = max(pool, key=lambda f: (self.responsibility(f, sets), repr(f)))
        return best

    @staticmethod
    def responsibility(fact: Fact, sets: list[frozenset]) -> float:
        """``1 / (1 + |Γ|)`` with Γ a (greedy) minimal contingency set."""
        missing = [s for s in sets if fact not in s]
        if not missing:
            return 1.0  # already counterfactual: in every witness
        try:
            contingency = greedy_hitting_set(missing)
        except ValueError:
            return 0.0  # some witness avoids the fact and cannot be hit
        return 1.0 / (1.0 + len(contingency))


class TrustScoreDeletion(DeletionStrategy):
    """Least trustworthy fact first.

    *trust* maps facts to scores in [0, 1]; unknown facts default to
    *default_trust*.  A dict works as well as a callable; without one
    every fact scores *default_trust*.
    """

    name = "Trust"
    infer_singletons = True

    def __init__(
        self,
        trust: TrustProvider | Mapping[Fact, float] | None = None,
        default_trust: float = 0.5,
    ) -> None:
        if trust is None:
            trust = {}
        if isinstance(trust, Mapping):
            mapping = dict(trust)
            self._trust: TrustProvider = lambda f: mapping.get(f, default_trust)
        else:
            self._trust = trust
        self.default_trust = default_trust

    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        pool = sorted({f for s in sets for f in s}, key=repr)
        return min(pool, key=lambda f: (self._trust(f), repr(f)))


def frequency_trust(database_counts: Mapping[Fact, int], ceiling: int = 5) -> TrustProvider:
    """A simple trust provider: facts corroborated by more sources (higher
    counts) are more trustworthy, saturating at *ceiling*."""

    def trust(fact: Fact) -> float:
        return min(database_counts.get(fact, 0), ceiling) / ceiling

    return trust


# Registry names: ``QOCOConfig(deletion="responsibility")`` works out of
# the box; ``"trust"`` builds a provider-less strategy (every fact
# scores ``default_trust``) — pass an instance to supply scores.
from .registry import REGISTRY as _REGISTRY  # noqa: E402

for _cls in (ResponsibilityDeletion, TrustScoreDeletion):
    _REGISTRY.register("deletion", _cls.name.lower(), _cls, aliases=(_cls.name,))
