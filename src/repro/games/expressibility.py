"""Expressibility in ∃L^k_∞ω via preservation — Thm 4.1, Prop 4.3, Cor 4.4.

Infinitary formulas cannot be materialized, but Proposition 4.3 turns
∃L^k-expressibility into a *preservation property* that can be checked on
concrete structure pairs:

    a Boolean query Q is expressible in ∃L^k iff whenever A ⊨ Q and the
    Duplicator wins the existential k-pebble game on (A, B), also B ⊨ Q.

This module provides the checker: feed it a query (any Python predicate on
structures) and structure pairs; it reports the pairs that *refute*
k-expressibility.  Two uses:

* **verification** — by Theorem 4.1 every k-Datalog query lies in ∃L^k, so
  the checker must find no counterexample for such queries (tested over the
  canonical 4-Datalog Non-2-Colorability program, transitive-closure-style
  queries, and ρ_B programs);
* **refutation** — non-monotone queries (e.g. "is 2-colorable") are not in
  any ∃L^k, and the checker exhibits concrete witnessing pairs.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.games.pebble import duplicator_wins
from repro.relational.structure import Structure

__all__ = [
    "preservation_counterexamples",
    "is_preserved_on",
    "datalog_query_as_predicate",
]

BooleanQuery = Callable[[Structure], bool]


def preservation_counterexamples(
    query: BooleanQuery,
    pairs: Iterable[tuple[Structure, Structure]],
    k: int,
) -> list[tuple[Structure, Structure]]:
    """The pairs ``(A, B)`` with ``A ⊨ Q``, Duplicator winning the k-pebble
    game on (A, B), but ``B ⊭ Q`` — each is a proof that ``Q ∉ ∃L^k_∞ω``
    (Prop 4.3 / Cor 4.4)."""
    counterexamples = []
    for a, b in pairs:
        if query(a) and not query(b) and duplicator_wins(a, b, k):
            counterexamples.append((a, b))
    return counterexamples


def is_preserved_on(
    query: BooleanQuery,
    pairs: Iterable[tuple[Structure, Structure]],
    k: int,
) -> bool:
    """Whether the preservation condition holds on all the given pairs —
    necessary (not sufficient: only sampled pairs are checked) for
    ∃L^k-expressibility."""
    return not preservation_counterexamples(query, pairs, k)


def datalog_query_as_predicate(program) -> BooleanQuery:
    """Wrap a Datalog program's goal as a Boolean structure predicate, so
    Theorem 4.1 (k-Datalog ⊆ ∃L^k) can be checked through the preservation
    lens."""
    from repro.datalog.engine import goal_holds

    def query(structure: Structure) -> bool:
        return goal_holds(program, structure)

    return query
