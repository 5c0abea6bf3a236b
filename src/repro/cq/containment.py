"""Conjunctive-query containment — the Chandra–Merlin theorem (Prop 2.2).

``Q1 ⊆ Q2`` (over all databases) is decided two equivalent ways, both
implemented and differentially tested:

* **evaluation**: check ``(X1,…,Xn) ∈ Q2(D^{Q1})`` on the canonical
  database of ``Q1``;
* **homomorphism**: search for a homomorphism ``D^{Q2} → D^{Q1}`` that
  matches the distinguished markers and fixes constants.

On top of containment we get equivalence and query *minimization* (the
core): greedily dropping body atoms while preserving equivalence yields the
unique-up-to-isomorphism minimal query.
"""

from __future__ import annotations

from repro.cq.canonical import canonical_database
from repro.cq.evaluate import evaluate
from repro.cq.query import ConjunctiveQuery
from repro.errors import DomainError
from repro.relational.homomorphism import find_homomorphism

__all__ = [
    "is_contained_in",
    "is_contained_in_via_homomorphism",
    "containment_homomorphism",
    "are_equivalent",
    "minimize",
]


def _check_compatible(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> None:
    if len(q1.distinguished) != len(q2.distinguished):
        raise DomainError(
            "containment requires the same number of distinguished variables"
        )


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Decide ``Q1 ⊆ Q2`` by evaluating ``Q2`` on the canonical database of
    ``Q1`` and checking for the tuple of Q1's distinguished variables."""
    _check_compatible(q1, q2)
    predicates = dict(q1.predicates())
    for name, arity in q2.predicates().items():
        if name in predicates and predicates[name] != arity:
            return False  # arity clash: the queries share no databases
        predicates.setdefault(name, arity)
    q2_constants = {t for atom in q2.body for t in atom.constants()}
    db = canonical_database(q1, extra_predicates=predicates, constants=q2_constants)
    answers = evaluate(q2, db)
    return tuple(q1.distinguished) in answers.tuples


def containment_homomorphism(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> dict | None:
    """A containment witness: a homomorphism ``D^{Q2} → D^{Q1}`` preserving
    distinguished markers and constants, or ``None``.

    Marker predicates make a *plain* structure homomorphism do all the
    bookkeeping: ``P_i`` facts force distinguished variables onto each
    other, ``Const_c`` facts force constants onto themselves.
    """
    _check_compatible(q1, q2)
    union_preds: dict[str, int] = dict(q1.predicates())
    for name, arity in q2.predicates().items():
        if name in union_preds and union_preds[name] != arity:
            return None
        union_preds.setdefault(name, arity)
    constants1 = {t for atom in q1.body for t in atom.constants()}
    constants2 = {t for atom in q2.body for t in atom.constants()}
    shared = constants1 | constants2
    db1 = canonical_database(q1, extra_predicates=union_preds, constants=shared)
    db2 = canonical_database(q2, extra_predicates=union_preds, constants=shared)
    return find_homomorphism(db2, db1)


def is_contained_in_via_homomorphism(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> bool:
    """Decide ``Q1 ⊆ Q2`` by the homomorphism criterion of Prop 2.2."""
    return containment_homomorphism(q1, q2) is not None


def are_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Whether ``Q1`` and ``Q2`` return the same answers on every database."""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of the query: a minimal equivalent subquery.

    Repeatedly drops a body atom when the remaining query is still
    equivalent (safety of the head is preserved by construction of the
    candidate).  The result is minimal: no further atom can be dropped.

    The fixed side of every equivalence check is ``query`` itself, so its
    canonical database, predicate map, and constant set are computed once
    and shared across the O(n²) drop loop instead of being rebuilt by
    :func:`are_equivalent` for each candidate.  This is sound because every
    candidate's body is a subset of the original body: the candidate's
    predicates and constants are already covered by the query's, so the
    hoisted database is exactly the one :func:`is_contained_in` would build
    per candidate (``canonical_database`` marks its own body's constants
    regardless of the ``constants`` argument).
    """
    predicates = dict(query.predicates())
    constants = {t for atom in query.body for t in atom.constants()}
    fixed_db = canonical_database(
        query, extra_predicates=predicates, constants=constants
    )
    head = tuple(query.distinguished)

    def equivalent_to_query(candidate: ConjunctiveQuery) -> bool:
        # query ⊆ candidate: evaluate the candidate on the hoisted canonical
        # database of the query.
        if head not in evaluate(candidate, fixed_db).tuples:
            return False
        # candidate ⊆ query: the candidate's canonical database changes per
        # candidate, but the predicate map and constant set are the query's.
        db = canonical_database(
            candidate, extra_predicates=predicates, constants=constants
        )
        return tuple(candidate.distinguished) in evaluate(query, db).tuples

    body = list(query.body)
    changed = True
    while changed:
        changed = False
        for i in range(len(body)):
            candidate_body = body[:i] + body[i + 1 :]
            if not candidate_body:
                continue
            remaining_vars = {
                v for atom in candidate_body for v in atom.variables()
            }
            if not set(query.distinguished) <= remaining_vars:
                continue
            candidate = ConjunctiveQuery(
                query.head_name, query.distinguished, candidate_body
            )
            if equivalent_to_query(candidate):
                body = candidate_body
                changed = True
                break
    return ConjunctiveQuery(query.head_name, query.distinguished, body)
