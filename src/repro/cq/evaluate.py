"""Conjunctive-query evaluation over relational structures.

``Q(D)`` is computed by the textbook join plan: translate each body atom to
a relation over its variables (selecting on constants and repeated
variables), natural-join everything, and project onto the distinguished
variables.  Proposition 2.1's join-evaluation view of CSP is the Boolean
special case.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.cq.query import Atom, ConjunctiveQuery, Var
from repro.errors import VocabularyError
from repro.relational.algebra import join_all, project, semijoin
from repro.relational.relation import Relation
from repro.relational.stats import current_stats
from repro.relational.structure import Structure
from repro.telemetry.spans import span

__all__ = ["atom_relation", "evaluate", "evaluate_boolean", "satisfying_assignments"]


def atom_relation(atom: Atom, database: Structure) -> Relation:
    """The relation of assignments to the atom's variables that match the
    database: rows of ``database.relation(atom.predicate)`` filtered on
    constants and repeated variables, projected to one column per variable.

    The result is memoized on the (immutable) database via
    :meth:`~repro.relational.structure.Structure.derived`: every query over
    the same structure gets back the *same* :class:`Relation` object per
    atom, so hash indexes built by one query's joins are probed for free by
    the next — the cross-job reuse the :mod:`repro.service` cache leans on.
    """
    if atom.predicate not in database.vocabulary:
        raise VocabularyError(
            f"predicate {atom.predicate!r} not in the database vocabulary"
        )
    return database.derived(
        ("atom_relation", atom), lambda: _build_atom_relation(atom, database)
    )


def _build_atom_relation(atom: Atom, database: Structure) -> Relation:
    rows = database.relation(atom.predicate)
    variables = atom.variables()
    first_position = {v: atom.terms.index(v) for v in variables}

    def matches(row: tuple) -> bool:
        for i, term in enumerate(atom.terms):
            if isinstance(term, Var):
                if row[i] != row[first_position[term]]:
                    return False
            elif row[i] != term:
                return False
        return True

    out = (
        tuple(row[first_position[v]] for v in variables)
        for row in rows
        if matches(row)
    )
    return Relation(tuple(v.name for v in variables), out)


def _body_join(
    query: ConjunctiveQuery, database: Structure, strategy: str | None = None
) -> Relation:
    """Join the body atoms.  ``strategy`` picks the join order and execution
    (see :func:`repro.relational.planner.parse_strategy`): ``"textbook"`` is
    the textual atom order, ``"scan"`` forces nested-loop joins, ``"wcoj"``
    the leapfrog triejoin, and the default is the cost-guided greedy plan
    over the hash-indexed operators.  ``"auto"`` consults the body's
    hypergraph (:mod:`repro.width`): acyclic bodies go through Yannakakis'
    semijoin reducer, **cyclic** bodies through the worst-case optimal
    leapfrog triejoin — the regime where every pairwise plan is
    AGM-suboptimal — and the default plan covers the rest."""
    if strategy == "auto":
        relations = _atom_relations(query, database)
        route = _auto_route(query, relations)
        if route == "yannakakis":
            with span("yannakakis_reduce"):
                reduced = _yannakakis_reduce(relations)
            return join_all(reduced, execution=_reduced_execution(reduced))
        from repro.relational.wcoj import leapfrog_join

        return leapfrog_join(relations)
    return join_all(
        (atom_relation(atom, database) for atom in query.body), strategy=strategy
    )


def _atom_relations(query: ConjunctiveQuery, database: Structure) -> list[Relation]:
    """Translate every body atom to its relation (one "atoms" span)."""
    with span("atoms") as sp:
        relations = [atom_relation(atom, database) for atom in query.body]
        if sp:
            sp.note(rows=sum(len(r) for r in relations))
        return relations


#: The structural width signal behind ``strategy="auto"``: GYO-style
#: join-tree construction — α-acyclicity, i.e. generalized hypertree
#: width 1 (Section 6 of the tutorial).
_ROUTE_SIGNAL = "gyo-acyclicity"

#: Total reduced-body row count at which ``strategy="auto"``'s Yannakakis
#: branch switches the final join from the default execution to
#: ``"columnar"``.  Below it the column-store builds cost more than the
#: batched probes save; above it the vectorized fold wins.  Only consulted
#: when numpy is available (the stdlib fallback has no batched fold).
COLUMNAR_AUTO_THRESHOLD = 256


def _reduced_execution(reduced: list[Relation]) -> str | None:
    """The execution for the final join of a Yannakakis-reduced body:
    ``"columnar"`` for large reduced bodies when numpy is present, else
    ``None`` (the default execution).  The choice is annotated onto the
    routing decision :func:`_auto_route` just recorded."""
    from repro.relational.columnar import numpy_backend

    execution = None
    if (
        numpy_backend() is not None
        and sum(len(r) for r in reduced) >= COLUMNAR_AUTO_THRESHOLD
    ):
        execution = "columnar"
    stats = current_stats()
    if stats is not None and stats.routing_decisions:
        stats.routing_decisions[-1]["execution"] = execution or "default"
    return execution


def _auto_route(query: ConjunctiveQuery, relations: list[Relation]) -> str:
    """Decide where ``strategy="auto"`` sends the body — and record why.

    Acyclic bodies (per :func:`repro.width.acyclic.is_acyclic`, the width
    signal) route to Yannakakis' semijoin reducer; cyclic ones to the
    worst-case optimal leapfrog triejoin.  The decision lands both in the
    active :class:`~repro.relational.stats.EvalStats`
    (``routing_decisions``) and on the ``"route"`` span's attributes.
    """
    from repro.width.acyclic import is_acyclic

    with span("route") as sp:
        acyclic = is_acyclic([frozenset(r.attributes) for r in relations])
        route = "yannakakis" if acyclic else "wcoj"
        stats = current_stats()
        if stats is not None:
            stats.record_routing(
                query.head_name, route, acyclic=acyclic, signal=_ROUTE_SIGNAL
            )
        if sp:
            sp.note(route=route, acyclic=acyclic, signal=_ROUTE_SIGNAL)
        return route


def _yannakakis_reduce(relations: list[Relation]) -> list[Relation] | None:
    """Yannakakis' full reducer for an acyclic body, or ``None`` if cyclic.

    When the body hypergraph (one hyperedge per atom's variable set) is
    α-acyclic, a bottom-up semijoin pass over a join tree followed by a
    top-down pass makes every relation globally consistent, so the final
    join's intermediates never exceed the output size — the Section 6
    polynomial-time guarantee for acyclic joins.  The reduced relations
    join to exactly the same result as the unreduced ones (semijoins only
    delete dangling rows).
    """
    from repro.width.acyclic import is_acyclic, join_tree

    scopes = [frozenset(r.attributes) for r in relations]
    if not is_acyclic(scopes):
        return None
    tree = join_tree(scopes)
    reduced = list(relations)
    bottom_up = tree.topological_order()
    children = tree.children()
    for node in bottom_up:
        for child in children[node]:
            reduced[node] = semijoin(reduced[node], reduced[child])
    for node in reversed(bottom_up):
        for child in children[node]:
            reduced[child] = semijoin(reduced[child], reduced[node])
    return reduced


def evaluate(
    query: ConjunctiveQuery, database: Structure, strategy: str | None = None
) -> Relation:
    """Evaluate ``Q(D)``: the relation over the distinguished variables.

    For a Boolean query the result is the nullary relation — nonempty
    (containing the empty tuple) iff the query holds.  ``strategy`` selects
    the join order; all strategies compute the same relation.  Besides the
    order/execution specs of :func:`repro.relational.planner.parse_strategy`,
    ``"auto"`` is accepted: acyclic bodies are fully semijoin-reduced
    (Yannakakis) before the join — with the final join switching to the
    columnar execution when the reduced body holds at least
    :data:`COLUMNAR_AUTO_THRESHOLD` rows and numpy is available — while
    cyclic ones run the worst-case optimal leapfrog triejoin
    (:mod:`repro.relational.wcoj`).
    """
    with span(
        "cq.evaluate", query=query.head_name, strategy=strategy or "default"
    ) as sp:
        joined = _body_join(query, database, strategy)
        result = project(joined, tuple(v.name for v in query.distinguished))
        if sp:
            sp.note(rows=len(result))
        return result


def evaluate_boolean(
    query: ConjunctiveQuery, database: Structure, strategy: str | None = None
) -> bool:
    """Whether a Boolean conjunctive query holds on the database.

    With ``strategy="auto"`` and an acyclic body, the answer is read off
    the full reducer without materializing the join at all: after the two
    semijoin passes the join is nonempty iff every reduced relation is
    (global consistency of full-reduced acyclic joins).
    """
    with span(
        "cq.evaluate_boolean", query=query.head_name, strategy=strategy or "default"
    ):
        if strategy == "auto":
            relations = _atom_relations(query, database)
            route = _auto_route(query, relations)
            if route == "yannakakis":
                with span("yannakakis_reduce"):
                    reduced = _yannakakis_reduce(relations)
                return all(reduced)
            # Cyclic body: leapfrog with limit=1 — the first full binding
            # decides the query, with nothing materialized at all.
            from repro.relational.wcoj import leapfrog_join

            return bool(leapfrog_join(relations, limit=1))
        return bool(_body_join(query, database, strategy))


def satisfying_assignments(
    query: ConjunctiveQuery, database: Structure, strategy: str | None = None
) -> Iterator[dict[Var, Any]]:
    """Iterate all assignments of *all* query variables that satisfy the body
    (the query's "satisfying valuations", not just the projected answers)."""
    joined = _body_join(query, database, strategy)
    for t in sorted(joined.tuples, key=repr):
        yield {Var(a): value for a, value in zip(joined.attributes, t)}
