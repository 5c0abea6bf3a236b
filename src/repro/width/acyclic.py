"""Acyclic hypergraphs: GYO reduction, join trees, and Yannakakis evaluation.

Section 6 traces the "topology of the query" line of work to the study of
acyclic joins [45, 32].  A hypergraph is (α-)acyclic iff the GYO reduction
(repeatedly delete ears — vertices in a single hyperedge — and hyperedges
contained in other hyperedges) empties it; equivalently iff it has a *join
tree*.  Acyclic = hypertree width 1, the base case of the width hierarchy
compared in benchmark E6.

Yannakakis' algorithm decides an acyclic CSP/join in polynomial time: a
bottom-up semijoin pass makes every relation globally consistent enough to
answer the Boolean question, and a top-down pass plus greedy descent
constructs a solution — the "backtrack-free search" Section 5 mentions.
"""

from __future__ import annotations

from typing import Any

from repro.csp.instance import CSPInstance
from repro.errors import DecompositionError
from repro.relational.algebra import semijoin
from repro.relational.relation import Relation

__all__ = [
    "gyo_reduction",
    "is_acyclic",
    "join_tree",
    "JoinTree",
    "yannakakis_is_solvable",
    "yannakakis_solve",
]


def gyo_reduction(
    hyperedges: list[frozenset[Any]],
) -> tuple[list[frozenset[Any]], list[tuple[int, int]]]:
    """Run the GYO (Graham / Yu–Özsoyoğlu) reduction.

    Parameters
    ----------
    hyperedges:
        The hyperedges, indexed by position.

    Returns
    -------
    (remaining, parents):
        ``remaining`` — the reduced hyperedge contents (same indexing, with
        absorbed edges emptied); ``parents`` — ``(child, parent)`` pairs
        recorded when a hyperedge was absorbed into another, which form the
        join-tree edges when the reduction succeeds.
    """
    current: list[set[Any]] = [set(e) for e in hyperedges]
    alive = [bool(e) for e in current]
    # Edges that start empty are trivially absorbed (into nothing).
    parents: list[tuple[int, int]] = []

    changed = True
    while changed:
        changed = False
        # Ear removal: drop vertices that occur in exactly one live edge.
        occurrence: dict[Any, list[int]] = {}
        for i, edge in enumerate(current):
            if alive[i]:
                for v in edge:
                    occurrence.setdefault(v, []).append(i)
        for v, where in occurrence.items():
            if len(where) == 1:
                current[where[0]].discard(v)
                changed = True
        # Absorption: an edge contained in a different live edge is removed.
        live = [i for i in range(len(current)) if alive[i]]
        for i in live:
            if not alive[i]:
                continue
            for j in live:
                if i != j and alive[j] and current[i] <= current[j]:
                    alive[i] = False
                    parents.append((i, j))
                    changed = True
                    break
        # Edges emptied by ear removal die without a parent (isolated).
        for i in range(len(current)):
            if alive[i] and not current[i]:
                alive[i] = False
                changed = True

    remaining = [
        frozenset(current[i]) if alive[i] else frozenset() for i in range(len(current))
    ]
    return remaining, parents


def is_acyclic(hyperedges: list[frozenset[Any]]) -> bool:
    """Whether the hypergraph is α-acyclic (GYO reduction empties it)."""
    remaining, _ = gyo_reduction(hyperedges)
    return all(not e for e in remaining)


class JoinTree:
    """A join tree over hyperedge indices: a forest of parent pointers such
    that for each vertex, the edges containing it form a connected subtree."""

    __slots__ = ("hyperedges", "parent", "roots")

    def __init__(
        self,
        hyperedges: list[frozenset[Any]],
        parent: dict[int, int],
        roots: list[int],
    ):
        self.hyperedges = hyperedges
        self.parent = parent
        self.roots = roots

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {i: [] for i in range(len(self.hyperedges))}
        for child, par in self.parent.items():
            out[par].append(child)
        return out

    def topological_order(self) -> list[int]:
        """Indices ordered leaves-first (children before parents)."""
        children = self.children()
        order: list[int] = []
        visited: set[int] = set()

        def visit(node: int) -> None:
            if node in visited:
                return
            visited.add(node)
            for c in children[node]:
                visit(c)
            order.append(node)

        for r in self.roots:
            visit(r)
        return order


def join_tree(hyperedges: list[frozenset[Any]]) -> JoinTree:
    """Build a join tree for an acyclic hypergraph.

    Raises :class:`DecompositionError` when the hypergraph is cyclic.
    Absorption parents from the GYO reduction become tree parents; edges
    never absorbed (one per connected component) become roots.
    """
    remaining, parents = gyo_reduction(hyperedges)
    if any(remaining):
        raise DecompositionError("the hypergraph is cyclic: GYO reduction got stuck")
    parent = dict(parents)
    roots = [i for i in range(len(hyperedges)) if i not in parent]
    return JoinTree(list(hyperedges), parent, roots)


def _constraint_relations(instance: CSPInstance) -> tuple[CSPInstance, list[Relation]]:
    from repro.csp.solvers.join import constraint_relations

    normalized = instance.normalize()
    return normalized, constraint_relations(normalized)


def _bottom_up_pass(
    relations: list[Relation], execution: str | None
) -> tuple[list[Relation], list[int], dict[int, list[int]]] | None:
    """Yannakakis' bottom-up pass over the join tree of the relations'
    scopes: leaves first, each relation is semijoin-reduced by its children.

    Returns the reduced relations with the leaves-first order and the
    children lists, or ``None`` as soon as a relation empties.
    """
    tree = join_tree([frozenset(r.attributes) for r in relations])
    order = tree.topological_order()
    children = tree.children()
    reduced = list(relations)
    for node in order:
        for child in children[node]:
            reduced[node] = semijoin(
                reduced[node], reduced[child], execution=execution
            )
        if not reduced[node]:
            return None
    return reduced, order, children


def yannakakis_is_solvable(
    instance: CSPInstance, *, execution: str | None = None
) -> bool:
    """Decide an acyclic CSP instance by Yannakakis' bottom-up semijoin pass.

    Each constraint is semijoin-reduced by its join-tree children; the
    instance is solvable iff no relation empties.  Linear-shaped in the total
    size of the relations (each relation is touched once per tree edge).
    ``execution`` selects the semijoin implementation (``"indexed"`` probes
    each reducer's memoized hash index, ``"scan"`` re-scans it per row; see
    :func:`repro.relational.algebra.semijoin`).

    Raises :class:`DecompositionError` on cyclic instances — callers should
    test :func:`is_acyclic` first or fall back to another solver.
    """
    normalized, relations = _constraint_relations(instance)
    if not normalized.constraints:
        return not normalized.variables or bool(normalized.domain)
    return _bottom_up_pass(relations, execution) is not None


def yannakakis_solve(
    instance: CSPInstance, *, execution: str | None = None
) -> dict[Any, Any] | None:
    """Construct a solution of an acyclic instance backtrack-freely.

    After the bottom-up pass, a top-down pass semijoin-reduces children by
    their parents; then a greedy descent picks, at each node, any row
    agreeing with the values chosen so far — full consistency guarantees it
    exists (the "backtrack-free search" of Section 5).  ``execution``
    selects the semijoin implementation as in
    :func:`yannakakis_is_solvable`; with the default hash-indexed semijoin,
    a relation reducing several children in the top-down pass builds its
    probe index once and reuses it for every child.
    """
    normalized, relations = _constraint_relations(instance)
    domain = sorted(normalized.domain, key=repr)
    if not normalized.constraints:
        if normalized.variables and not domain:
            return None
        return {v: domain[0] for v in normalized.variables}

    passed = _bottom_up_pass(relations, execution)
    if passed is None:
        return None
    reduced, bottom_up, children = passed
    for node in reversed(bottom_up):  # top-down
        for child in children[node]:
            reduced[child] = semijoin(
                reduced[child], reduced[node], execution=execution
            )

    # Greedy descent: fix attributes node by node, parents before children.
    chosen: dict[str, Any] = {}
    for node in reversed(bottom_up):
        rel = reduced[node]
        fixed = [a for a in rel.attributes if a in chosen]
        row = next(
            (
                t
                for t in sorted(rel.tuples, key=repr)
                if all(t[rel.index_of(a)] == chosen[a] for a in fixed)
            ),
            None,
        )
        if row is None:
            raise DecompositionError(
                "internal error: full reducer left an inextensible row choice"
            )
        chosen.update(zip(rel.attributes, row))

    names = {f"v{i}": v for i, v in enumerate(normalized.variables)}
    assignment = {names[a]: value for a, value in chosen.items()}
    for v in normalized.variables:
        if v not in assignment:
            if not domain:
                return None
            assignment[v] = domain[0]
    return assignment
