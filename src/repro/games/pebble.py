"""The existential k-pebble game (Section 4 of the tutorial).

The game is played by the Spoiler (placing pebbles on elements of ``A``) and
the Duplicator (answering on elements of ``B``).  The Duplicator wins if he
can keep the pebbled correspondence a partial homomorphism forever.

Following Definition 4.2 and Proposition 5.1, the algorithmic object is the
*largest winning strategy* ``H^k(A, B)``: the largest family of partial
homomorphisms from ``A`` to ``B`` with domains of size at most ``k`` that is
closed under subfunctions and has the *k-forth property* (every member of
size < k extends within the family to any further element of ``A``).

It is computed by a greatest-fixpoint pruning: start from *all* partial
homomorphisms of size ≤ k and repeatedly delete

* any function of size < k that fails the forth property for some element,
  and
* any function some restriction of which has been deleted

until nothing changes.  This is the polynomial-time algorithm promised by
Theorem 4.5(2); the O(n^{2k})-shape bound of Theorem 4.7 is exercised by
``benchmarks/bench_e3_pebble_games.py``.

Like the §5 consistency engines, the pruning takes a ``strategy`` knob:
``"residual"`` (default) runs the delete-cascade on the shared
deduplicating worklist core of :mod:`repro.consistency.propagation` and
maintains a per-(function, element) count of surviving one-point
extensions, so the forth-failure check is O(1) instead of re-scanning
extension groups; ``"naive"`` is the seed implementation, kept as the
differential oracle.  Both are instrumented with
:class:`~repro.consistency.propagation.PropagationStats` (a ``revision``
is one forth-check, a ``support check`` one extension-group inspection)
and publish into any active
:func:`~repro.consistency.propagation.collect_propagation` block.

Partial functions are represented as ``frozenset`` s of ``(a, b)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.consistency.propagation import (
    PropagationStats,
    Worklist,
    check_propagation_strategy,
    publish,
)
from repro.errors import DomainError, VocabularyError
from repro.relational.homomorphism import is_partial_homomorphism
from repro.relational.structure import Structure

__all__ = [
    "PebbleGameResult",
    "solve_game",
    "duplicator_wins",
    "spoiler_wins",
    "largest_winning_strategy",
    "is_winning_strategy",
    "has_forth_property",
]

PartialFunction = frozenset  # frozenset of (a, b) pairs


def _as_mapping(f: PartialFunction) -> dict[Any, Any]:
    return dict(f)


def _all_partial_homomorphisms(
    a: Structure, b: Structure, k: int
) -> set[PartialFunction]:
    """All partial homomorphisms ``A → B`` with domain size ≤ k.

    Enumerated bottom-up: size-``i`` candidates are built by extending
    size-``i−1`` partial homomorphisms, so non-homomorphic branches are cut
    early.
    """
    a_elems = sorted(a.domain, key=repr)
    b_elems = sorted(b.domain, key=repr)
    homs: set[PartialFunction] = {frozenset()}
    frontier: set[PartialFunction] = {frozenset()}
    for _ in range(k):
        next_frontier: set[PartialFunction] = set()
        for f in frontier:
            dom = {p[0] for p in f}
            mapping = _as_mapping(f)
            for x in a_elems:
                if x in dom:
                    continue
                for y in b_elems:
                    mapping[x] = y
                    if is_partial_homomorphism(mapping, a, b):
                        g = f | {(x, y)}
                        if g not in homs:
                            homs.add(g)
                            next_frontier.add(g)
                mapping.pop(x, None)
        frontier = next_frontier
        if not frontier:
            break
    return homs


@dataclass(frozen=True)
class PebbleGameResult:
    """Outcome of solving the existential k-pebble game on ``(A, B)``.

    Attributes
    ----------
    k:
        Number of pebbles.
    strategy:
        The largest winning strategy ``H^k(A, B)`` as a frozenset of partial
        functions (each a frozenset of ``(a, b)`` pairs).  Empty iff the
        Spoiler wins.
    """

    k: int
    strategy: frozenset

    @property
    def duplicator_wins(self) -> bool:
        """Duplicator wins iff a (nonempty) winning strategy exists."""
        return bool(self.strategy)

    @property
    def spoiler_wins(self) -> bool:
        return not self.duplicator_wins

    def functions_with_domain(self, domain: Iterable[Any]) -> Iterator[dict[Any, Any]]:
        """Members of the strategy defined exactly on ``domain``."""
        wanted = frozenset(domain)
        for f in self.strategy:
            if frozenset(p[0] for p in f) == wanted:
                yield _as_mapping(f)

    def winning_tuples(self, scope: tuple[Any, ...]) -> frozenset[tuple[Any, ...]]:
        """The relation ``R_ā = {b̄ : (ā, b̄) ∈ W^k(A,B)}`` for a scope ``ā``.

        This is step 2 of the establishing procedure of Theorem 5.6: tuples
        may repeat variables, in which case images must agree.
        """
        rows: set[tuple[Any, ...]] = set()
        for g in self.functions_with_domain(set(scope)):
            rows.add(tuple(g[v] for v in scope))
        return frozenset(rows)


def _restrictions(f: PartialFunction) -> Iterator[PartialFunction]:
    """All one-point restrictions of ``f``."""
    for pair in f:
        yield f - {pair}


def _extension_groups(
    family: set[PartialFunction],
) -> dict[PartialFunction, dict[Any, set[PartialFunction]]]:
    """``extensions_of[f][x]`` = surviving one-point extensions of ``f`` that
    add the element ``x``; maintained incrementally as functions are deleted.
    """
    extensions_of: dict[PartialFunction, dict[Any, set[PartialFunction]]] = {
        f: {} for f in family
    }
    for g in family:
        if not g:
            continue
        for pair in g:
            f = g - {pair}
            if f in extensions_of:
                extensions_of[f].setdefault(pair[0], set()).add(g)
    return extensions_of


def _prune_naive(
    family: set[PartialFunction],
    a_elems: list,
    k: int,
    stats: PropagationStats,
) -> set[PartialFunction]:
    """The seed greatest-fixpoint pruning, instrumented.

    Uses an unbounded LIFO ``pending`` list (the same function may be queued
    many times) and re-scans extension groups on every forth check.  Kept as
    the differential oracle for the residual cascade.
    """
    extensions_of = _extension_groups(family)

    def fails_forth(f: PartialFunction) -> bool:
        if len(f) >= k:
            return False
        dom = {p[0] for p in f}
        ext = extensions_of[f]
        for x in a_elems:
            if x in dom:
                continue
            stats.support_checks += 1
            if not ext.get(x):
                return True
        return False

    # Initial worklist: every function of size < k (forth check); the
    # restriction check is vacuous initially since the family is
    # restriction-closed by construction.
    pending: list[PartialFunction] = [f for f in family if len(f) < k]
    alive = set(family)

    def delete(f: PartialFunction) -> None:
        """Remove ``f`` and cascade: restrictions must be rechecked for the
        forth property; extensions must be deleted outright."""
        stack = [f]
        while stack:
            g = stack.pop()
            if g not in alive:
                continue
            alive.discard(g)
            # Upward cascade: any surviving extension loses a restriction.
            for by_elem in extensions_of.get(g, {}).values():
                for h in by_elem:
                    if h in alive:
                        stack.append(h)
            # Downward notification: restrictions may now fail forth.
            for r in _restrictions(g):
                if r in alive:
                    by_elem = extensions_of[r]
                    new_elem = next(iter({p[0] for p in g} - {p[0] for p in r}))
                    group = by_elem.get(new_elem)
                    if group is not None:
                        group.discard(g)
                    pending.append(r)

    while pending:
        f = pending.pop()
        if f in alive:
            stats.revisions += 1
            if fails_forth(f):
                delete(f)

    return alive


def _prune_residual(
    family: set[PartialFunction],
    a_elems: list,
    k: int,
    stats: PropagationStats,
) -> set[PartialFunction]:
    """Greatest-fixpoint pruning with O(1) forth-failure detection.

    The per-(function, element) extension *count* is ``len(group)`` for the
    groups of :func:`_extension_groups`, and groups only ever shrink — so an
    empty group is a permanent certificate that its owner fails the forth
    property.  The initial sweep enqueues every function with an empty
    group (short-circuiting at the first, like the naive check); afterwards
    a function is (re-)examined only at the instant a deletion empties one
    of its groups, via the shared deduplicating
    :class:`~repro.consistency.propagation.Worklist` — never by rescanning
    its groups wholesale, which is what the naive strategy does on every
    requeue.
    """
    extensions_of = _extension_groups(family)
    alive = set(family)
    worklist: Worklist = Worklist()

    def cascade(f: PartialFunction) -> None:
        """Delete ``f`` (already certified to fail forth) and propagate."""
        stack = [f]
        while stack:
            g = stack.pop()
            if g not in alive:
                continue
            alive.discard(g)
            # Upward cascade: any surviving extension loses a restriction.
            for by_elem in extensions_of.get(g, {}).values():
                for h in by_elem:
                    if h in alive:
                        stack.append(h)
            # Downward notification: the restriction's extension group for
            # g's extra element shrinks; only an empty-transition can flip
            # its forth status, so only then is it re-enqueued.  This is
            # the same O(1) discard bookkeeping the naive cascade performs
            # — the saved work (not re-scanning r's groups on requeue) is
            # what the naive strategy's extra support_checks measure.
            for r in _restrictions(g):
                if r in alive:
                    new_elem = next(iter({p[0] for p in g} - {p[0] for p in r}))
                    group = extensions_of[r].get(new_elem)
                    if group is not None and g in group:
                        group.discard(g)
                        if not group:
                            worklist.push(r)

    # One lazy sweep, smallest functions first: a function already killed
    # by an earlier cascade is never scanned at all, and each scan
    # short-circuits at the first empty group — exactly the naive check's
    # cost.  Cascades drain eagerly so later sweep entries see the
    # fixpoint-so-far.  Empty groups never refill, so a worklist entry is
    # a certificate and needs no rescan on pop.
    for f in sorted((f for f in family if len(f) < k), key=len):
        if f not in alive:
            continue
        stats.revisions += 1
        dom = {p[0] for p in f}
        failed = False
        for x in a_elems:
            if x in dom:
                continue
            stats.support_checks += 1
            if not extensions_of[f].get(x):
                failed = True
                break
        if not failed:
            continue
        cascade(f)
        while worklist:
            g = worklist.pop()
            if g in alive:
                stats.revisions += 1
                cascade(g)

    return alive


def largest_winning_strategy(
    a: Structure, b: Structure, k: int, strategy: str = "residual"
) -> frozenset:
    """Compute ``H^k(A, B)``, the union of all Duplicator winning strategies.

    Returns the empty frozenset when the Spoiler wins.  See module docstring
    for the greatest-fixpoint algorithm and the ``strategy`` knob; both
    strategies compute the same (unique) greatest fixpoint.
    """
    if k < 1:
        raise DomainError(f"the pebble game needs k >= 1, got {k}")
    if a.vocabulary != b.vocabulary:
        raise VocabularyError("pebble game requires a common vocabulary")
    check_propagation_strategy(strategy)

    stats = PropagationStats()
    try:
        family = _all_partial_homomorphisms(a, b, k)
        a_elems = sorted(a.domain, key=repr)
        if strategy == "naive":
            alive = _prune_naive(family, a_elems, k, stats)
        else:
            alive = _prune_residual(family, a_elems, k, stats)
        if frozenset() not in alive:
            stats.wipeouts += 1
            return frozenset()
        return frozenset(alive)
    finally:
        publish(stats)


def solve_game(
    a: Structure, b: Structure, k: int, strategy: str = "residual"
) -> PebbleGameResult:
    """Solve the existential k-pebble game on ``(A, B)``.

    Polynomial in ``(|A| + |B|)^{O(k)}`` — the effective content of
    Theorem 4.5(2).
    """
    return PebbleGameResult(
        k=k, strategy=largest_winning_strategy(a, b, k, strategy=strategy)
    )


def duplicator_wins(
    a: Structure, b: Structure, k: int, strategy: str = "residual"
) -> bool:
    """Whether the Duplicator wins the existential k-pebble game on (A, B)."""
    return solve_game(a, b, k, strategy=strategy).duplicator_wins


def spoiler_wins(
    a: Structure, b: Structure, k: int, strategy: str = "residual"
) -> bool:
    """Whether the Spoiler wins the existential k-pebble game on (A, B)."""
    return not duplicator_wins(a, b, k, strategy=strategy)


def has_forth_property(
    family: Iterable[PartialFunction], a: Structure, k: int
) -> bool:
    """Check the k-forth property of Definition 4.2 for a family of partial
    functions: every member of size < k extends, within the family, to any
    additional element of ``A``."""
    fam = set(family)
    for f in fam:
        if len(f) >= k:
            continue
        dom = {p[0] for p in f}
        for x in a.domain:
            if x in dom:
                continue
            if not any(
                f < g and x in {p[0] for p in g} and len(g) == len(f) + 1
                for g in fam
            ):
                return False
    return True


def is_winning_strategy(
    family: Iterable[PartialFunction], a: Structure, b: Structure, k: int
) -> bool:
    """Whether ``family`` is a Duplicator winning strategy (Definition 4.2):
    a nonempty family of ≤k-partial homomorphisms with the k-forth property.
    """
    fam = set(family)
    if not fam:
        return False
    for f in fam:
        if len(f) > k:
            return False
        mapping = _as_mapping(f)
        if len(mapping) != len(f):  # not a function: two images for one point
            return False
        if not is_partial_homomorphism(mapping, a, b):
            return False
    return has_forth_property(fam, a, k)


def configurations(result: PebbleGameResult, size: int) -> Iterator[tuple[tuple, tuple]]:
    """Iterate winning configurations ``(ā, b̄)`` with ``|ā| = size`` over
    *distinct* elements, in deterministic order — the ``W^k`` view of the
    strategy used by Theorem 5.6's establishing procedure."""
    domains = sorted(
        {frozenset(p[0] for p in f) for f in result.strategy if len(f) == size},
        key=repr,
    )
    for dom in domains:
        for ordering in _orderings(dom):
            for g in result.functions_with_domain(dom):
                yield ordering, tuple(g[x] for x in ordering)


def _orderings(elements: frozenset) -> Iterator[tuple]:
    from itertools import permutations

    yield from permutations(sorted(elements, key=repr))
