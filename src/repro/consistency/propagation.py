"""The residual-support propagation core shared by the §5 fixpoint engines.

Arc consistency, singleton arc consistency, path consistency, and the
existential k-pebble game of Section 4 are all *greatest-fixpoint pruning*
procedures: start from a candidate set (domain values, pair tuples, partial
homomorphisms) and delete elements that have lost their supporting witness,
cascading until nothing changes.  Marx (*Modern Lower Bound Techniques in
Database Theory and Constraint Satisfaction*, 2022) identifies exactly these
procedures as the complexity-critical core of the CSP/DB correspondence —
and their naive implementations redo the same witness search over and over.

This module provides the three ingredients the rewritten engines share:

* :class:`PropagationStats` — the observability layer, mirroring
  :class:`~repro.relational.stats.EvalStats`: revisions, constraint-row
  support checks, residual-support hits, trail restores, and wipeouts,
  collectable through a ``contextvars``-scoped :func:`collect_propagation`.
* :class:`Worklist` — a set-backed deduplicating queue.  The classical AC-3
  formulation appends ``(constraint, variable)`` arcs unboundedly; here an
  arc already awaiting revision is never enqueued twice.
* :class:`PropagationEngine` — generalized arc consistency in the AC-3rm
  *residual support* style (Lecoutre–Hemery): for every
  ``(constraint, variable, value)`` triple the last support row found is
  remembered, and a revision first re-verifies that stored row in O(arity)
  before falling back to a scan — and the scan itself only walks the rows
  that carry ``value`` in the right column, courtesy of the memoized
  :meth:`~repro.relational.relation.Relation.index_on` hash indexes from the
  join backend.  Residual supports are *hints*, re-verified before every
  use, so they stay sound when domains grow back (trail-restoring SAC
  probes, backtracking search) — unlike AC-2001 pointers, which assume
  monotone deletion.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Container, Hashable, Iterable, Iterator

from repro.csp.instance import Constraint, CSPInstance
from repro.relational.relation import Relation
from repro.telemetry.registry import counter_delta, snapshot
from repro.telemetry.spans import span

__all__ = [
    "PropagationStats",
    "collect_propagation",
    "current_propagation",
    "Worklist",
    "PropagationEngine",
    "PROPAGATION_STRATEGIES",
    "check_propagation_strategy",
]

#: The propagation strategies every §4/§5 fixpoint engine accepts:
#: ``"residual"`` (the support-indexed default, :class:`PropagationEngine`)
#: and ``"naive"`` (the rescan-everything baseline, kept as the
#: differential-testing oracle — the same role ``execution="scan"`` plays
#: in the join backend).
PROPAGATION_STRATEGIES: tuple[str, ...] = ("residual", "naive")


def check_propagation_strategy(strategy: str) -> str:
    """Validate a propagation strategy name, returning it unchanged.

    Unknown names raise :class:`~repro.errors.SolverError`, mirroring
    :func:`repro.relational.planner.parse_strategy`.
    """
    if strategy not in PROPAGATION_STRATEGIES:
        from repro.errors import SolverError

        raise SolverError(
            f"unknown propagation strategy {strategy!r}; "
            f"expected one of {PROPAGATION_STRATEGIES}"
        )
    return strategy


@dataclass
class PropagationStats:
    """Mutable accumulator of propagation counters (monotone, like EvalStats).

    Attributes
    ----------
    revisions:
        Revise operations that actually examined constraint rows (a pop of
        an arc whose domain is already empty counts nothing).
    support_checks:
        Constraint rows tested for validity against the current domains —
        the unit of work the residual engine exists to save.
    support_hits:
        Stored residual supports that re-verified successfully, i.e. the
        O(1) fast path.  ``support_hits ≤ support_checks`` always.
    trail_restores:
        Values put back by a trail rollback (SAC probes restoring the
        shared fixpoint instead of rebuilding the instance).
    wipeouts:
        Domain (or pair-relation) wipeouts observed — each one is a proof
        of unsatisfiability of the probed instance.
    """

    revisions: int = 0
    support_checks: int = 0
    support_hits: int = 0
    trail_restores: int = 0
    wipeouts: int = 0

    def merge(self, other: "PropagationStats") -> "PropagationStats":
        """Fold ``other``'s counters into this object (in place); return it."""
        self.revisions += other.revisions
        self.support_checks += other.support_checks
        self.support_hits += other.support_hits
        self.trail_restores += other.trail_restores
        self.wipeouts += other.wipeouts
        return self

    def reset(self) -> None:
        """Zero every counter."""
        self.revisions = 0
        self.support_checks = 0
        self.support_hits = 0
        self.trail_restores = 0
        self.wipeouts = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of support checks answered by a stored residual support."""
        return self.support_hits / self.support_checks if self.support_checks else 0.0

    def as_dict(self) -> dict:
        """A plain-dict snapshot (for ``--json`` output and EXPERIMENTS tables)."""
        return {
            "revisions": self.revisions,
            "support_checks": self.support_checks,
            "support_hits": self.support_hits,
            "trail_restores": self.trail_restores,
            "wipeouts": self.wipeouts,
            "hit_rate": self.hit_rate,
        }

    def summary(self) -> str:
        """A short human-readable report."""
        return "\n".join(
            [
                f"revisions       {self.revisions}",
                f"support checks  {self.support_checks}",
                f"support hits    {self.support_hits} ({self.hit_rate:.0%})",
                f"trail restores  {self.trail_restores}",
                f"wipeouts        {self.wipeouts}",
            ]
        )


# Like EvalStats: a ContextVar rather than a module global, so concurrent
# traces (threads, asyncio tasks, nested blocks) never share counters.
_ACTIVE: ContextVar[PropagationStats | None] = ContextVar(
    "repro_propagation_stats", default=None
)


def current_propagation() -> PropagationStats | None:
    """The innermost active :func:`collect_propagation` stats object, if any."""
    return _ACTIVE.get()


@contextmanager
def collect_propagation(
    stats: PropagationStats | None = None,
) -> Iterator[PropagationStats]:
    """Collect propagation statistics for the duration of the ``with`` block.

    Every propagation engine (AC/SAC/PC strategies, the pebble-game
    pruning, MAC search) merges its per-run counters into the innermost
    active block on completion.  Nested blocks shadow outer ones.

    >>> from repro.consistency.arc import ac3
    >>> from repro.csp.instance import Constraint, CSPInstance
    >>> inst = CSPInstance(["x", "y"], [0, 1], [Constraint(("x", "y"), {(0, 1)})])
    >>> with collect_propagation() as stats:
    ...     _ = ac3(inst)
    >>> stats.revisions > 0
    True
    """
    if stats is None:
        stats = PropagationStats()
    token = _ACTIVE.set(stats)
    try:
        yield stats
    finally:
        _ACTIVE.reset(token)


def publish(stats: PropagationStats) -> PropagationStats:
    """Merge ``stats`` into the active :func:`collect_propagation` block.

    Engines call this exactly once per run, so a traced composite (SAC over
    many probes, a whole search) reports the merged counters of its parts.
    Returns ``stats`` unchanged for chaining.
    """
    active = _ACTIVE.get()
    if active is not None and active is not stats:
        active.merge(stats)
    return stats


class Worklist:
    """A set-backed deduplicating FIFO queue of hashable work items.

    The fix for the classical AC-3 formulation's unbounded duplicate-arc
    enqueueing: an item already awaiting processing is not enqueued again
    (``push`` returns ``False``), while an item may of course re-enter the
    queue after it has been popped.

    >>> wl = Worklist([1, 2, 1])
    >>> len(wl)
    2
    >>> wl.pop(), wl.pop()
    (1, 2)
    >>> wl.push(1)
    True
    """

    __slots__ = ("_queue", "_members")

    def __init__(self, items: Iterable[Hashable] = ()):
        self._queue: deque = deque()
        self._members: set = set()
        for item in items:
            self.push(item)

    def push(self, item: Hashable) -> bool:
        """Enqueue ``item`` unless it is already pending; report whether it was."""
        if item in self._members:
            return False
        self._members.add(item)
        self._queue.append(item)
        return True

    def pop(self) -> Any:
        """Dequeue and return the oldest pending item."""
        item = self._queue.popleft()
        self._members.discard(item)
        return item

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __contains__(self, item: object) -> bool:
        return item in self._members


class _ResidualConstraint:
    """One constraint prepared for residual-support revision.

    The relation is wrapped in a :class:`~repro.relational.relation.Relation`
    over positional attribute names so the join backend's memoized
    :meth:`~repro.relational.relation.Relation.index_on` hash indexes serve
    as the per-(position, value) candidate lists: a revision for value ``a``
    of the variable at position ``i`` only ever walks the rows that carry
    ``a`` in column ``i``, never the whole relation.
    """

    __slots__ = ("scope", "arity", "position", "relation", "_attrs", "_supports")

    def __init__(self, constraint: Constraint):
        self.scope = constraint.scope
        self.arity = constraint.arity
        # Normalized scopes have distinct variables, so positions are unique.
        self.position = {v: i for i, v in enumerate(self.scope)}
        self._attrs = tuple(f"p{i}" for i in range(self.arity))
        self.relation = Relation(self._attrs, constraint.relation)
        # (position, value) → last row found to support the value there.
        self._supports: dict[tuple[int, Any], tuple[Any, ...]] = {}

    def candidates(self, position: int, value: Any) -> list[tuple[Any, ...]]:
        """Rows carrying ``value`` at ``position`` (memoized hash-index group)."""
        index = self.relation.index_on((self._attrs[position],))
        return index.get((value,), [])  # type: ignore[return-value]

    def row_valid(self, row: tuple[Any, ...], domains: dict[Any, set[Any]]) -> bool:
        scope = self.scope
        for i in range(self.arity):
            if row[i] not in domains[scope[i]]:
                return False
        return True

    def revise(
        self,
        variable: Any,
        domains: dict[Any, set[Any]],
        stats: PropagationStats,
    ) -> set[Any]:
        """Remove and return the values of ``variable`` with no support here.

        Each surviving value costs one support check when its stored
        residual support is still valid; otherwise its candidate index
        group is scanned until a new support is found (and stored).
        """
        position = self.position[variable]
        current = domains[variable]
        if not current:
            return set()
        stats.revisions += 1
        removed: set[Any] = set()
        for value in current:
            key = (position, value)
            stored = self._supports.get(key)
            if stored is not None:
                stats.support_checks += 1
                if self.row_valid(stored, domains):
                    stats.support_hits += 1
                    continue
            for row in self.candidates(position, value):
                if row is stored:
                    continue  # already found invalid just above
                stats.support_checks += 1
                if self.row_valid(row, domains):
                    self._supports[key] = row
                    break
            else:
                removed.add(value)
        if removed:
            domains[variable] = current - removed
        return removed


class PropagationEngine:
    """Generalized arc consistency with residual supports over one instance.

    Built once per (normalized) instance; revisions share the constraint
    indexes and residual supports across every propagation the caller runs
    — AC-3 passes, SAC probes, or all the nodes of a MAC search.  Residual
    supports are verified before use, so the engine is sound even when the
    caller restores previously deleted values between calls.
    """

    def __init__(self, instance: CSPInstance):
        instance = instance.normalize()
        self.instance = instance
        self.constraints = [_ResidualConstraint(c) for c in instance.constraints]
        self.constraints_on: dict[Any, list[_ResidualConstraint]] = {
            v: [] for v in instance.variables
        }
        for rc in self.constraints:
            for v in rc.scope:
                self.constraints_on[v].append(rc)

    # -- worklist construction -------------------------------------------

    def fresh_domains(self) -> dict[Any, set[Any]]:
        """Full domains for every variable (the AC starting point)."""
        return {v: set(self.instance.domain) for v in self.instance.variables}

    def full_worklist(self, skip: Container[Any] = ()) -> Worklist:
        """Every (constraint, variable) arc, minus targets in ``skip``."""
        return Worklist(
            (rc, v) for rc in self.constraints for v in rc.scope if v not in skip
        )

    def arcs_from(self, variables: Iterable[Any], skip: Container[Any] = ()) -> Worklist:
        """The arcs whose revision a change to ``variables`` can trigger:
        ``(c, v)`` for every constraint ``c`` on a changed variable and
        every *other* variable ``v`` of its scope not in ``skip``."""
        worklist = Worklist()
        for changed in variables:
            for rc in self.constraints_on.get(changed, ()):
                for v in rc.scope:
                    if v != changed and v not in skip:
                        worklist.push((rc, v))
        return worklist

    # -- the fixpoint loop -------------------------------------------------

    def propagate(
        self,
        domains: dict[Any, set[Any]],
        worklist: Worklist,
        stats: PropagationStats,
        trail: list[tuple[Any, set[Any]]] | None = None,
        skip: Container[Any] = (),
    ) -> bool:
        """Run revisions to fixpoint; ``False`` on a domain wipeout.

        Deletions are appended to ``trail`` (as ``(variable, removed-set)``
        entries) when one is given, so the caller can roll them back with
        :meth:`restore`.  ``skip`` excludes revision targets (assigned
        search variables).  On a wipeout the worklist is abandoned —
        the instance is already refuted.
        """
        sp = span(
            "propagation.fixpoint",
            engine=type(self).__name__,
            arcs=len(worklist),
        )
        if not sp:
            return self._propagate(domains, worklist, stats, trail, skip)
        # ``stats`` is a function argument, not the ContextVar-installed
        # object, so the span cannot capture its delta automatically.
        with sp:
            before = snapshot(stats)
            ok = self._propagate(domains, worklist, stats, trail, skip)
            sp.add_counters("propagation", counter_delta(stats, before))
            sp.note(consistent=ok)
            return ok

    def _propagate(
        self,
        domains: dict[Any, set[Any]],
        worklist: Worklist,
        stats: PropagationStats,
        trail: list[tuple[Any, set[Any]]] | None = None,
        skip: Container[Any] = (),
    ) -> bool:
        while worklist:
            rc, variable = worklist.pop()
            removed = rc.revise(variable, domains, stats)
            if not removed:
                continue
            if trail is not None:
                trail.append((variable, removed))
            if not domains[variable]:
                stats.wipeouts += 1
                return False
            for other in self.constraints_on[variable]:
                for v in other.scope:
                    if v != variable and v not in skip:
                        worklist.push((other, v))
        return True

    @staticmethod
    def restore(
        domains: dict[Any, set[Any]],
        trail: list[tuple[Any, set[Any]]],
        stats: PropagationStats,
    ) -> None:
        """Undo every deletion recorded on ``trail`` (newest first), emptying it."""
        while trail:
            variable, removed = trail.pop()
            domains[variable] |= removed
            stats.trail_restores += len(removed)
