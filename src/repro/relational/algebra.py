"""Relational algebra over :class:`~repro.relational.relation.Relation`.

The tutorial's Proposition 2.1 reads constraint satisfaction as a
*join-evaluation problem*: a CSP instance ``(V, D, C)`` is solvable iff the
natural join of its constraint relations is nonempty.  This module provides
the natural join (hash-join implementation) plus the standard companions —
projection, selection, renaming, semijoin, and the set operations — which the
acyclic-join and Yannakakis machinery in :mod:`repro.width` builds on.

All operations are pure: they return new relations and never mutate inputs.

Two cross-cutting facilities live alongside the operators:

* **observability** — inside a :func:`repro.relational.stats.collect_stats`
  block, every join/semijoin/selection/projection records tuples scanned,
  hash probes, index builds/hits/misses, result cardinalities, and wall
  time into the active :class:`~repro.relational.stats.EvalStats`;
* **planning** — :func:`join_all` accepts a ``strategy`` that combines a
  join *order* (``"greedy"``, ``"smallest"``, ``"textbook"``) with a join
  *execution* (``"indexed"``, ``"scan"``), e.g. ``"smallest+scan"``; see
  :func:`repro.relational.planner.parse_strategy`.  The defaults are the
  cost-guided greedy order and hash-indexed execution; ``DEFAULT_STRATEGY``
  and ``DEFAULT_EXECUTION`` are the module-wide knobs.

Indexed execution probes the lazily built, memoized per-key-column hash
indexes of :meth:`Relation.index_on` — so a relation joined or
semijoin-reduced repeatedly on the same key (semi-naive Datalog rounds,
Yannakakis passes) pays for its hash table once.  The ``"scan"`` execution
is the nested-loop implementation, kept as a differential-testing oracle.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, SolverError
from repro.relational.planner import EXECUTIONS, choose_build_side, order_relations, parse_strategy
from repro.relational.relation import Relation
from repro.relational.stats import current_stats
from repro.telemetry.spans import span

__all__ = [
    "DEFAULT_STRATEGY",
    "DEFAULT_EXECUTION",
    "project",
    "select",
    "rename",
    "natural_join",
    "join_all",
    "semijoin",
    "warm_index",
    "union",
    "intersection",
    "difference",
    "product",
    "division",
]

#: Join-order strategy used by :func:`join_all` when none is given.
DEFAULT_STRATEGY = "greedy"

#: Join-execution mode used by :func:`natural_join`/:func:`semijoin` when
#: none is given: ``"indexed"`` (memoized hash indexes) or ``"scan"``.
DEFAULT_EXECUTION = "indexed"


def _resolve_execution(execution: str | None) -> str:
    mode = execution or DEFAULT_EXECUTION
    if mode not in EXECUTIONS:
        raise SolverError(
            f"unknown join execution {execution!r}; expected one of {EXECUTIONS}"
        )
    return mode


def project(relation: Relation, attributes: Sequence[str]) -> Relation:
    """Project onto ``attributes`` (which may reorder columns).

    >>> r = Relation(("x", "y"), [(1, 2), (1, 3)])
    >>> sorted(project(r, ("x",)).tuples)
    [(1,)]
    """
    with span("project") as sp:
        stats = current_stats()
        start = perf_counter() if stats is not None else 0.0
        attrs = tuple(attributes)
        indices = [relation.index_of(a) for a in attrs]
        result = Relation(attrs, (tuple(t[i] for i in indices) for t in relation))
        if stats is not None:
            stats.record(
                "project",
                scanned=len(relation),
                emitted=len(result),
                seconds=perf_counter() - start,
            )
        if sp:
            sp.note(rows=len(result))
        return result


class _RowView(Mapping[str, Any]):
    """A zero-copy ``{attribute: value}`` view of one row.

    ``select`` hands the predicate one of these instead of materializing a
    ``dict(zip(attrs, row))`` per row: lookups index straight into the tuple
    through a per-relation attribute index that is built once, so a
    predicate touching only some attributes never pays for the rest.
    """

    __slots__ = ("_index", "_row")

    def __init__(self, index: dict[str, int], row: tuple[Any, ...]):
        self._index = index
        self._row = row

    def __getitem__(self, key: str) -> Any:
        return self._row[self._index[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def select(relation: Relation, predicate: Callable[[Mapping[str, Any]], bool]) -> Relation:
    """Keep the rows on which ``predicate`` (given the row as a mapping) is true.

    The mapping is a lazy view of the row: values are fetched by index on
    access, so no per-row dictionary is allocated.
    """
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    attrs = relation.attributes
    index = {a: i for i, a in enumerate(attrs)}
    kept = (t for t in relation if predicate(_RowView(index, t)))
    result = Relation(attrs, kept)
    if stats is not None:
        stats.record(
            "select",
            scanned=len(relation),
            emitted=len(result),
            seconds=perf_counter() - start,
        )
    return result


def rename(relation: Relation, mapping: Mapping[str, str]) -> Relation:
    """Rename attributes according to ``mapping`` (attributes absent from the
    mapping keep their names).  The resulting scheme must still be distinct.
    """
    new_attrs = tuple(mapping.get(a, a) for a in relation.attributes)
    if len(set(new_attrs)) != len(new_attrs):
        raise SchemaError(
            f"renaming {dict(mapping)!r} collapses scheme "
            f"{relation.attributes!r} to non-distinct {new_attrs!r}"
        )
    return Relation(new_attrs, relation.tuples)


def _shared_and_private(
    left: Relation, right: Relation
) -> tuple[list[str], list[str]]:
    """The canonical (sorted) join key shared by both schemes, and the
    attributes private to ``right``.

    The key is sorted so that it does not depend on operand order or scheme
    layout: ``r ⋈ s``, ``s ⋈ r``, ``r ⋉ s``, and :func:`warm_index` all
    name the same memoized :meth:`Relation.index_on` index.
    """
    left_set = set(left.attributes)
    shared = sorted(a for a in right.attributes if a in left_set)
    private = [a for a in right.attributes if a not in left_set]
    return shared, private


def warm_index(relation: Relation, attributes: Iterable[str]) -> bool:
    """Build (and memoize) ``relation``'s hash index on the canonical join
    key for ``attributes``, charging the build to the active EvalStats.

    The canonical key is the sorted attribute tuple — exactly what
    :func:`natural_join` and :func:`semijoin` probe on — so a caller that
    knows a relation will be probed repeatedly on the same key (the Datalog
    engine's static EDB relations across semi-naive rounds, a Yannakakis
    reducer) can pay the build once, up front;
    :func:`~repro.relational.planner.choose_build_side` then routes every
    later join through the warmed side regardless of cardinalities.
    Returns ``True`` iff an index was actually built (``False`` when the
    key was already memoized).
    """
    key = tuple(sorted(attributes))
    if relation.has_index(key):
        return False
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    relation.index_on(key)
    if stats is not None:
        stats.record(
            "index_build",
            scanned=len(relation),
            index_builds=1,
            seconds=perf_counter() - start,
        )
    return True


def natural_join(
    left: Relation, right: Relation, *, execution: str | None = None
) -> Relation:
    """The natural join ``left ⋈ right`` on the shared attributes.

    ``execution`` picks the physical operator (default
    :data:`DEFAULT_EXECUTION`):

    * ``"indexed"`` — build-side/probe-side hash execution.
      :func:`~repro.relational.planner.choose_build_side` decides which
      operand owns the hash table (an already-memoized
      :meth:`Relation.index_on` index is free; otherwise the smaller side
      builds), and the other operand's rows probe it.
    * ``"scan"`` — the nested-loop implementation: every probe scans the
      whole other relation.  Kept for differential testing.
    * ``"wcoj"`` — the two-relation leapfrog triejoin of
      :mod:`repro.relational.wcoj`: both operands are sorted into
      per-attribute tries over a shared dense-int codec and intersected
      variable-at-a-time (seek-based, no hash tables).
    * ``"columnar"`` — the batched column-sweep path of
      :mod:`repro.relational.columnar`: probe keys are packed from the
      probe side's code columns and looked up in the build side's
      radix-packed :meth:`Relation.code_index_on` index in one sweep.

    All produce the same relation with the same column order
    (``left``'s scheme followed by ``right``'s private attributes).  When
    the schemes are disjoint this degenerates to the Cartesian product;
    when they are identical it degenerates to intersection.
    """
    execution = _resolve_execution(execution)
    with span("natural_join", execution=execution) as sp:
        result = _natural_join(left, right, execution)
        if sp:
            sp.note(rows=len(result))
        return result


def _natural_join(left: Relation, right: Relation, execution: str) -> Relation:
    if execution == "wcoj":
        from repro.relational.wcoj import leapfrog_natural_join

        return leapfrog_natural_join(left, right)
    if execution == "columnar":
        from repro.relational.columnar import batched_natural_join

        return batched_natural_join(left, right)
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    shared, right_private = _shared_and_private(left, right)
    key = tuple(shared)
    right_private_idx = [right.index_of(a) for a in right_private]
    out_attrs = left.attributes + tuple(right_private)

    if execution == "scan":
        left_key = [left.index_of(a) for a in key]
        right_key = [right.index_of(a) for a in key]

        def scan_rows() -> Iterable[tuple[Any, ...]]:
            for lt in left:
                for rt in right:
                    if all(lt[i] == rt[j] for i, j in zip(left_key, right_key)):
                        yield lt + tuple(rt[i] for i in right_private_idx)

        result = Relation(out_attrs, scan_rows())
        if stats is not None:
            stats.record(
                "natural_join",
                scanned=len(left) + len(left) * len(right),
                emitted=len(result),
                seconds=perf_counter() - start,
                intermediate=len(result),
            )
        return result

    build_side = choose_build_side(left, right, key)
    build, probe = (right, left) if build_side == "right" else (left, right)
    built = not build.has_index(key)
    index = build.index_on(key)
    probe_key = [probe.index_of(a) for a in key]
    hits = misses = 0

    def indexed_rows() -> Iterable[tuple[Any, ...]]:
        nonlocal hits, misses
        for pt in probe:
            bucket = index.get(tuple(pt[i] for i in probe_key))
            if bucket is None:
                misses += 1
                continue
            hits += 1
            if build_side == "right":
                for rt in bucket:
                    yield pt + tuple(rt[i] for i in right_private_idx)
            else:
                for lt in bucket:
                    yield lt + tuple(pt[i] for i in right_private_idx)

    result = Relation(out_attrs, indexed_rows())
    if stats is not None:
        stats.record(
            "natural_join",
            scanned=len(probe) + (len(build) if built else 0),
            probes=len(probe),
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=misses,
            emitted=len(result),
            seconds=perf_counter() - start,
            intermediate=len(result),
        )
    return result


def join_all(
    relations: Iterable[Relation],
    strategy: str | None = None,
    *,
    execution: str | None = None,
) -> Relation:
    """Natural join of a collection of relations.

    ``strategy`` combines a join *order* — which determines every
    intermediate-relation cardinality, though never the result — and a join
    *execution*; see :func:`repro.relational.planner.parse_strategy`.
    Orders (delegated to :func:`repro.relational.planner.order_relations`):

    * ``"greedy"`` (the default via :data:`DEFAULT_STRATEGY`) — cost-guided,
      smallest estimated intermediate first;
    * ``"smallest"`` — sort once by cardinality (the historical order);
    * ``"textbook"`` — join in the order given, the naive baseline.

    Executions: ``"indexed"`` (memoized hash indexes, the default),
    ``"scan"`` (nested loops), ``"wcoj"`` (the worst-case optimal
    leapfrog triejoin: the binary fold is replaced by one
    variable-at-a-time multi-way join over per-attribute sorted tries,
    materializing nothing but the output — see
    :mod:`repro.relational.wcoj`), and ``"columnar"`` (with numpy, the
    whole fold runs over int64 code-column matrices and decodes once at
    the boundary — see :mod:`repro.relational.columnar`); compound specs
    like ``"textbook+scan"`` fix both.  An explicit ``execution`` keyword
    overrides the spec.

    Joining the empty collection yields :meth:`Relation.unit`, the join
    identity, so ``join_all`` is a proper monoid fold.
    """
    order, spec_execution = parse_strategy(
        strategy, default_order=DEFAULT_STRATEGY, default_execution=DEFAULT_EXECUTION
    )
    execution = _resolve_execution(execution or spec_execution)
    pending = order_relations(relations, order)
    with span(
        "join_all", strategy=order, execution=execution, relations=len(pending)
    ) as sp:
        result = _join_all(pending, execution)
        if sp:
            sp.note(rows=len(result))
        return result


def _join_all(pending: Sequence[Relation], execution: str) -> Relation:
    if execution == "wcoj":
        # The worst-case optimal path is a single multi-way operator: the
        # planner's binary order is irrelevant (a global *variable* order
        # drives the enumeration) and no intermediate is materialized.
        from repro.relational.wcoj import leapfrog_join

        return leapfrog_join(pending)
    if execution == "columnar":
        from repro.relational.columnar import (
            ColumnarFallback,
            join_all_columnar,
            numpy_backend,
        )

        if numpy_backend() is not None:
            try:
                return join_all_columnar(pending)
            except ColumnarFallback:
                # The packed key space outgrew the 64-bit lane; the binary
                # columnar fold below probes with unbounded Python ints.
                pass
        # numpy absent (or fallen back): fold with the batched binary
        # operators — same result, per-join probing.
    result = Relation.unit()
    for rel in pending:
        result = natural_join(result, rel, execution=execution)
        if not result:
            # Early exit: a join with an empty intermediate stays empty.
            all_attrs = list(result.attributes)
            for other in pending:
                for a in other.attributes:
                    if a not in all_attrs:
                        all_attrs.append(a)
            return Relation.empty(all_attrs)
    return result


def semijoin(
    left: Relation, right: Relation, *, execution: str | None = None
) -> Relation:
    """The semijoin ``left ⋉ right``: rows of ``left`` that join with ``right``.

    This is the primitive of the Yannakakis algorithm for acyclic joins
    (discussed in Section 6 of the tutorial via [45]).  ``execution`` picks
    the physical operator: ``"indexed"`` probes ``right``'s memoized
    :meth:`Relation.index_on` hash index on the shared attributes — so a
    reducer used repeatedly (as in Yannakakis' two passes) pays for its
    index once — while ``"scan"`` re-scans ``right`` per row of ``left``.
    """
    execution = _resolve_execution(execution)
    with span("semijoin", execution=execution) as sp:
        result = _semijoin(left, right, execution)
        if sp:
            sp.note(rows=len(result))
        return result


def _semijoin(left: Relation, right: Relation, execution: str) -> Relation:
    if execution == "wcoj":
        from repro.relational.wcoj import trie_semijoin

        return trie_semijoin(left, right)
    if execution == "columnar":
        from repro.relational.columnar import batched_semijoin

        return batched_semijoin(left, right)
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    shared, _ = _shared_and_private(left, right)
    key = tuple(shared)
    left_key = [left.index_of(a) for a in key]

    if execution == "scan":
        right_key = [right.index_of(a) for a in key]
        examined = 0

        def scan_matches(lt: tuple[Any, ...]) -> bool:
            nonlocal examined
            for rt in right:
                examined += 1
                if all(lt[i] == rt[j] for i, j in zip(left_key, right_key)):
                    return True
            return False

        result = Relation(left.attributes, (t for t in left if scan_matches(t)))
        if stats is not None:
            stats.record(
                "semijoin",
                scanned=len(left) + examined,
                emitted=len(result),
                seconds=perf_counter() - start,
            )
        return result

    built = not right.has_index(key)
    index = right.index_on(key)
    hits = misses = 0

    def indexed_matches(lt: tuple[Any, ...]) -> bool:
        nonlocal hits, misses
        if tuple(lt[i] for i in left_key) in index:
            hits += 1
            return True
        misses += 1
        return False

    result = Relation(left.attributes, (t for t in left if indexed_matches(t)))
    if stats is not None:
        stats.record(
            "semijoin",
            scanned=len(left) + (len(right) if built else 0),
            probes=len(left),
            index_builds=1 if built else 0,
            index_hits=hits,
            probe_misses=misses,
            emitted=len(result),
            seconds=perf_counter() - start,
        )
    return result


def _require_same_scheme(left: Relation, right: Relation, op: str) -> None:
    if left.attributes != right.attributes:
        raise SchemaError(
            f"{op} requires identical schemes, got "
            f"{left.attributes!r} and {right.attributes!r}"
        )


def union(left: Relation, right: Relation) -> Relation:
    """Set union of two relations over the same scheme."""
    _require_same_scheme(left, right, "union")
    return Relation(left.attributes, left.tuples | right.tuples)


def intersection(left: Relation, right: Relation) -> Relation:
    """Set intersection of two relations over the same scheme."""
    _require_same_scheme(left, right, "intersection")
    return Relation(left.attributes, left.tuples & right.tuples)


def difference(left: Relation, right: Relation) -> Relation:
    """Set difference ``left - right`` of two relations over the same scheme."""
    _require_same_scheme(left, right, "difference")
    return Relation(left.attributes, left.tuples - right.tuples)


def product(left: Relation, right: Relation) -> Relation:
    """Cartesian product; the schemes must be disjoint."""
    overlap = set(left.attributes) & set(right.attributes)
    if overlap:
        raise SchemaError(f"product requires disjoint schemes, shared: {sorted(overlap)!r}")
    return natural_join(left, right)


def division(left: Relation, right: Relation) -> Relation:
    """Relational division ``left ÷ right``: the tuples over the attributes
    of ``left`` *not* in ``right`` that pair with **every** tuple of
    ``right`` inside ``left`` — the algebra's universal quantifier.

    ``right``'s attributes must be a proper subset of ``left``'s.
    """
    right_attrs = set(right.attributes)
    left_attrs = set(left.attributes)
    if not right_attrs < left_attrs:
        raise SchemaError(
            "division requires the divisor scheme to be a proper subset of "
            f"the dividend scheme; got {right.attributes!r} vs {left.attributes!r}"
        )
    quotient_attrs = tuple(a for a in left.attributes if a not in right_attrs)

    candidates = project(left, quotient_attrs)
    # A candidate survives iff {candidate} × right ⊆ left: compute the
    # required combinations, remove those present, and drop any candidate
    # with a missing combination.
    required = project(natural_join(candidates, right), left.attributes)
    missing = difference(required, left)
    bad = project(missing, quotient_attrs)
    return difference(candidates, bad)
