"""Worst-case optimal multi-way join: leapfrog triejoin (Veldhuizen 2014).

Pairwise join plans are provably suboptimal on *cyclic* query bodies: on the
triangle query ``Q(x,y,z) :- E(x,y), E(y,z), E(z,x)`` every binary join
materializes an intermediate of size Θ(|E|²) in the worst case, while the
AGM/fractional-edge-cover bound (Atserias–Grohe–Marx; surveyed in Marx,
*Modern Lower Bound Techniques in Database Theory and Constraint
Satisfaction*) caps the output at O(|E|^{3/2}).  The planner in
:mod:`repro.relational.planner` can only *reorder* binary joins, never avoid
the blow-up; this module avoids it by joining **variable at a time** instead
of relation at a time.

The algorithm is Veldhuizen's leapfrog triejoin:

* each relation's rows are interned to dense int codes (one shared
  :class:`~repro.relational.interning.Codec` per join, so heterogeneous
  values become mutually comparable small ints) and sorted into a
  **per-attribute trie** — a sorted row array walked level by level, one
  level per attribute in the global variable order, with ``seek()``
  implemented by bisection (:class:`TrieRelation` / :class:`TrieCursor`);
* for each variable in turn, the trie cursors of every relation containing
  that variable run a **leapfrog intersection** (:class:`Leapfrog`): the
  cursors chase each other's keys with ``seek()``, emitting exactly the
  values present in *all* of them, in ascending code order;
* matched values are bound and the enumeration recurses into the next
  variable; only full bindings are materialized, and codes are decoded back
  to values only at the output boundary.

No intermediate relation is ever materialized — the only join result is the
output itself, which is what the E5-cyclic benchmark family asserts against
the pairwise executions.  The work is counted in three
:class:`~repro.relational.stats.EvalStats` counters: ``trie_builds`` (sorted
tries constructed), ``seeks`` (cursor ``seek``/``next`` operations — each one
a bisection), and ``leapfrog_rounds`` (iterations of the leapfrog chase).

The global variable order is chosen by :func:`variable_order`, the
maximum-cardinality-search heuristic of the homomorphism searcher's
``_connectivity_order`` lifted to schemes: start from the attribute in the
most atoms, then repeatedly take the attribute sharing the most atoms with
those already ordered.  The *result* is order-invariant (checked by
hypothesis in ``tests/relational/test_wcoj.py``); only the work changes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Any, Iterable, Sequence

from repro.errors import SchemaError, VocabularyError
from repro.relational.relation import Relation
from repro.relational.stats import current_stats
from repro.telemetry.spans import span

__all__ = [
    "ArrayCursor",
    "TrieCursor",
    "TrieRelation",
    "Leapfrog",
    "leapfrog_intersect",
    "variable_order",
    "leapfrog_join",
    "leapfrog_natural_join",
    "trie_semijoin",
]


class _Counters:
    """Per-join work counters, folded into EvalStats once at the boundary."""

    __slots__ = ("seeks", "rounds", "tries")

    def __init__(self) -> None:
        self.seeks = 0
        self.rounds = 0
        self.tries = 0


class ArrayCursor:
    """A linear iterator with ``seek()`` over one sorted array — the unary
    cursor of Veldhuizen's leapfrog join.

    The contract every leapfrog participant obeys:

    * ``key()`` — the current element (undefined once ``at_end``);
    * ``next()`` — advance to the next element;
    * ``seek(target)`` — advance to the **least element ≥ target**; the
      caller guarantees ``target >= key()``, so the cursor only moves
      forward and each seek is one bisection of the remaining suffix.
    """

    __slots__ = ("_values", "_pos", "at_end")

    def __init__(self, values: Sequence[int]):
        self._values = list(values)
        self._pos = 0
        self.at_end = not self._values

    def key(self) -> int:
        return self._values[self._pos]

    def next(self) -> None:
        self._pos += 1
        if self._pos >= len(self._values):
            self.at_end = True

    def seek(self, target: int) -> None:
        self._pos = bisect_left(self._values, target, self._pos)
        if self._pos >= len(self._values):
            self.at_end = True


class TrieCursor:
    """A cursor over a :class:`TrieRelation`: the sorted row array walked as
    a trie, one level per attribute.

    ``open()`` descends into the children of the current node (at the root,
    the whole relation), ``up()`` returns to the parent, and within one open
    level the cursor obeys the :class:`ArrayCursor` contract — ``key()``,
    ``next()``, ``seek()`` over the *distinct* values of that level under
    the current prefix, in ascending code order.  All navigation is
    bisection over the level's column array restricted to the parent's row
    range, so a trie is never materialized as nodes — it *is* the sorted
    array plus a stack of ``(lo, hi, pos)`` ranges.
    """

    __slots__ = ("_cols", "_size", "_stack", "_counters", "at_end")

    def __init__(self, cols: Sequence[Sequence[int]], size: int, counters: _Counters | None = None):
        self._cols = cols
        self._size = size
        # One (lo, hi, pos) frame per open level: the parent's row range and
        # the current row position (whose level value is the cursor's key).
        self._stack: list[list[int]] = []
        self._counters = counters
        self.at_end = False

    @property
    def depth(self) -> int:
        """Number of open levels (0 at the root)."""
        return len(self._stack)

    def open(self) -> None:
        """Descend to the first (least) child value of the current node."""
        if not self._stack:
            lo, hi = 0, self._size
        else:
            d = len(self._stack) - 1
            _, parent_hi, pos = self._stack[-1]
            col = self._cols[d]
            lo = pos
            hi = bisect_right(col, col[pos], pos, parent_hi)
        self._stack.append([lo, hi, lo])
        self.at_end = lo >= hi

    def up(self) -> None:
        """Return to the parent node (its key is unchanged)."""
        self._stack.pop()
        self.at_end = False

    def key(self) -> int:
        frame = self._stack[-1]
        return self._cols[len(self._stack) - 1][frame[2]]

    def next(self) -> None:
        """Advance to the next distinct value at this level."""
        frame = self._stack[-1]
        col = self._cols[len(self._stack) - 1]
        pos = bisect_right(col, col[frame[2]], frame[2], frame[1])
        if self._counters is not None:
            self._counters.seeks += 1
        if pos >= frame[1]:
            self.at_end = True
        else:
            frame[2] = pos

    def seek(self, target: int) -> None:
        """Advance to the least value ≥ ``target`` at this level."""
        frame = self._stack[-1]
        col = self._cols[len(self._stack) - 1]
        pos = bisect_left(col, target, frame[2], frame[1])
        if self._counters is not None:
            self._counters.seeks += 1
        if pos >= frame[1]:
            self.at_end = True
        else:
            frame[2] = pos


class TrieRelation:
    """A relation's rows sorted into per-attribute trie form.

    ``attributes`` is the scheme of the (already interned) ``rows``;
    ``levels`` names the trie's levels, outermost first — for a multi-way
    join this is the relation's scheme restricted to the global variable
    order.  A level attribute absent from the scheme raises
    :class:`~repro.errors.VocabularyError` naming the attribute and the
    scheme (the ``index_of`` convention).  Rows are *projected* onto the
    levels and deduplicated, so a trie over a key subset (semijoin probes)
    is exactly the distinct-key trie.
    """

    __slots__ = ("levels", "size", "cols")

    def __init__(
        self,
        attributes: Sequence[str],
        rows: Iterable[Sequence[int]],
        levels: Sequence[str],
        counters: _Counters | None = None,
    ):
        attrs = tuple(attributes)
        positions = []
        for a in levels:
            try:
                positions.append(attrs.index(a))
            except ValueError:
                raise VocabularyError(
                    f"attribute {a!r} not in scheme {attrs!r}"
                ) from None
        keys = sorted({tuple(row[p] for p in positions) for row in rows})
        self.levels = tuple(levels)
        self.size = len(keys)
        self.cols: list[list[int]] = [
            [k[d] for k in keys] for d in range(len(positions))
        ]
        if counters is not None:
            counters.tries += 1

    def cursor(self, counters: _Counters | None = None) -> TrieCursor:
        return TrieCursor(self.cols, self.size, counters)


class Leapfrog:
    """Leapfrog intersection of ``k`` unary cursors (Veldhuizen, Alg. 1).

    After construction (and after each successful :meth:`next`) either
    ``at_end`` is true or every cursor is positioned at the same key — the
    next element of the intersection, read with :meth:`key`.  The chase is
    the classic one: cursors are kept sorted by key; the smallest repeatedly
    ``seek``\\ s to the current maximum until all keys agree.
    """

    __slots__ = ("_cursors", "_p", "_counters", "at_end")

    def __init__(self, cursors: Sequence[Any], counters: _Counters | None = None):
        self._cursors = list(cursors)
        self._counters = counters
        self.at_end = not self._cursors or any(c.at_end for c in self._cursors)
        if not self.at_end:
            self._cursors.sort(key=lambda c: c.key())
            self._p = 0
            self._search()

    def _search(self) -> None:
        cursors = self._cursors
        k = len(cursors)
        max_key = cursors[self._p - 1].key()  # -1 wraps: the largest key
        while True:
            if self._counters is not None:
                self._counters.rounds += 1
            cursor = cursors[self._p]
            if cursor.key() == max_key:
                return  # all k cursors agree on max_key
            cursor.seek(max_key)
            if cursor.at_end:
                self.at_end = True
                return
            max_key = cursor.key()
            self._p = (self._p + 1) % k

    def key(self) -> int:
        return self._cursors[self._p].key()

    def next(self) -> None:
        """Advance past the current match to the next one (or ``at_end``)."""
        cursor = self._cursors[self._p]
        cursor.next()
        if cursor.at_end:
            self.at_end = True
        else:
            self._p = (self._p + 1) % len(self._cursors)
            self._search()


def leapfrog_intersect(arrays: Sequence[Sequence[int]]) -> list[int]:
    """The intersection of sorted arrays by leapfrog chase — the unit-size
    specification of the join: equals ``set.intersection`` on every input
    (hypothesis-checked in ``tests/relational/test_wcoj.py``).
    """
    lf = Leapfrog([ArrayCursor(a) for a in arrays])
    out: list[int] = []
    while not lf.at_end:
        out.append(lf.key())
        lf.next()
    return out


def variable_order(relations: Sequence[Relation]) -> tuple[str, ...]:
    """A connectivity/degree-guided global variable order for the leapfrog
    enumeration.

    Maximum-cardinality search over the body's attributes (the
    ``_connectivity_order`` heuristic of the homomorphism searcher lifted to
    schemes): start from the attribute occurring in the most relations, then
    repeatedly take the attribute sharing the most *already-placed*
    relations, breaking ties by total degree and then name — so consecutive
    variables stay connected and each new binding is constrained by as many
    open tries as possible.  Deterministic for a fixed input.
    """
    rels_of: dict[str, list[int]] = {}
    for i, rel in enumerate(relations):
        for a in rel.attributes:
            rels_of.setdefault(a, []).append(i)
    remaining = set(rels_of)
    shared = {a: 0 for a in remaining}
    placed: set[int] = set()
    order: list[str] = []
    while remaining:
        v = min(remaining, key=lambda a: (-shared[a], -len(rels_of[a]), a))
        remaining.discard(v)
        order.append(v)
        for i in rels_of[v]:
            if i in placed:
                continue
            placed.add(i)
            for a in relations[i].attributes:
                if a in remaining:
                    shared[a] += 1
    return tuple(order)


def _shared_codec(relations: Sequence[Relation]):
    """One codec over the union of the operands' active domains, plus the
    identity fast path: a universe that is already
    the dense ints ``0..n-1`` interns to itself, so both boundary passes
    can be skipped."""
    from repro.relational.interning import Codec

    codec = Codec(v for rel in relations for t in rel for v in t)
    identity = all(type(v) is int and v == i for i, v in enumerate(codec.values))
    return codec, identity


def leapfrog_join(
    relations: Iterable[Relation],
    *,
    out_attributes: Sequence[str] | None = None,
    order: Sequence[str] | None = None,
    limit: int | None = None,
) -> Relation:
    """The natural join of ``relations`` by leapfrog triejoin.

    ``order`` fixes the global variable order (default:
    :func:`variable_order`); it must cover every attribute.
    ``out_attributes`` fixes the output scheme (default: the variable
    order); it must be a permutation of the attribute union.  ``limit``
    stops the enumeration after that many output rows — ``limit=1`` decides
    Boolean queries without enumerating the whole result.

    The result is identical to ``join_all`` under every other execution
    (pinned by the differential matrices); only the work differs: no
    intermediate relation is materialized, and the EvalStats trace records
    ``trie_builds``/``seeks``/``leapfrog_rounds`` instead of per-binary-join
    intermediates.
    """
    with span("leapfrog_join") as sp:
        result = _leapfrog_join(relations, out_attributes, order, limit)
        if sp:
            sp.note(rows=len(result))
        return result


def _leapfrog_join(
    relations: Iterable[Relation],
    out_attributes: Sequence[str] | None,
    order: Sequence[str] | None,
    limit: int | None,
) -> Relation:
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    rels = list(relations)
    if not rels:
        return Relation.unit()

    union: list[str] = []
    seen: set[str] = set()
    for rel in rels:
        for a in rel.attributes:
            if a not in seen:
                seen.add(a)
                union.append(a)
    if order is None:
        var_order = variable_order(rels)
    else:
        var_order = tuple(order)
        if set(var_order) != seen or len(var_order) != len(seen):
            raise SchemaError(
                f"variable order {var_order!r} is not a permutation of the "
                f"joined attributes {tuple(sorted(seen))!r}"
            )
    if out_attributes is None:
        out_attrs = var_order
    else:
        out_attrs = tuple(out_attributes)
        if set(out_attrs) != seen or len(out_attrs) != len(seen):
            raise SchemaError(
                f"output scheme {out_attrs!r} is not a permutation of the "
                f"joined attributes {tuple(sorted(seen))!r}"
            )

    counters = _Counters()
    scanned = 0

    def finish(rows: Iterable[tuple]) -> Relation:
        result = Relation(out_attrs, rows)
        if stats is not None:
            stats.record(
                "leapfrog_join",
                scanned=scanned,
                emitted=len(result),
                trie_builds=counters.tries,
                seeks=counters.seeks,
                leapfrog_rounds=counters.rounds,
                intern_tables=1 if counters.tries else 0,
                seconds=perf_counter() - start,
                intermediate=len(result),
            )
        return result

    if any(not rel for rel in rels):
        return finish(())

    scanned = sum(len(rel) for rel in rels)
    codec, identity = _shared_codec(rels)

    # Per-relation tries; a nullary (and nonempty) relation is the join
    # identity and simply does not participate.
    tries: list[tuple[TrieRelation, TrieCursor]] = []
    for rel in rels:
        if not rel.attributes:
            continue
        rows = rel.tuples if identity else (codec.encode_row(t) for t in rel)
        trie = TrieRelation(
            rel.attributes,
            rows,
            [a for a in var_order if a in rel.attributes],
            counters,
        )
        tries.append((trie, trie.cursor(counters)))

    participants: list[list[TrieCursor]] = [
        [cursor for trie, cursor in tries if v in trie.levels] for v in var_order
    ]
    n_vars = len(var_order)
    out_positions = [var_order.index(a) for a in out_attrs]
    binding: list[int] = [0] * n_vars
    out_rows: list[tuple] = []
    values = codec.values

    def emit() -> bool:
        if identity:
            row = tuple(binding[p] for p in out_positions)
        else:
            row = tuple(values[binding[p]] for p in out_positions)
        out_rows.append(row)
        return limit is not None and len(out_rows) >= limit

    if n_vars == 0:
        # Every operand is the nullary unit: the join is the unit.
        out_rows.append(())
        return finish(out_rows)

    def enumerate_level(level: int) -> bool:
        cursors = participants[level]
        for c in cursors:
            c.open()
        lf = Leapfrog(cursors, counters)
        stop = False
        while not lf.at_end:
            binding[level] = lf.key()
            if level == n_vars - 1:
                stop = emit()
            else:
                stop = enumerate_level(level + 1)
            if stop:
                break
            lf.next()
        for c in cursors:
            c.up()
        return stop

    enumerate_level(0)
    return finish(out_rows)


def leapfrog_natural_join(left: Relation, right: Relation) -> Relation:
    """Binary :func:`leapfrog_join` with the binary operators' output scheme
    (``left``'s attributes followed by ``right``'s private ones), so
    ``execution="wcoj"`` slots into :func:`repro.relational.algebra.natural_join`.
    """
    left_set = set(left.attributes)
    out_attrs = left.attributes + tuple(
        a for a in right.attributes if a not in left_set
    )
    return leapfrog_join([left, right], out_attributes=out_attrs)


def trie_semijoin(left: Relation, right: Relation) -> Relation:
    """The semijoin ``left ⋉ right`` by trie probes.

    ``right`` is projected onto the canonical (sorted) shared key and sorted
    into a :class:`TrieRelation`; each ``left`` row walks the trie one level
    at a time with a bisection per level (counted as a ``seek``).  A probe
    value outside ``right``'s interned universe cannot match and misses
    immediately.  With an empty shared key the trie has one empty row iff
    ``right`` is nonempty — the degenerate semijoin semantics.
    """
    with span("trie_semijoin") as sp:
        result = _trie_semijoin(left, right)
        if sp:
            sp.note(rows=len(result))
        return result


def _trie_semijoin(left: Relation, right: Relation) -> Relation:
    stats = current_stats()
    start = perf_counter() if stats is not None else 0.0
    left_set = set(left.attributes)
    key = tuple(sorted(a for a in right.attributes if a in left_set))
    left_key = [left.index_of(a) for a in key]

    from repro.relational.interning import Codec

    counters = _Counters()
    right_key = [right.index_of(a) for a in key]
    codec = Codec(t[i] for t in right for i in right_key)
    codes = codec.code_map  # value → code; an absent value cannot match
    trie = TrieRelation(
        key,
        (tuple(codes[t[i]] for i in right_key) for t in right),
        key,
        counters,
    )
    cols, size = trie.cols, trie.size
    hits = misses = 0

    def matches(row: tuple) -> bool:
        nonlocal hits, misses
        lo, hi = 0, size
        for d, i in enumerate(left_key):
            code = codes.get(row[i])
            if code is None:
                misses += 1
                return False
            col = cols[d]
            pos = bisect_left(col, code, lo, hi)
            counters.seeks += 1
            if pos >= hi or col[pos] != code:
                misses += 1
                return False
            lo = pos
            hi = bisect_right(col, code, pos, hi)
        hits += 1
        return True

    if size == 0:
        result = Relation(left.attributes, ())
        misses = len(left)
    else:
        result = Relation(left.attributes, (t for t in left if matches(t)))
    if stats is not None:
        stats.record(
            "semijoin",
            scanned=len(left) + len(right),
            probes=len(left),
            index_hits=hits,
            probe_misses=misses,
            emitted=len(result),
            trie_builds=counters.tries,
            seeks=counters.seeks,
            intern_tables=1,
            seconds=perf_counter() - start,
        )
    return result
