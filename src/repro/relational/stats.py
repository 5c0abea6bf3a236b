"""Execution statistics for the relational algebra — the observability layer.

Marx (*Modern Lower Bound Techniques in Database Theory and Constraint
Satisfaction*, 2022) identifies the **intermediate-relation cardinality** as
the quantity that governs join cost; this module makes it observable.  An
:class:`EvalStats` object accumulates, per algebra operator:

* ``tuples_scanned`` — rows read from operand relations,
* ``hash_probes`` — lookups into a join's hash index,
* ``index_builds`` — hash indexes actually built (a memoized
  :meth:`~repro.relational.relation.Relation.index_on` hit builds nothing),
* ``index_hits`` / ``probe_misses`` — probes that found / did not find a
  matching key in the index,
* ``tuples_emitted`` — rows produced,
* ``intern_tables`` / ``bitset_words`` / ``mask_ops`` — code-space
  execution work (``columnar``, ``wcoj``): codec + code-index builds,
  64-bit words held by packed structures, and word-level membership
  operations,
* ``codec_cache_hits`` — fold codecs served from the memo of
  :func:`repro.relational.interning.fold_codec` (each hit is a repr-sort
  of the fold's shared universe that did *not* run),
* ``seeks`` / ``leapfrog_rounds`` / ``trie_builds`` — worst-case-optimal
  join work: trie-cursor seek/next bisections, leapfrog-chase iterations,
  and sorted tries constructed (see :mod:`repro.relational.wcoj`),
* ``column_builds`` / ``batch_probes`` — columnar-execution work: lazy
  struct-of-arrays column stores actually built (a memoized hit builds
  nothing), and probe keys swept in batched column lookups (see
  :mod:`repro.relational.columnar`),
* ``intermediate_sizes`` — the cardinality of every join result, in order,
* per-operator invocation counts and wall-clock seconds.

Collection is scoped with the :func:`collect_stats` context manager, which
installs the stats object in a :class:`contextvars.ContextVar` — so nothing
leaks between queries, threads, or async tasks, and the algebra pays a
single ``ContextVar.get`` per operator call when tracing is off.

>>> from repro.relational.algebra import natural_join
>>> from repro.relational.relation import Relation
>>> r = Relation(("x", "y"), [(1, 2)]); s = Relation(("y", "z"), [(2, 3)])
>>> with collect_stats() as stats:
...     _ = natural_join(r, s)
>>> stats.tuples_emitted
1
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["EvalStats", "collect_stats", "current_stats"]


@dataclass
class EvalStats:
    """Mutable accumulator of evaluation counters.

    Counters only ever grow while an evaluation runs (they are *monotone*):
    the stats of a composite evaluation equal the merge of the stats of its
    parts.  A fresh instance has every counter at zero.
    """

    tuples_scanned: int = 0
    hash_probes: int = 0
    index_builds: int = 0
    index_hits: int = 0
    probe_misses: int = 0
    tuples_emitted: int = 0
    intern_tables: int = 0
    codec_cache_hits: int = 0
    bitset_words: int = 0
    mask_ops: int = 0
    seeks: int = 0
    leapfrog_rounds: int = 0
    trie_builds: int = 0
    column_builds: int = 0
    batch_probes: int = 0
    intermediate_sizes: list[int] = field(default_factory=list)
    operator_counts: dict[str, int] = field(default_factory=dict)
    operator_seconds: dict[str, float] = field(default_factory=dict)
    routing_decisions: list[dict] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def record(
        self,
        operator: str,
        *,
        scanned: int = 0,
        probes: int = 0,
        index_builds: int = 0,
        index_hits: int = 0,
        probe_misses: int = 0,
        emitted: int = 0,
        intern_tables: int = 0,
        codec_cache_hits: int = 0,
        bitset_words: int = 0,
        mask_ops: int = 0,
        seeks: int = 0,
        leapfrog_rounds: int = 0,
        trie_builds: int = 0,
        column_builds: int = 0,
        batch_probes: int = 0,
        seconds: float = 0.0,
        intermediate: int | None = None,
    ) -> None:
        """Record one operator invocation (called by the algebra)."""
        self.tuples_scanned += scanned
        self.hash_probes += probes
        self.index_builds += index_builds
        self.index_hits += index_hits
        self.probe_misses += probe_misses
        self.tuples_emitted += emitted
        self.intern_tables += intern_tables
        self.codec_cache_hits += codec_cache_hits
        self.bitset_words += bitset_words
        self.mask_ops += mask_ops
        self.seeks += seeks
        self.leapfrog_rounds += leapfrog_rounds
        self.trie_builds += trie_builds
        self.column_builds += column_builds
        self.batch_probes += batch_probes
        self.operator_counts[operator] = self.operator_counts.get(operator, 0) + 1
        self.operator_seconds[operator] = (
            self.operator_seconds.get(operator, 0.0) + seconds
        )
        if intermediate is not None:
            self.intermediate_sizes.append(intermediate)

    def record_routing(
        self, query: str, route: str, *, acyclic: bool, signal: str
    ) -> None:
        """Record one ``strategy="auto"`` routing decision.

        ``route`` is the execution path taken (``"yannakakis"`` or
        ``"wcoj"``), ``acyclic`` the width signal's verdict, and ``signal``
        names the structural test that drove the choice (the GYO-style
        join-tree construction — acyclicity is exactly "generalized
        hypertree width 1").
        """
        self.routing_decisions.append(
            {"query": query, "route": route, "acyclic": acyclic, "signal": signal}
        )

    def merge(self, other: "EvalStats") -> "EvalStats":
        """Fold ``other``'s counters into this object (in place) and return it.

        Merging is the composition law: counters add, intermediate sizes
        concatenate — so stats are monotone under composition.
        """
        self.tuples_scanned += other.tuples_scanned
        self.hash_probes += other.hash_probes
        self.index_builds += other.index_builds
        self.index_hits += other.index_hits
        self.probe_misses += other.probe_misses
        self.tuples_emitted += other.tuples_emitted
        self.intern_tables += other.intern_tables
        self.codec_cache_hits += other.codec_cache_hits
        self.bitset_words += other.bitset_words
        self.mask_ops += other.mask_ops
        self.seeks += other.seeks
        self.leapfrog_rounds += other.leapfrog_rounds
        self.trie_builds += other.trie_builds
        self.column_builds += other.column_builds
        self.batch_probes += other.batch_probes
        self.intermediate_sizes.extend(other.intermediate_sizes)
        self.routing_decisions.extend(other.routing_decisions)
        for op, n in other.operator_counts.items():
            self.operator_counts[op] = self.operator_counts.get(op, 0) + n
        for op, s in other.operator_seconds.items():
            self.operator_seconds[op] = self.operator_seconds.get(op, 0.0) + s
        return self

    def reset(self) -> None:
        """Zero every counter, returning the object to its freshly-built state."""
        self.tuples_scanned = 0
        self.hash_probes = 0
        self.index_builds = 0
        self.index_hits = 0
        self.probe_misses = 0
        self.tuples_emitted = 0
        self.intern_tables = 0
        self.codec_cache_hits = 0
        self.bitset_words = 0
        self.mask_ops = 0
        self.seeks = 0
        self.leapfrog_rounds = 0
        self.trie_builds = 0
        self.column_builds = 0
        self.batch_probes = 0
        self.intermediate_sizes = []
        self.operator_counts = {}
        self.operator_seconds = {}
        self.routing_decisions = []

    # -- derived views -----------------------------------------------------

    @property
    def max_intermediate(self) -> int:
        """Largest join-result cardinality seen (0 if no join ran)."""
        return max(self.intermediate_sizes, default=0)

    @property
    def total_intermediate(self) -> int:
        """Sum of all join-result cardinalities (total materialized rows)."""
        return sum(self.intermediate_sizes)

    @property
    def joins(self) -> int:
        """Number of binary natural joins executed."""
        return self.operator_counts.get("natural_join", 0)

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock time spent inside traced operators."""
        return sum(self.operator_seconds.values())

    def as_dict(self) -> dict:
        """A plain-dict snapshot (for JSON output and EXPERIMENTS tables)."""
        return {
            "tuples_scanned": self.tuples_scanned,
            "hash_probes": self.hash_probes,
            "index_builds": self.index_builds,
            "index_hits": self.index_hits,
            "probe_misses": self.probe_misses,
            "tuples_emitted": self.tuples_emitted,
            "intern_tables": self.intern_tables,
            "codec_cache_hits": self.codec_cache_hits,
            "bitset_words": self.bitset_words,
            "mask_ops": self.mask_ops,
            "seeks": self.seeks,
            "leapfrog_rounds": self.leapfrog_rounds,
            "trie_builds": self.trie_builds,
            "column_builds": self.column_builds,
            "batch_probes": self.batch_probes,
            "joins": self.joins,
            "max_intermediate": self.max_intermediate,
            "total_intermediate": self.total_intermediate,
            "intermediate_sizes": list(self.intermediate_sizes),
            "operator_counts": dict(self.operator_counts),
            "operator_seconds": dict(self.operator_seconds),
            "routing_decisions": [dict(d) for d in self.routing_decisions],
            "wall_seconds": self.wall_seconds,
        }

    def summary(self) -> str:
        """A short human-readable report (used by ``python -m repro stats``)."""
        lines = [
            f"tuples scanned      {self.tuples_scanned}",
            f"hash probes         {self.hash_probes}",
            f"index builds        {self.index_builds}",
            f"index hits          {self.index_hits}",
            f"probe misses        {self.probe_misses}",
            f"tuples emitted      {self.tuples_emitted}",
            f"intern tables       {self.intern_tables}",
            f"codec cache hits    {self.codec_cache_hits}",
            f"bitset words        {self.bitset_words}",
            f"mask ops            {self.mask_ops}",
            f"seeks               {self.seeks}",
            f"leapfrog rounds     {self.leapfrog_rounds}",
            f"trie builds         {self.trie_builds}",
            f"column builds       {self.column_builds}",
            f"batch probes        {self.batch_probes}",
            f"joins               {self.joins}",
            f"max intermediate    {self.max_intermediate}",
            f"total intermediate  {self.total_intermediate}",
            f"wall seconds        {self.wall_seconds:.6f}",
        ]
        for op in sorted(self.operator_counts):
            lines.append(
                f"  {op:<17} ×{self.operator_counts[op]:<6}"
                f" {self.operator_seconds.get(op, 0.0):.6f}s"
            )
        for d in self.routing_decisions:
            lines.append(
                f"  route {d['query']:<12} -> {d['route']}"
                f" (acyclic={d['acyclic']}, signal={d['signal']})"
            )
        return "\n".join(lines)


# The active stats object.  A ContextVar (rather than a module global) keeps
# concurrent queries — threads, asyncio tasks — from seeing each other's
# counters, and makes `collect_stats` re-entrant.
_ACTIVE: ContextVar[EvalStats | None] = ContextVar("repro_eval_stats", default=None)


def current_stats() -> EvalStats | None:
    """The stats object of the innermost active :func:`collect_stats`, if any."""
    return _ACTIVE.get()


@contextmanager
def collect_stats(stats: EvalStats | None = None) -> Iterator[EvalStats]:
    """Collect algebra statistics for the duration of the ``with`` block.

    Nested blocks shadow outer ones: operations inside the inner block are
    charged to the inner stats object only, so two queries traced separately
    never contaminate each other.

    >>> with collect_stats() as outer:
    ...     with collect_stats() as inner:
    ...         pass
    >>> outer is not inner
    True
    """
    if stats is None:
        stats = EvalStats()
    token = _ACTIVE.set(stats)
    try:
        yield stats
    finally:
        _ACTIVE.reset(token)
