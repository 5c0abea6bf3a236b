"""Micro-benchmarks guarding the columnar physical layer.

The columnar execution's perf claim rides on **E1-shaped joins** — a
selective three-way chain join (the Proposition 2.1 join-evaluation shape
at database scale).  The columnar fold packs both sides' keys and resolves
every probe with one ``searchsorted`` sweep, where the ``indexed`` fold
walks a Python loop per probe row.  The guard asserts the columnar
execution wins wall-clock on the warm (stores/indexes memoized) pipeline —
measured ≈3× here.

The guard requires numpy (the vectorized backend); without it the columnar
kernels run their stdlib fallbacks, which match results but not
wall-clock, so the ratio assertion skips and only the parity check runs.
"""

import random
import time
from functools import lru_cache

import pytest

from repro.relational.algebra import join_all
from repro.relational.columnar import numpy_backend
from repro.relational.relation import Relation
from repro.relational.stats import collect_stats

# -- E1-shaped join workload --------------------------------------------------
# A selective chain: |R ⋈ S ⋈ T| ≈ n³/dom² ≪ n, so the probe sweep (not the
# output materialization, which both executions pay identically) dominates.
JOIN_N = 20_000
JOIN_DOM = 40_000


def _chain_relations(seed: int = 0) -> list[Relation]:
    rng = random.Random(seed)

    def rel(attrs):
        return Relation(
            attrs,
            {
                (rng.randrange(JOIN_DOM), rng.randrange(JOIN_DOM))
                for _ in range(JOIN_N)
            },
        )

    return [rel(("a", "b")), rel(("b", "c")), rel(("c", "d"))]


@lru_cache(maxsize=1)
def _join_workload() -> list[Relation]:
    return _chain_relations()


def _best_of(fn, rounds=9):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- parity (always runs, numpy or not) ---------------------------------------


def test_columnar_matches_row_oracles_on_the_join_workload():
    """The honesty floor under the ratio below: identical join relations,
    with the columnar counters actually moving (so the ratio compares the
    kernels it claims to compare)."""
    rels = _join_workload()
    expected = join_all(rels, execution="indexed")
    with collect_stats() as stats:
        got = join_all(rels, execution="columnar")
    assert got == expected
    if numpy_backend() is not None:
        assert stats.batch_probes > 0
        assert stats.operator_counts.get("columnar_decode") == 1


# -- E1-shaped join ratios -----------------------------------------------------


@pytest.mark.benchmark(group="micro columnar: E1 chain join")
@pytest.mark.parametrize("execution", ["indexed", "columnar"])
def test_micro_e1_chain_join(benchmark, execution):
    rels = _join_workload()
    join_all(rels, execution=execution)  # warm stores/indexes
    result = benchmark(lambda: join_all(rels, execution=execution))
    assert len(result) > 0


def test_micro_columnar_join_beats_indexed_on_e1_chain():
    """In-run guard: on the warm E1-shaped chain the columnar fold beats
    the indexed fold wall-clock (measured ≈3×; asserted ≥1.5× to absorb
    scheduler noise)."""
    if numpy_backend() is None:
        pytest.skip("wall-clock ratio requires the numpy backend")
    rels = _join_workload()
    for execution in ("indexed", "columnar"):
        join_all(rels, execution=execution)  # warm both pipelines
    indexed = _best_of(lambda: join_all(rels, execution="indexed"), rounds=5)
    columnar = _best_of(lambda: join_all(rels, execution="columnar"), rounds=5)
    assert columnar * 1.5 < indexed, (
        f"columnar join ratio collapsed on the E1 chain: "
        f"{columnar * 1e3:.1f}ms vs indexed {indexed * 1e3:.1f}ms "
        f"({indexed / columnar:.2f}x)"
    )
