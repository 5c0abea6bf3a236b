"""Micro-benchmarks guarding the columnar physical layer.

Two workload families carry the columnar execution's perf claims, each with
an in-run ratio assertion against the fastest row-at-a-time alternative:

* **E1-shaped joins** — a selective three-way chain join (the Proposition
  2.1 join-evaluation shape at database scale).  The columnar fold packs
  both sides' keys and resolves every probe with one ``searchsorted``
  sweep, where the ``indexed`` fold walks a Python loop per probe row.
  The guard asserts the columnar execution wins wall-clock on the warm
  (stores/indexes memoized) pipeline — measured ≈3× here.

* **dense-AC revisions (E4's dense regime)** — arc-consistency propagation
  on dense large-domain instances, engines prebuilt as MAC/SAC reuse them
  (one engine serves thousands of propagations in search, so construction
  amortizes away; ``bench_e4_consistency.py`` covers the cold path).  A
  bitset revision walks candidate values one at a time; the columnar
  constraint answers all of them with one packed byte-matrix sweep.  The
  guard asserts **≥5× wall-clock** over the ``interned`` bitset
  propagation engine — measured ≈7–8× on this family.

Both guards require numpy (the vectorized backend); without it the
columnar kernels run their stdlib fallbacks, which match results but not
wall-clock, so the ratio assertions skip and only the parity checks run.
"""

import random
import time
from functools import lru_cache

import pytest

from repro.consistency.propagation import PropagationStats, make_engine
from repro.generators.csp_random import random_binary_csp
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


# -- dense-AC workload (E4's dense regime) ------------------------------------
DENSE_INSTANCES_SPEC = [(384, 0), (768, 1)]


@lru_cache(maxsize=1)
def _dense_instances():
    return [
        random_binary_csp(
            n_variables=6, domain_size=d, n_constraints=10, tightness=0.5, seed=s
        )
        for d, s in DENSE_INSTANCES_SPEC
    ]


@lru_cache(maxsize=4)
def _dense_engines(strategy: str):
    return [make_engine(inst, strategy) for inst in _dense_instances()]


def _propagate(engine):
    domains = engine.fresh_domains()
    engine.propagate(domains, engine.full_worklist(), PropagationStats())
    return domains


def _best_of(fn, rounds=9):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- parity (always runs, numpy or not) ---------------------------------------


def test_columnar_matches_row_oracles_on_both_workloads():
    """The honesty floor under every ratio below: identical join relations
    and identical AC fixpoints, with the columnar counters actually moving
    (so the ratios compare the kernels they claim to compare)."""
    rels = _join_workload()
    expected = join_all(rels, execution="indexed")
    with collect_stats() as stats:
        got = join_all(rels, execution="columnar")
    assert got == expected
    if numpy_backend() is not None:
        assert stats.batch_probes > 0
        assert stats.operator_counts.get("columnar_decode") == 1
    for ei, ec in zip(_dense_engines("interned"), _dense_engines("columnar")):
        assert _propagate(ei) == _propagate(ec)


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


# -- dense-AC ratios (the ≥5× acceptance criterion) ----------------------------


@pytest.mark.benchmark(group="micro columnar: dense AC")
@pytest.mark.parametrize("strategy", ["interned", "columnar"])
def test_micro_dense_ac_propagation(benchmark, strategy):
    engines = _dense_engines(strategy)
    domains = benchmark(lambda: [_propagate(e) for e in engines])
    assert len(domains) == len(engines)


def test_micro_columnar_revise_beats_interned_5x_on_dense_ac():
    """≥5× wall-clock over the ``interned`` bitset engine on a
    dense E4 workload.  Engines are prebuilt (the MAC/SAC steady state);
    the timed quantity is propagation to the AC fixpoint, which is pure
    revise-kernel work.  Measured ≈7–8× on this family."""
    if numpy_backend() is None:
        pytest.skip("wall-clock ratio requires the numpy backend")
    interned_engines = _dense_engines("interned")
    columnar_engines = _dense_engines("columnar")
    # Fixpoint identity first — a fast kernel computing the wrong closure
    # would make the ratio meaningless.
    for ei, ec in zip(interned_engines, columnar_engines):
        assert _propagate(ei) == _propagate(ec)
    interned = sum(
        _best_of(lambda e=e: _propagate(e)) for e in interned_engines
    )
    columnar = sum(
        _best_of(lambda e=e: _propagate(e)) for e in columnar_engines
    )
    assert columnar * 5.0 < interned, (
        f"columnar revise ratio fell under the 5x floor: "
        f"{columnar * 1e3:.2f}ms vs interned {interned * 1e3:.2f}ms "
        f"({interned / columnar:.2f}x)"
    )
