"""Micro-benchmarks guarding the interned bitset propagation engine.

On dense instances the SAC probe loop keeps invalidating residual
supports, so the set-based engine re-scans hash groups value by value
while the bitset engine answers each revision with a handful of word
operations.  The guard asserts the interned engine performs at least 3×
fewer per-value membership operations (``mask_ops``) than the residual
engine's row checks (``support_checks``) — measured ≈4.1× on this family.
It is counter-based, so deterministic for fixed seeds; the paired
benchmark group additionally shows the wall-clock gap in
``--benchmark-only`` runs.
"""

import pytest

from repro.consistency.arc import singleton_arc_consistency
from repro.consistency.propagation import collect_propagation
from repro.generators.csp_random import random_binary_csp

# Dense domains + moderate tightness: SAC pins invalidate stored supports
# constantly, which is exactly the regime the bitset kernels target.
DENSE_INSTANCES = [
    random_binary_csp(
        n_variables=8, domain_size=24, n_constraints=16, tightness=0.45, seed=s
    )
    for s in range(4)
]


@pytest.mark.benchmark(group="micro interning: SAC")
@pytest.mark.parametrize("strategy", ["residual", "interned"])
def test_micro_sac_strategy(benchmark, strategy):
    def run():
        return [
            singleton_arc_consistency(inst, strategy=strategy)
            for inst in DENSE_INSTANCES
        ]

    results = benchmark(run)
    assert len(results) == len(DENSE_INSTANCES)


def test_micro_bitset_revise_beats_residual_by_3x():
    """Acceptance criterion: on dense instances the bitset AC-revise kernel
    performs ≥3× fewer per-value membership operations than the residual
    set-based path — counter-based, so deterministic for fixed seeds."""
    fixpoints = {}
    counters = {}
    for strategy in ("residual", "interned"):
        with collect_propagation() as stats:
            fixpoints[strategy] = [
                singleton_arc_consistency(inst, strategy=strategy)
                for inst in DENSE_INSTANCES
            ]
        counters[strategy] = stats
    residual, interned = counters["residual"], counters["interned"]
    # Same fixpoints first — a cheap kernel that computes the wrong
    # closure would make the ratio meaningless.
    for res, inter in zip(fixpoints["residual"], fixpoints["interned"]):
        assert res.consistent == inter.consistent
        assert res.domains == inter.domains
    assert interned.intern_tables == len(DENSE_INSTANCES)
    assert interned.bitset_words > 0
    assert residual.support_checks >= 3 * interned.mask_ops, (
        f"bitset kernel ratio collapsed: {residual.support_checks} residual "
        f"checks vs {interned.mask_ops} mask ops "
        f"({residual.support_checks / max(1, interned.mask_ops):.2f}x)"
    )
