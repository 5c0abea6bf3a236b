"""E4 — Theorems 5.6/5.7: establishing strong k-consistency, and
completeness of the k-consistency decision on Datalog-expressible templates.

Workload: Horn-SAT, 2-SAT, and 2-colorability families (their template
complements are k-Datalog-expressible, so the k-consistency verdict is not
merely sound but *complete* — asserted against ground truth on every
instance), plus the establishment procedure itself on homomorphism pairs.
"""

import pytest

from repro.consistency.arc import ac3, singleton_arc_consistency
from repro.consistency.establish import establish_strong_k_consistency
from repro.consistency.propagation import collect_propagation
from repro.csp.convert import csp_to_homomorphism
from repro.csp.solvers.consistency import Verdict, solve_decision
from repro.dichotomy.cnf import cnf_to_csp, dpll
from repro.generators.csp_random import coloring_instance
from repro.generators.graphs import cycle_graph, random_graph
from repro.generators.sat import random_2sat, random_horn


def _e4_instances(family: str):
    """The E4 CNF workloads as CSPs: same families as the completeness
    benchmarks above."""
    if family == "2sat":
        formulas = [random_2sat(n, 2 * n, seed=s) for n in (5, 7) for s in range(4)]
    else:
        formulas = [
            random_horn(n, 2 * n, seed=s, width=3) for n in (5, 7) for s in range(4)
        ]
    return [cnf_to_csp(f) for f in formulas]


def _support_checks(fn, instances, strategy):
    total = 0
    for inst in instances:
        with collect_propagation() as stats:
            fn(inst, strategy=strategy)
        total += stats.support_checks
    return total


@pytest.mark.benchmark(group="E4 2-SAT completeness")
@pytest.mark.parametrize("n", [5, 7])
def test_e4_2sat_k2_decides(benchmark, n):
    """2-SAT: ¬CSP(B) ∈ 3-Datalog; k=3 consistency is a decision procedure.

    (k=2 already suffices for refuting via unit-style propagation on many
    instances; k=3 is the guaranteed level for binary Boolean templates.)"""
    formulas = [random_2sat(n, 2 * n, seed=s) for s in range(4)]
    instances = [cnf_to_csp(f) for f in formulas]

    def run():
        return [solve_decision(inst, 3) for inst in instances]

    verdicts = benchmark(run)
    for formula, verdict in zip(formulas, verdicts):
        satisfiable = dpll(formula) is not None
        if verdict is Verdict.UNSATISFIABLE:
            assert not satisfiable
        else:
            assert satisfiable, "k-consistency failed to refute a 2-SAT instance"


@pytest.mark.benchmark(group="E4 Horn completeness")
@pytest.mark.parametrize("n", [5, 7])
def test_e4_horn_k3_decides(benchmark, n):
    formulas = [random_horn(n, 2 * n, seed=s, width=3) for s in range(4)]
    instances = [cnf_to_csp(f) for f in formulas]

    def run():
        return [solve_decision(inst, 3) for inst in instances]

    verdicts = benchmark(run)
    for formula, verdict in zip(formulas, verdicts):
        satisfiable = dpll(formula) is not None
        assert (verdict is Verdict.CONSISTENT) == satisfiable, (
            "strong 3-consistency must decide Horn instances of width ≤ 3"
        )


@pytest.mark.benchmark(group="E4 2-colorability completeness")
@pytest.mark.parametrize("n", [7, 9])
def test_e4_two_coloring_k3_decides(benchmark, n):
    graphs = [random_graph(n, 0.25, seed=s) for s in range(3)]
    instances = [coloring_instance(g, 2) for g in graphs]

    def run():
        return [solve_decision(inst, 3) for inst in instances]

    verdicts = benchmark(run)
    for graph, verdict in zip(graphs, verdicts):
        assert (verdict is Verdict.CONSISTENT) == graph.is_bipartite(), (
            "3-consistency must decide 2-colorability (¬2COL ∈ 4-Datalog)"
        )


@pytest.mark.parametrize("family", ["2sat", "horn"])
def test_e4_sac_residual_support_ratio(family):
    """The tentpole acceptance criterion: on the E4 2-SAT/Horn workloads the
    residual-support engine performs ≥5× fewer constraint-row support
    checks than the naive seed implementation for singleton arc
    consistency, per run, measured by PropagationStats.  (Measured ratios,
    recorded in EXPERIMENTS.md: 2-SAT 7.5×, Horn 20.0×.)"""
    instances = _e4_instances(family)
    naive = _support_checks(singleton_arc_consistency, instances, "naive")
    residual = _support_checks(singleton_arc_consistency, instances, "residual")
    assert residual > 0
    ratio = naive / residual
    assert ratio >= 5.0, (
        f"E4 {family} SAC: naive {naive} vs residual {residual} support "
        f"checks — ratio {ratio:.2f}× fell below the 5× floor"
    )


@pytest.mark.parametrize("family", ["2sat", "horn"])
def test_e4_ac_residual_fewer_checks(family):
    """Single-pass AC-3 also strictly saves row checks under the residual
    engine (hash-index candidate groups instead of full-relation rescans),
    though a lone pass has fewer repeat questions than SAC's probe storm —
    measured 1.9× (2-SAT) and 4.1× (Horn)."""
    instances = _e4_instances(family)
    naive = _support_checks(ac3, instances, "naive")
    residual = _support_checks(ac3, instances, "residual")
    assert residual > 0
    ratio = naive / residual
    assert ratio >= 1.5, (
        f"E4 {family} ac3: naive {naive} vs residual {residual} support "
        f"checks — ratio {ratio:.2f}× fell below the 1.5× floor"
    )


@pytest.mark.benchmark(group="E4 SAC strategies")
@pytest.mark.parametrize("strategy", ["residual", "naive"])
def test_e4_sac_strategy_timing(benchmark, strategy):
    """Wall-clock confirmation of the support-check savings on Horn-SAT."""
    instances = _e4_instances("horn")

    def run():
        return [
            singleton_arc_consistency(inst, strategy=strategy)
            for inst in instances
        ]

    results = benchmark(run)
    assert all(r.stats is not None for r in results)


@pytest.mark.benchmark(group="E4 establishment")
@pytest.mark.parametrize("n", [4, 6])
def test_e4_establish_strong_k_consistency(benchmark, n):
    inst = coloring_instance(cycle_graph(n), 3)
    a, b = csp_to_homomorphism(inst)
    a_prime, b_prime = benchmark(lambda: establish_strong_k_consistency(a, b, 2))
    assert a_prime.domain == a.domain
    assert b_prime.domain == b.domain
