"""E3 — Theorem 4.5: the existential k-pebble game is polynomial-time
decidable, and the canonical k-Datalog program ρ_B agrees with it.

Workload: symmetric cycles and random graphs vs the K2 template, k ∈ {2, 3},
with a size sweep exposing the O(n^{2k}) shape (time grows polynomially —
the n-sweep groups let the pytest-benchmark table show the growth curve).
"""

import pytest

from repro.datalog.canonical import canonical_program
from repro.games.pebble import solve_game, spoiler_wins
from repro.generators.graphs import cycle_graph, graph_as_digraph_structure
from repro.relational.structure import Structure

K2 = Structure({"E": 2}, [0, 1], {"E": [(0, 1), (1, 0)]})


@pytest.mark.benchmark(group="E3 game k=2")
@pytest.mark.parametrize("n", [6, 10, 14])
def test_e3_game_scaling_k2(benchmark, n):
    a = graph_as_digraph_structure(cycle_graph(n))
    result = benchmark(lambda: solve_game(a, K2, 2))
    assert result.duplicator_wins  # k=2 never refutes cycles


@pytest.mark.benchmark(group="E3 game k=3")
@pytest.mark.parametrize("n", [5, 7, 9])
def test_e3_game_scaling_k3(benchmark, n):
    a = graph_as_digraph_structure(cycle_graph(n))
    result = benchmark(lambda: solve_game(a, K2, 3))
    # Theorem 4.6 instantiated: 3 pebbles refute exactly the odd cycles.
    assert result.spoiler_wins == (n % 2 == 1)


@pytest.mark.benchmark(group="E3 canonical program")
@pytest.mark.parametrize("n", [5, 6, 7])
def test_e3_canonical_program_agrees(benchmark, n):
    cp = canonical_program(K2, 3)
    a = graph_as_digraph_structure(cycle_graph(n))
    datalog_verdict = benchmark(lambda: cp.spoiler_wins(a))
    assert datalog_verdict == spoiler_wins(a, K2, 3), "Theorem 4.5(3) violated"


@pytest.mark.benchmark(group="E3 canonical program")
def test_e3_program_construction(benchmark):
    cp = benchmark(lambda: canonical_program(K2, 3))
    assert cp.program.rules


@pytest.mark.parametrize("n", [9, 11])
def test_e3_residual_pruning_checks_fewer_groups(n):
    """On the odd-cycle refutations (deep delete cascades) the residual
    pruning inspects strictly fewer extension groups than the naive
    rescan-on-requeue loop, and the gap widens with n — measured 2.8× at
    n=9 and 5.4× at n=11.  Both reach the same (empty) strategy; counters
    are recorded in EXPERIMENTS.md."""
    from repro.consistency.propagation import collect_propagation

    a = graph_as_digraph_structure(cycle_graph(n))
    with collect_propagation() as naive:
        res_naive = solve_game(a, K2, 3, strategy="naive")
    with collect_propagation() as residual:
        res_residual = solve_game(a, K2, 3, strategy="residual")
    assert res_naive.strategy == res_residual.strategy
    assert res_naive.spoiler_wins
    assert residual.support_checks < naive.support_checks, (
        f"n={n}: residual {residual.support_checks} vs naive "
        f"{naive.support_checks} extension-group inspections"
    )


@pytest.mark.benchmark(group="E3 pruning strategies")
@pytest.mark.parametrize("strategy", ["residual", "naive"])
def test_e3_pruning_strategy_timing(benchmark, strategy):
    a = graph_as_digraph_structure(cycle_graph(9))
    result = benchmark(lambda: solve_game(a, K2, 3, strategy=strategy))
    assert result.spoiler_wins
