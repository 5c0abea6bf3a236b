"""E5 — Theorem 6.2: CSP(A(k), F) is polynomial via tree-decomposition DP.

Workload: partial-k-tree constraint graphs (k = 1, 2, 3) with a size sweep —
the DP solver's time should grow polynomially with n at fixed k, while plain
backtracking's search-node count grows much faster on the unsatisfiable
instances.  The node-count comparison (structure-exploiting DP vs
structure-blind search) is asserted as the qualitative "who wins" of the
theorem.
"""

import pytest

from repro.csp.solvers import backtracking, decomposition
from repro.csp.solvers.backtracking import Inference
from repro.generators.csp_random import coloring_instance
from repro.generators.graphs import cycle_graph, partial_ktree
from repro.width.treedecomp import decomposition_of_instance


def bounded_width_instance(n, k, colors, seed):
    return coloring_instance(partial_ktree(n, k, 0.85, seed=seed), colors)


@pytest.mark.benchmark(group="E5 decomposition DP")
@pytest.mark.parametrize("n", [10, 16, 22])
@pytest.mark.parametrize("k", [1, 2])
def test_e5_dp_scaling(benchmark, n, k):
    inst = bounded_width_instance(n, k, 3, seed=n + k)
    td = decomposition_of_instance(inst)
    assert td.width <= k + 1  # heuristic may be slightly above k
    result = benchmark(lambda: decomposition.is_solvable(inst, td))
    assert result == backtracking.is_solvable(inst)


@pytest.mark.benchmark(group="E5 backtracking baseline")
@pytest.mark.parametrize("n", [10, 16, 22])
def test_e5_backtracking_scaling(benchmark, n):
    inst = bounded_width_instance(n, 2, 3, seed=n + 2)
    benchmark(lambda: backtracking.is_solvable(inst))


@pytest.mark.benchmark(group="E5 hard instances")
def test_e5_dp_beats_blind_search_on_structured_unsat(benchmark):
    """3-coloring a K4-free width-2 structure vs 2-coloring odd cycles:
    unsatisfiable bounded-width instances where blind (no-inference)
    search explodes but the DP stays linear in n."""
    instances = [coloring_instance(cycle_graph(n), 2) for n in (9, 11, 13)]
    verdicts = benchmark(
        lambda: [decomposition.is_solvable(inst) for inst in instances]
    )
    assert verdicts == [False, False, False]
    # Qualitative check: plain backtracking visits many nodes on these.
    stats = backtracking.solve_with_stats(instances[-1], Inference.NONE)
    assert stats.solution is None
    assert stats.nodes > 13  # blind search backtracks over the whole cycle
