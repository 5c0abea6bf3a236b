"""E1 — Proposition 2.1: CSP solvability ⟺ nonemptiness of the join.

Workload: model-B random binary CSPs across the tightness spectrum plus
colorability instances.  The experiment measures the join-evaluation solver
and asserts its verdict agrees with backtracking search on every instance —
the executable content of the proposition — and reports relative timings
(the join pays for materializing intermediate relations; search wins on
tight/unsatisfiable instances, the join is competitive on loose ones).
"""

import pytest

from repro.csp.solvers import backtracking, join
from repro.generators.csp_random import coloring_instance, random_binary_csp
from repro.generators.graphs import cycle_graph, path_graph
from repro.relational.stats import collect_stats


def _instances(tightness):
    return [
        random_binary_csp(
            n_variables=9, domain_size=3, n_constraints=12, tightness=tightness, seed=s
        )
        for s in range(3)
    ]


@pytest.mark.benchmark(group="E1 join-evaluation")
@pytest.mark.parametrize("tightness", [0.2, 0.4, 0.6])
def test_e1_join_solver(benchmark, tightness):
    instances = _instances(tightness)

    def run():
        return [join.is_solvable(inst) for inst in instances]

    verdicts = benchmark(run)
    expected = [backtracking.is_solvable(inst) for inst in instances]
    assert verdicts == expected, "Proposition 2.1 violated"


@pytest.mark.benchmark(group="E1 join-evaluation")
@pytest.mark.parametrize("tightness", [0.2, 0.4, 0.6])
def test_e1_backtracking_baseline(benchmark, tightness):
    instances = _instances(tightness)
    benchmark(lambda: [backtracking.is_solvable(inst) for inst in instances])


@pytest.mark.benchmark(group="E1 join strategies")
@pytest.mark.parametrize("strategy", ["greedy", "smallest", "textbook"])
def test_e1_join_strategy(benchmark, strategy):
    """The same workload under each join-order strategy — the planner's
    speedup comes entirely from smaller intermediate relations."""
    instances = _instances(0.4)
    verdicts = benchmark(
        lambda: [join.is_solvable(inst, strategy=strategy) for inst in instances]
    )
    assert verdicts == [backtracking.is_solvable(inst) for inst in instances]


@pytest.mark.parametrize("tightness", [0.2, 0.4, 0.6])
def test_e1_planner_intermediates_never_worse(tightness):
    """Acceptance criterion: on the E1 family the greedy plan's largest
    intermediate relation is no bigger than the textbook order's — the
    EvalStats counters are the evidence (reported in EXPERIMENTS.md)."""
    for inst in _instances(tightness):
        sizes = {}
        for strategy in ("greedy", "textbook"):
            with collect_stats() as stats:
                join.is_solvable(inst, strategy=strategy)
            sizes[strategy] = stats
        assert (
            sizes["greedy"].max_intermediate <= sizes["textbook"].max_intermediate
        ), f"planner made an intermediate bigger at tightness {tightness}"
        assert (
            sizes["greedy"].total_intermediate
            <= sizes["textbook"].total_intermediate
        )


@pytest.mark.parametrize("tightness", [0.2, 0.4, 0.6])
def test_e1_indexed_scans_fewer_tuples(tightness):
    """Acceptance criterion: on every E1 instance the hash-indexed
    execution reads strictly fewer tuples than the nested-loop scan while
    producing the same verdict and identical intermediates (reported in
    EXPERIMENTS.md)."""
    for inst in _instances(tightness):
        runs = {}
        for execution in ("indexed", "scan"):
            with collect_stats() as stats:
                verdict = join.is_solvable(inst, strategy=execution)
            runs[execution] = (verdict, stats)
        v_indexed, s_indexed = runs["indexed"]
        v_scan, s_scan = runs["scan"]
        assert v_indexed == v_scan
        assert s_indexed.intermediate_sizes == s_scan.intermediate_sizes
        assert s_indexed.tuples_scanned < s_scan.tuples_scanned, (
            f"indexed execution read no fewer tuples at tightness {tightness}"
        )
        assert s_scan.index_builds == s_scan.index_hits == 0


@pytest.mark.benchmark(group="E1 join executions")
@pytest.mark.parametrize("execution", ["indexed", "scan", "columnar"])
def test_e1_join_execution(benchmark, execution):
    """The same workload under each join execution — the hash path's win
    is probe work proportional to matches, not to |L|·|R|; the columnar
    path additionally packs probe keys into dense single ints (and E1's
    0..2 domains ride the identity-codec fast path)."""
    instances = _instances(0.4)
    verdicts = benchmark(
        lambda: [join.is_solvable(inst, strategy=execution) for inst in instances]
    )
    assert verdicts == [backtracking.is_solvable(inst) for inst in instances]


@pytest.mark.benchmark(group="E1 colorability")
@pytest.mark.parametrize("solver_name,decide", [
    ("join", join.is_solvable),
    ("backtracking", backtracking.is_solvable),
])
def test_e1_coloring_workload(benchmark, solver_name, decide):
    instances = [
        coloring_instance(cycle_graph(9), 3),
        coloring_instance(cycle_graph(9), 2),   # odd cycle: unsolvable
        coloring_instance(path_graph(12), 2),
    ]
    verdicts = benchmark(lambda: [decide(i) for i in instances])
    assert verdicts == [True, False, True]
