"""E11 — Theorem 4.7: uniform tractability of the k-consistency decision,
with the O(n^{2k}) size sweep at fixed k.

Both input structures grow (uniform CSP: **A** and **B** are both inputs).
Workload: implicational templates (whose complements are Datalog-expressible,
so the decision is exact) at growing sizes; the benchmark table exposes the
polynomial growth curve at k = 2.
"""

import pytest

from repro.csp.convert import csp_to_homomorphism
from repro.csp.solvers import backtracking
from repro.csp.solvers.consistency import Verdict, decide_homomorphism
from repro.generators.csp_random import csp_from_graph
from repro.generators.graphs import path_graph


def implication_instance(n, d):
    """Variables on a path, each edge constrained by the 'staircase' relation
    x ≤ y over a d-element chain — a width-2 implicational template whose
    complement is 2-Datalog-expressible."""
    relation = frozenset(
        (a, b) for a in range(d) for b in range(d) if a <= b
    )
    return csp_from_graph(path_graph(n), relation, list(range(d)))


def hard_chain_instance(n, d):
    """Same staircase on a cycle plus a forced decrease: unsolvable — the
    k-consistency engine must propagate around the cycle to refute."""
    less = frozenset((a, b) for a in range(d) for b in range(d) if a < b)
    from repro.csp.instance import Constraint, CSPInstance

    constraints = [
        Constraint((i, (i + 1) % n), less) for i in range(n)
    ]
    return CSPInstance(list(range(n)), list(range(d)), constraints)


@pytest.mark.benchmark(group="E11 uniform k=2 (solvable)")
@pytest.mark.parametrize("n", [4, 6, 8])
def test_e11_scaling_solvable(benchmark, n):
    inst = implication_instance(n, 3)
    a, b = csp_to_homomorphism(inst)
    verdict = benchmark(lambda: decide_homomorphism(a, b, 2))
    assert verdict is Verdict.CONSISTENT
    assert backtracking.is_solvable(inst)


@pytest.mark.benchmark(group="E11 uniform k=2 (refuted)")
@pytest.mark.parametrize("n", [4, 5, 6])
def test_e11_scaling_refuted(benchmark, n):
    inst = hard_chain_instance(n, 3)
    a, b = csp_to_homomorphism(inst)
    verdict = benchmark(lambda: decide_homomorphism(a, b, 2))
    # A strictly increasing cycle is impossible; 2-consistency propagation
    # refutes it (the template is implicational).
    assert verdict is Verdict.UNSATISFIABLE
    assert not backtracking.is_solvable(inst)


@pytest.mark.benchmark(group="E11 domain sweep")
@pytest.mark.parametrize("d", [2, 3, 4])
def test_e11_domain_size_sweep(benchmark, d):
    """Uniformity: B grows too (the point of Theorem 4.7 vs non-uniform
    statements — the algorithm stays polynomial in |A| + |B|)."""
    inst = implication_instance(5, d)
    a, b = csp_to_homomorphism(inst)
    verdict = benchmark(lambda: decide_homomorphism(a, b, 2))
    assert verdict is Verdict.CONSISTENT
