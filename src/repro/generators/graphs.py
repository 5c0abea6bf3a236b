"""Graph and digraph workload generators for the benchmark suite.

All generators are deterministic given a seed; graphs come both as
:class:`~repro.width.graph.Graph` objects and as relational structures over
``{"E": 2}``.
"""

from __future__ import annotations

import random

from repro.relational.structure import Structure
from repro.width.graph import Graph

__all__ = [
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "grid_graph",
    "random_graph",
    "random_digraph",
    "partial_ktree",
    "graph_as_digraph_structure",
    "directed_cycle_structure",
]


def cycle_graph(n: int) -> Graph:
    """The undirected cycle C_n."""
    return Graph(vertices=range(n), edges=[(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """The path with ``n`` vertices."""
    return Graph(vertices=range(n), edges=[(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    """The clique K_n."""
    return Graph(
        vertices=range(n),
        edges=[(i, j) for i in range(n) for j in range(i + 1, n)],
    )


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows×cols grid (treewidth = min(rows, cols) for proper grids)."""
    g = Graph(vertices=[(r, c) for r in range(rows) for c in range(cols)])
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1))
    return g


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) — each undirected edge present independently."""
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def random_digraph(n: int, p: float, seed: int = 0, loops: bool = False) -> Structure:
    """A random digraph structure over ``{"E": 2}``."""
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if (loops or i != j) and rng.random() < p
    ]
    return Structure({"E": 2}, range(n), {"E": edges})


def partial_ktree(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """A random partial k-tree on ``n`` vertices — treewidth ≤ k by
    construction (a random k-tree with each edge kept with probability
    ``p``), the bounded-treewidth workload of benchmark E5."""
    rng = random.Random(seed)
    if n <= k + 1:
        full = complete_graph(n)
    else:
        full = complete_graph(k + 1)
        cliques = [tuple(range(k + 1))]
        for v in range(k + 1, n):
            base = rng.choice(cliques)
            drop = rng.randrange(len(base))
            new_clique = tuple(u for i, u in enumerate(base) if i != drop) + (v,)
            for u in new_clique[:-1]:
                full.add_edge(u, v)
            cliques.append(new_clique)
    g = Graph(vertices=full.vertices)
    for u, v in full.edges():
        if rng.random() < p:
            g.add_edge(u, v)
    return g


def graph_as_digraph_structure(graph: Graph) -> Structure:
    """An undirected graph as a symmetric binary structure."""
    edges = set()
    for u, v in graph.edges():
        edges.add((u, v))
        edges.add((v, u))
    return Structure({"E": 2}, graph.vertices, {"E": edges})


def directed_cycle_structure(n: int) -> Structure:
    """The directed cycle with n nodes as a structure."""
    return Structure({"E": 2}, range(n), {"E": [(i, (i + 1) % n) for i in range(n)]})
