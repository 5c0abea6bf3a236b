"""Seeded input generation for the four workloads.

Everything here is plain Python over ints, tuples and strings, and imports
nothing from ``repro``: the program under test receives only what these
functions generate, so a change to the program cannot change its inputs.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: Query templates over the transitive-closure vocabulary ``E``/``T``.  Each
#: is ``(head variables, body atoms)``; a body atom is ``(predicate, vars)``.
TEMPLATES = (
    (("X", "Y"), (("T", ("X", "Y")),)),
    (("X", "Z"), (("E", ("X", "Y")), ("E", ("Y", "Z")))),
    (("X",), (("T", ("X", "X")),)),
    (("X", "Z"), (("E", ("X", "Y")), ("T", ("Y", "Z")))),
    (("Y",), (("E", ("X", "Y")), ("T", ("Y", "X")))),
    (("X", "W"), (("E", ("X", "Y")), ("E", ("Y", "Z")), ("T", ("Z", "W")))),
)


def query_text(head: tuple, body: tuple) -> str:
    atoms = ", ".join(f"{p}({', '.join(terms)})" for p, terms in body)
    return f"Q({', '.join(head)}) :- {atoms}."


def template_text(template: int) -> str:
    head, body = TEMPLATES[template]
    return query_text(head, body)


def variant(template: int, rng: random.Random) -> tuple[str, tuple[str, ...]]:
    """An equivalent rewrite of a template and its head variables.

    Every variable is renamed, the body is shuffled, and half the time a
    redundant atom is added: a copy of a body atom with one variable
    replaced by a fresh one, which the original atom implies.  A cache keyed
    on the query text would miss every variant; one keyed on the minimized
    query hits.
    """
    head, body = TEMPLATES[template]
    names = sorted({v for _, terms in body for v in terms} | set(head))
    rename = {v: f"V{rng.randrange(10**6)}x{i}" for i, v in enumerate(names)}
    atoms = [(p, tuple(rename[t] for t in terms)) for p, terms in body]
    rng.shuffle(atoms)
    if rng.random() < 0.5:
        predicate, terms = rng.choice(atoms)
        terms = list(terms)
        terms[rng.randrange(len(terms))] = f"W{rng.randrange(10**6)}"
        atoms.append((predicate, tuple(terms)))
    new_head = tuple(rename[v] for v in head)
    return query_text(new_head, tuple(atoms)), new_head


def request(op: str, **fields) -> str:
    return json.dumps({"op": op, **fields})


# -- service workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Ask:
    """One query request: its template and the variant's head variables."""

    line: str
    template: int
    head: tuple[str, ...]


@dataclass(frozen=True)
class Update:
    """One update request (``insert`` or ``delete`` of ``E`` rows)."""

    line: str
    op: str
    rows: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ServeSession:
    """The request lines of one ``repro serve`` session.

    ``load`` bulk-loads the initial forest; ``requests`` follow in order.
    """

    edges: frozenset
    load: str
    requests: tuple


def forest(nodes: int, rng: random.Random) -> dict[int, int]:
    """A random recursive forest: node ``i > 0`` gets a parent below it."""
    return {child: rng.randrange(child) for child in range(1, nodes)}


#: The golden ratio's fractional part: steps of it spread points evenly
#: over the unit interval from any start.
GOLDEN = (5**0.5 - 1) / 2


def movers(nodes: int, rng: random.Random):
    """Nodes to move, ``1 .. nodes - 1``.

    Each is uniform, as in the program's own hierarchy stream, but they
    follow a golden-ratio sequence from a random start instead of being
    drawn independently.  Node ``k`` of a random recursive forest has about
    ``nodes / k`` descendants, so the rare move of one of the first few
    nodes rewrites a large share of the closure and sets the update tail;
    along the sequence every session moves such nodes at their expected
    rate, where independent draws would leave it to chance.
    """
    u = rng.random()
    while True:
        u = (u + GOLDEN) % 1.0
        yield 1 + int(u * (nodes - 1))


def reparent_batch(parent: dict[int, int], movers, rng: random.Random):
    """Move one or two nodes taken from ``movers`` under a new parent with a
    smaller index, which keeps the forest acyclic.  Returns the (deleted,
    inserted) edges."""
    deletes, inserts, moved = [], [], set()
    while not deletes:
        for _ in range(rng.randint(1, 2)):
            child = next(movers)
            new_parent = rng.randrange(child)
            if new_parent == parent[child] or child in moved:
                continue
            moved.add(child)
            deletes.append((parent[child], child))
            inserts.append((new_parent, child))
            parent[child] = new_parent
    return tuple(sorted(deletes)), tuple(sorted(inserts))


def _updates(parent, movers, rng) -> list[Update]:
    deletes, inserts = reparent_batch(parent, movers, rng)
    return [
        Update(request("delete", predicate="E", rows=deletes), "delete", deletes),
        Update(request("insert", predicate="E", rows=inserts), "insert", inserts),
    ]


def _session(parent, requests) -> ServeSession:
    edges = frozenset((p, c) for c, p in parent.items())
    load = request("insert", predicate="E", rows=sorted(edges))
    return ServeSession(edges, load, tuple(requests))


def read_session(seed: int, nodes: int, events: int, update_every: int) -> ServeSession:
    """The read mix: asks drawn uniformly from the six templates, each one a
    fresh variant, with one reparent batch every ``update_every`` events."""
    rng = random.Random(seed)
    parent = forest(nodes, rng)
    start = dict(parent)
    moving = movers(nodes, rng)
    requests: list = []
    for i in range(events):
        if (i + 1) % update_every == 0:
            requests += _updates(parent, moving, rng)
        else:
            template = rng.randrange(len(TEMPLATES))
            line, head = variant(template, rng)
            requests.append(Ask(request("query", q=line), template, head))
    return _session(start, requests)


def write_session(seed: int, nodes: int, batches: int) -> ServeSession:
    """The write mix: reparent batches only, each a delete then an insert."""
    rng = random.Random(seed)
    parent = forest(nodes, rng)
    start = dict(parent)
    moving = movers(nodes, rng)
    requests: list = []
    for _ in range(batches):
        requests += _updates(parent, moving, rng)
    return _session(start, requests)


# -- cq-join -------------------------------------------------------------------

#: The fixed query mix of ``cq-join``: name and rule text.
JOIN_QUERIES = (
    ("chain3", "Q(A, D) :- R(A, B), S(B, C), T(C, D)."),
    ("path2", "Q(X, Z) :- E(X, Y), E(Y, Z)."),
    ("star2", "Q(X, Z) :- E(X, Y), E(Z, Y)."),
    ("path3", "Q(X, W) :- E(X, Y), E(Y, Z), E(Z, W)."),
    ("triangle", "Q(X, Y, Z) :- E(X, Y), E(Y, Z), E(Z, X)."),
    ("cycle4", "Q(X, Y, Z, W) :- E(X, Y), E(Y, Z), E(Z, W), E(W, X)."),
    ("clique4", "Q(X, Y, Z, W) :- E(X, Y), E(X, Z), E(X, W), E(Y, Z), E(Y, W), E(Z, W)."),
)


def skewed_graph(seed: int, edges: int, nodes: int, skew: float) -> frozenset:
    """A directed graph whose endpoints follow a power law: an endpoint is
    ``nodes * u ** skew`` for uniform ``u``, so node ``k`` is drawn with
    weight about ``k ** (1 / skew - 1)`` and a few hubs carry many edges.

    The ``u`` of the sources, and separately of the targets, follow
    golden-ratio sequences from random starts, the targets shuffled
    against the sources.  Each endpoint is still drawn from the power law,
    but the hubs' degrees, which set the cost of every cyclic query, no
    longer swing from seed to seed.
    """
    rng = random.Random(seed)
    u, v = rng.random(), rng.random()
    out: set[tuple[int, int]] = set()
    while len(out) < edges:
        sources, targets = [], []
        for _ in range(edges - len(out)):
            u = (u + GOLDEN) % 1.0
            v = (v + GOLDEN) % 1.0
            sources.append(int(nodes * u**skew))
            targets.append(int(nodes * v**skew))
        rng.shuffle(targets)
        out.update((a, b) for a, b in zip(sources, targets) if a != b)
    return frozenset(out)


def chain_relation(seed: int, rows: int, domain: int) -> frozenset:
    rng = random.Random(seed)
    out: set[tuple[int, int]] = set()
    while len(out) < rows:
        out.add((rng.randrange(domain), rng.randrange(domain)))
    return frozenset(out)


def join_database(
    seed: int, edges: int, nodes: int, chain_rows: int, chain_domain: int
) -> dict[str, frozenset]:
    return {
        "E": skewed_graph(seed, edges, nodes, skew=1.5),
        "R": chain_relation(seed + 1, chain_rows, chain_domain),
        "S": chain_relation(seed + 2, chain_rows, chain_domain),
        "T": chain_relation(seed + 3, chain_rows, chain_domain),
    }


# -- csp-solve -----------------------------------------------------------------


@dataclass(frozen=True)
class RawCSP:
    """A CSP as plain data: ``constraints`` are ``(scope, allowed rows)``."""

    kind: str
    variables: tuple
    domain: tuple
    constraints: tuple


def model_b(seed: int, kind: str, n: int, d: int, m: int, tightness: float) -> RawCSP:
    """Model-B random binary CSP: ``m`` distinct variable pairs, each
    forbidding ``round(tightness * d * d)`` of the value pairs."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    values = [(a, b) for a in range(d) for b in range(d)]
    forbid = round(tightness * len(values))
    constraints = []
    for scope in pairs[:m]:
        banned = set(rng.sample(values, forbid))
        constraints.append((scope, tuple(v for v in values if v not in banned)))
    return RawCSP(kind, tuple(range(n)), tuple(range(d)), tuple(constraints))


def partial_3tree_colouring(seed: int, n: int = 60, keep: float = 0.8) -> RawCSP:
    """4-colouring of a partial 3-tree: each new vertex joins a random
    triangle of the 3-tree built so far, then a ``keep`` share of its edges
    survives.  Treewidth is at most 3, so a colouring always exists."""
    rng = random.Random(seed)
    cliques = [(0, 1, 2)]
    edges = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, n):
        a, b, c = rng.choice(cliques)
        edges |= {(a, v), (b, v), (c, v)}
        cliques += [(a, b, v), (a, c, v), (b, c, v)]
    kept = sorted(e for e in edges if rng.random() < keep)
    diff = tuple((x, y) for x in range(4) for y in range(4) if x != y)
    return RawCSP(
        "colour", tuple(range(n)), tuple(range(4)), tuple((e, diff) for e in kept)
    )


_SAT = ("sat", dict(n=30, d=10, m=150, tightness=0.30))
_UNSAT = ("unsat", dict(n=30, d=10, m=225, tightness=0.42))

_COLOUR = ("colour", {})

#: One round of the csp-solve mix, in order: (kind, generator arguments).
#: Eight satisfiable instances, two colourings and two unsatisfiable
#: instances (about three times slower than a satisfiable one) put the
#: median inside the satisfiable mode and P90 inside the unsatisfiable
#: one, neither on the edge between two kinds, where it would swing with
#: the instances drawn.
CSP_ROUND = (
    _SAT, _SAT, _COLOUR, _SAT, _SAT, _UNSAT,
    _SAT, _SAT, _COLOUR, _SAT, _UNSAT, _SAT,
)


def csp_instances(seed: int, count: int) -> list[RawCSP]:
    """``count`` instances cycling through :data:`CSP_ROUND`, each drawn
    from its own sub-seed."""
    out = []
    for i in range(count):
        kind, params = CSP_ROUND[i % len(CSP_ROUND)]
        sub = seed * 100003 + i
        if kind == "colour":
            out.append(partial_3tree_colouring(sub))
        else:
            out.append(model_b(sub, kind, **params))
    return out
