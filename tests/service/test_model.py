"""Model checking of :class:`QueryService` under arbitrary interleavings.

A hypothesis state machine drives one service over the transitive-closure
program with a two-entry cache, so evictions happen all the time.  Its
rules ask template variants (the template itself, an equivalent renaming
or padding, a projection), insert edges, delete edges and read ``stats``.
Every answer must equal direct evaluation over a structure rebuilt from
scratch — ``evaluate_seminaive`` on a mirrored EDB — whether the cache
hit, missed or had just been invalidated, and the cache counters must
never decrease.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cq.evaluate import evaluate
from repro.cq.parser import parse_query
from repro.datalog.engine import evaluate_seminaive
from repro.datalog.library import transitive_closure_program
from repro.relational.structure import Structure, Vocabulary
from repro.service.core import QueryService

TC = transitive_closure_program()

#: Per template: the template, equivalent variants (renamed, reordered or
#: padded with a redundant atom), and projections of it.
VARIANTS = [
    # T itself.
    "Q(X, Y) :- T(X, Y).",
    "P(A, B) :- T(A, B), T(A, C).",
    "R(U) :- T(U, V).",
    "S(V) :- T(U, V).",
    # One more hop over the base edges.
    "Q(X, Z) :- T(X, Y), E(Y, Z).",
    "P(A, C) :- E(B, C), T(A, B).",
    "R(A) :- T(A, B), E(B, C).",
    # Nodes on a cycle.
    "Q(X) :- T(X, X).",
    "P(A) :- T(A, B), T(A, A).",
]

nodes = st.integers(min_value=0, max_value=4)
edges = st.sets(st.tuples(nodes, nodes), min_size=1, max_size=3)


def from_scratch(query: str, edb: set) -> tuple:
    facts = {"E": frozenset(edb)}
    values = dict(facts, **evaluate_seminaive(TC, facts))
    domain = {v for rows in values.values() for row in rows for v in row}
    structure = Structure(Vocabulary(TC.arities()), domain, values)
    result = evaluate(parse_query(query), structure)
    return result.attributes, result.tuples


class ServiceModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.edb: set = {(0, 1), (1, 2)}
        self.service = QueryService(TC, {"E": set(self.edb)}, cache_capacity=2)
        self.counters = self.service.cache.stats.as_dict()
        self.asks = 0

    @rule(query=st.sampled_from(VARIANTS))
    def ask(self, query):
        answer = self.service.ask(query)
        self.asks += 1
        got = (answer.result.attributes, answer.result.tuples)
        assert got == from_scratch(query, self.edb), answer.outcome

    @rule(rows=edges)
    def insert(self, rows):
        self.service.update(inserts={"E": rows})
        self.edb |= rows

    @rule(data=st.data())
    def delete(self, data):
        if self.edb:
            present = st.sets(st.sampled_from(sorted(self.edb)), min_size=1)
            rows = data.draw(present)
        else:
            rows = data.draw(edges)
        self.service.update(deletes={"E": rows})
        self.edb -= rows

    @rule()
    def stats(self):
        stats = self.service.stats()
        assert stats["cache"] == self.service.cache.stats.as_dict()
        assert stats["cache"]["lookups"] == self.asks
        assert stats["query_latency"]["count"] == self.asks

    @invariant()
    def maintained_edb_matches_the_mirror(self):
        assert self.service.engine.value("E") == frozenset(self.edb)

    @invariant()
    def counters_never_decrease(self):
        now = self.service.cache.stats.as_dict()
        for name, value in now.items():
            if name != "hit_rate":
                assert value >= self.counters[name], name
        self.counters = now


ServiceModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestServiceModel = ServiceModel.TestCase
