"""Unit tests for the cost-guided join planner."""

import pytest

from repro.errors import SolverError
from repro.relational.algebra import join_all
from repro.relational.planner import (
    EXECUTIONS,
    STRATEGIES,
    estimate_join,
    order_relations,
    parse_strategy,
    plan_join,
    profile,
)
from repro.relational.relation import Relation


def rel(attrs, rows):
    return Relation(attrs, rows)


class TestProfile:
    def test_exact_counts(self):
        r = rel(("x", "y"), [(1, 1), (1, 2), (2, 2)])
        p = profile(r)
        assert p.cardinality == 3
        assert p.distinct == {"x": 2.0, "y": 2.0}

    def test_empty_relation(self):
        p = profile(Relation.empty(("x",)))
        assert p.cardinality == 0
        assert p.distinct == {"x": 0.0}


class TestEstimate:
    def test_disjoint_schemes_estimate_product(self):
        left = profile(rel(("x",), [(1,), (2,)]))
        right = profile(rel(("y",), [(5,), (6,), (7,)]))
        assert estimate_join(left, right).cardinality == 6

    def test_shared_attribute_divides(self):
        left = profile(rel(("x", "y"), [(i, i % 3) for i in range(6)]))
        right = profile(rel(("y", "z"), [(i % 3, i) for i in range(6)]))
        est = estimate_join(left, right)
        assert est.cardinality == pytest.approx(6 * 6 / 3)
        assert est.attributes == {"x", "y", "z"}

    def test_empty_side_estimates_zero(self):
        left = profile(Relation.empty(("x", "y")))
        right = profile(rel(("y", "z"), [(1, 2)]))
        assert estimate_join(left, right).cardinality == 0


class TestPlans:
    def test_textbook_keeps_given_order(self):
        rels = [rel(("a",), [(i,) for i in range(n)]) for n in (5, 1, 3)]
        plan = plan_join(rels, "textbook")
        assert plan.order == (0, 1, 2)

    def test_smallest_sorts_by_cardinality(self):
        rels = [rel(("a",), [(i,) for i in range(n)]) for n in (5, 1, 3)]
        plan = plan_join(rels, "smallest")
        assert plan.order == (1, 2, 0)

    def test_greedy_starts_with_smallest_relation(self):
        rels = [
            rel(("x", "y"), [(i, i) for i in range(9)]),
            rel(("y", "z"), [(0, 0)]),
            rel(("z", "w"), [(i, i) for i in range(4)]),
        ]
        plan = plan_join(rels, "greedy")
        assert plan.order[0] == 1

    def test_greedy_avoids_cartesian_products(self):
        # A chain R(a,b)–S(b,c)–T(c,d): after R, joining T would be a pure
        # product; greedy must pick the connected S first.
        r = rel(("a", "b"), [(i, i) for i in range(2)])
        s = rel(("b", "c"), [(i, i) for i in range(5)])
        t = rel(("c", "d"), [(i, i) for i in range(5)])
        plan = plan_join([r, s, t], "greedy")
        assert plan.order == (0, 1, 2)

    def test_greedy_prefers_empty_relation_first(self):
        rels = [
            rel(("x", "y"), [(i, i) for i in range(5)]),
            Relation.empty(("y", "z")),
        ]
        plan = plan_join(rels, "greedy")
        assert plan.order[0] == 1
        assert plan.estimated_max_intermediate == 0

    def test_plan_is_a_permutation(self):
        rels = [rel(("a", "b"), [(1, 2)]), rel(("b", "c"), [(2, 3)]),
                rel(("a", "c"), [(1, 3)]), rel(("d",), [(9,)])]
        for strategy in STRATEGIES:
            plan = plan_join(rels, strategy)
            assert sorted(plan.order) == [0, 1, 2, 3]
            assert len(plan.estimated_sizes) == len(rels) - 1

    def test_empty_input(self):
        for strategy in STRATEGIES:
            plan = plan_join([], strategy)
            assert plan.order == ()
            assert plan.estimated_max_intermediate == 0.0
            assert order_relations([], strategy) == []

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SolverError):
            plan_join([rel(("a",), [(1,)])], "quantum")

    def test_deterministic(self):
        rels = [rel(("a", "b"), [(i, j) for i in range(3) for j in range(2)]),
                rel(("b", "c"), [(i, i) for i in range(4)]),
                rel(("c", "a"), [(i, 0) for i in range(3)])]
        plans = {plan_join(rels, "greedy").order for _ in range(5)}
        assert len(plans) == 1


def test_order_relations_returns_same_multiset():
    rels = [rel(("a", "b"), [(1, 2)]), rel(("b", "c"), [(2, 3), (4, 5)])]
    for strategy in STRATEGIES:
        ordered = order_relations(rels, strategy)
        assert sorted(ordered, key=repr) == sorted(rels, key=repr)


def test_removed_executions_raise_typed_error_naming_the_survivors():
    """"interned" and "parallel" are no longer join executions: naming
    either fails with a SolverError that lists the executions that remain."""
    assert EXECUTIONS == ("indexed", "scan", "wcoj", "columnar")
    rels = [rel(("a", "b"), [(1, 2)]), rel(("b", "c"), [(2, 3)])]
    for attempt in (
        lambda: parse_strategy("interned"),
        lambda: parse_strategy("smallest+parallel"),
        lambda: join_all(rels, execution="parallel"),
    ):
        with pytest.raises(SolverError) as info:
            attempt()
        assert str(EXECUTIONS) in str(info.value)
