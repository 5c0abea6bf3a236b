"""EvalStats behaviour: zero on empty, monotone under composition, no
cross-query leakage, and the lazy select row view."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import (
    join_all,
    natural_join,
    project,
    select,
    semijoin,
    warm_index,
)
from repro.relational.relation import Relation
from repro.relational.stats import EvalStats, collect_stats, current_stats


def small(name_pair, rows):
    return Relation(name_pair, rows)


R = small(("x", "y"), [(1, 2), (2, 3), (3, 4)])
S = small(("y", "z"), [(2, 10), (3, 11)])


class TestZeroAndEmpty:
    def test_fresh_stats_all_zero(self):
        stats = EvalStats()
        assert stats.tuples_scanned == 0
        assert stats.hash_probes == 0
        assert stats.tuples_emitted == 0
        assert stats.intermediate_sizes == []
        assert stats.max_intermediate == 0
        assert stats.total_intermediate == 0
        assert stats.joins == 0
        assert stats.wall_seconds == 0.0

    def test_empty_inputs_scan_nothing(self):
        empty_r = Relation.empty(("x", "y"))
        empty_s = Relation.empty(("y", "z"))
        with collect_stats() as stats:
            result = natural_join(empty_r, empty_s)
        assert not result
        assert stats.tuples_scanned == 0
        assert stats.hash_probes == 0
        assert stats.tuples_emitted == 0
        assert stats.max_intermediate == 0

    def test_no_collection_outside_context(self):
        assert current_stats() is None
        natural_join(R, S)  # must not blow up nor record anywhere
        assert current_stats() is None


class TestCounting:
    def test_join_counters(self):
        # Fresh relations: memoized indexes built by other tests must not
        # change this test's build accounting.
        r = small(("x", "y"), [(1, 2), (2, 3), (3, 4)])
        s = small(("y", "z"), [(2, 10), (3, 11)])
        with collect_stats() as stats:
            result = natural_join(r, s)
        assert stats.joins == 1
        # First join pays the build side (s, smaller) plus the probe side.
        assert stats.tuples_scanned == len(r) + len(s)
        assert stats.hash_probes == len(r)
        assert stats.index_builds == 1
        assert stats.index_hits == 2
        assert stats.probe_misses == 1
        assert stats.tuples_emitted == len(result) == 2
        assert stats.intermediate_sizes == [2]
        assert stats.wall_seconds > 0.0

    def test_select_project_semijoin_counters(self):
        r = small(("x", "y"), [(1, 2), (2, 3), (3, 4)])
        s = small(("y", "z"), [(2, 10), (3, 11)])
        with collect_stats() as stats:
            select(r, lambda row: row["x"] > 1)
            project(r, ("x",))
            semijoin(r, s)
        assert stats.operator_counts == {"select": 1, "project": 1, "semijoin": 1}
        assert stats.tuples_scanned == len(r) + len(r) + (len(r) + len(s))
        assert stats.index_builds == 1

    def test_join_all_records_every_intermediate(self):
        with collect_stats() as stats:
            join_all([R, S])
        # One join against the unit seed plus one real join.
        assert stats.joins == 2
        assert len(stats.intermediate_sizes) == 2


class TestIndexCounters:
    def test_memoized_index_is_not_rebuilt(self):
        r = small(("x", "y"), [(1, 2), (2, 3), (3, 4)])
        s = small(("y", "z"), [(2, 10), (3, 11)])
        with collect_stats() as first:
            natural_join(r, s)
        with collect_stats() as second:
            natural_join(r, s)
        assert first.index_builds == 1
        assert second.index_builds == 0
        # The repeat probe pays only for the probe side, not the build.
        assert second.tuples_scanned == len(r)
        assert second.tuples_emitted == first.tuples_emitted

    def test_semijoin_reuses_join_index(self):
        r = small(("x", "y"), [(1, 2), (2, 3), (3, 4)])
        s = small(("y", "z"), [(2, 10), (3, 11)])
        semijoin(r, s)  # builds s's index on ("y",)
        with collect_stats() as stats:
            semijoin(r, s)
        assert stats.index_builds == 0
        assert stats.tuples_scanned == len(r)
        assert stats.index_hits == 2
        assert stats.probe_misses == 1

    def test_scan_execution_records_no_index_traffic(self):
        r = small(("x", "y"), [(1, 2), (2, 3), (3, 4)])
        s = small(("y", "z"), [(2, 10), (3, 11)])
        with collect_stats() as stats:
            natural_join(r, s, execution="scan")
        assert stats.index_builds == 0
        assert stats.index_hits == 0
        assert stats.probe_misses == 0
        assert stats.hash_probes == 0
        # Nested loops read the whole right side once per left row.
        assert stats.tuples_scanned == len(r) + len(r) * len(s)

    def test_warm_index_charges_build_once(self):
        r = small(("x", "y"), [(1, 2), (2, 3), (3, 4)])
        s = small(("y", "z"), [(2, 10), (3, 11)])
        with collect_stats() as stats:
            assert warm_index(r, {"y"}) is True
            assert warm_index(r, ("y",)) is False  # memoized: free
        assert stats.index_builds == 1
        assert stats.tuples_scanned == len(r)
        assert stats.operator_counts == {"index_build": 1}
        # The warmed side now wins the build even though it is larger.
        with collect_stats() as stats:
            natural_join(r, s)
        assert stats.index_builds == 0
        assert stats.tuples_scanned == len(s)
        assert stats.hash_probes == len(s)

    def test_indexed_scans_fewer_tuples_than_scan(self):
        r = small(("x", "y"), [(i, i + 1) for i in range(8)])
        s = small(("y", "z"), [(i, 2 * i) for i in range(8)])
        runs = {}
        for execution in ("indexed", "scan"):
            fresh_r = small(r.attributes, r.tuples)
            fresh_s = small(s.attributes, s.tuples)
            with collect_stats() as stats:
                natural_join(fresh_r, fresh_s, execution=execution)
            runs[execution] = stats.tuples_scanned
        assert runs["indexed"] < runs["scan"]


class TestComposition:
    def test_merge_is_monotone_addition(self):
        # Warm the memoized hash indexes so all three runs probe the same
        # pre-built index and the counters compose exactly.
        natural_join(R, S)
        natural_join(S, R)
        with collect_stats() as first:
            natural_join(R, S)
        with collect_stats() as second:
            natural_join(S, R)
        with collect_stats() as combined:
            natural_join(R, S)
            natural_join(S, R)
        merged = EvalStats().merge(first).merge(second)
        assert merged.tuples_scanned == combined.tuples_scanned
        assert merged.hash_probes == combined.hash_probes
        assert merged.tuples_emitted == combined.tuples_emitted
        assert merged.intermediate_sizes == combined.intermediate_sizes
        assert merged.operator_counts == combined.operator_counts

    def test_counters_never_decrease_during_a_run(self):
        with collect_stats() as stats:
            before = (stats.tuples_scanned, stats.hash_probes, stats.joins)
            natural_join(R, S)
            mid = (stats.tuples_scanned, stats.hash_probes, stats.joins)
            natural_join(R, S)
            after = (stats.tuples_scanned, stats.hash_probes, stats.joins)
        assert before <= mid <= after
        assert mid < after


class TestIsolation:
    def test_reset_restores_fresh_state(self):
        with collect_stats() as stats:
            natural_join(R, S)
        stats.reset()
        assert stats.as_dict() == EvalStats().as_dict()

    def test_two_runs_identical_counts(self):
        """No leakage across runs: the same query twice gives equal stats."""
        def run():
            with collect_stats() as stats:
                join_all([R, S], strategy="greedy")
            return stats
        a, b = run(), run()
        assert a.tuples_scanned == b.tuples_scanned
        assert a.intermediate_sizes == b.intermediate_sizes
        assert a.operator_counts == b.operator_counts

    def test_nested_contexts_shadow_not_leak(self):
        with collect_stats() as outer:
            natural_join(R, S)
            with collect_stats() as inner:
                natural_join(R, S)
            after_inner = outer.joins
        assert inner.joins == 1
        assert after_inner == 1  # inner work not charged to outer
        assert current_stats() is None

    def test_explicit_stats_object_reusable(self):
        stats = EvalStats()
        with collect_stats(stats) as s:
            assert s is stats
            natural_join(R, S)
        first = stats.joins
        with collect_stats(stats):
            natural_join(R, S)
        assert stats.joins == first + 1  # accumulates when reused on purpose


class TestLazySelectRow:
    def test_predicate_receives_mapping_not_dict(self):
        seen = []

        def predicate(row):
            seen.append(row)
            return True

        select(R, predicate)
        assert seen and not any(isinstance(row, dict) for row in seen)
        row = seen[0]
        assert set(row) == {"x", "y"}
        assert len(row) == 2
        assert dict(row) in [dict(zip(R.attributes, t)) for t in R]

    def test_partial_access_works(self):
        result = select(R, lambda row: row["x"] >= 2)
        assert result.tuples == {(2, 3), (3, 4)}

    def test_missing_attribute_raises_keyerror(self):
        with pytest.raises(KeyError):
            select(R, lambda row: row["nope"])


def _rel(attrs, n, width, seed):
    rng = random.Random(seed)
    return Relation(
        attrs, {tuple(rng.randrange(width) for _ in attrs) for _ in range(n)}
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), order=st.randoms())
def test_merge_totals_are_order_insensitive(seed, order):
    blocks = []
    for i in range(4):
        with collect_stats() as stats:
            natural_join(
                _rel(("x", "y"), 60, 9, seed + i), _rel(("y", "z"), 60, 9, seed - i)
            )
        blocks.append(stats)
    forward = EvalStats()
    for b in blocks:
        forward.merge(b)
    shuffled = list(blocks)
    order.shuffle(shuffled)
    backward = EvalStats()
    for b in shuffled:
        backward.merge(b)
    fdict, bdict = forward.as_dict(), backward.as_dict()
    # intermediate_sizes is a sequence (order-sensitive by design): compare
    # as multisets; every scalar total must match exactly.
    assert sorted(fdict.pop("intermediate_sizes")) == sorted(
        bdict.pop("intermediate_sizes")
    )
    assert fdict == bdict
