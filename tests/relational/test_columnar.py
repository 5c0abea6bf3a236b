"""The columnar layer's Hypothesis wall: every vectorized kernel against
its row-path oracle.

The laws pinned here:

* **round trip** — ``column_store(r).to_relation() == r`` and the store is
  memoized (same object on every later call);
* **mask-select == row-select** — :func:`mask_select` computes exactly
  ``algebra.select`` with the conjunction of the per-attribute predicates;
* **batched probe == per-row probe** — :func:`batched_natural_join` and
  :func:`batched_semijoin` match the ``indexed``/``scan`` row
  executions row for row, and :func:`join_all_columnar` matches
  ``join_all``;
* **column dedup == sorted distinct projection** — :func:`project_distinct`
  equals ``algebra.project``;
* **DENSE_KEY_SPACE_CAP boundary** — packed key spaces of cap−1/cap/cap+1
  flip the :class:`~repro.relational.relation.CodeIndex` between its dense
  bitmap and sparse dict regimes without changing any result;
* **honest accounting** — the first :func:`column_store` build charges
  ``column_builds`` and ``tuples_scanned`` to the active
  :class:`~repro.relational.stats.EvalStats` (mirroring ``warm_index``'s
  rule); memoized hits charge nothing.

Everything runs identically with or without numpy — the kernels are
backend-agnostic by contract, and ``tests/relational/test_columnar_adversarial``
masks numpy out to differentially pin the stdlib fallback.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.algebra import join_all, natural_join, project, select, semijoin
from repro.relational.columnar import (
    ColumnarFallback,
    batched_natural_join,
    batched_semijoin,
    column_store,
    join_all_columnar,
    mask_select,
    numpy_backend,
    project_distinct,
    warm_columns,
)
from repro.relational.relation import DENSE_KEY_SPACE_CAP, Relation
from repro.relational.stats import collect_stats

# Mixed-type values, as in the interning wall: strings, ints, and tuples
# are all realistic domain values and exercise the codec's repr ordering.
VALUES = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.text(alphabet="abx", min_size=0, max_size=2),
    st.tuples(st.booleans()),
)

ATTR_POOL = ("a", "b", "c", "d")


@st.composite
def relations(draw, min_arity=0, max_arity=3):
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    attrs = draw(
        st.permutations(ATTR_POOL).map(lambda p: tuple(p[:arity]))
    )
    rows = draw(
        st.lists(
            st.tuples(*[VALUES] * arity) if arity else st.just(()),
            min_size=0,
            max_size=12,
        )
    )
    return Relation(attrs, rows)


@st.composite
def relation_pairs(draw):
    """Two relations over the shared attribute pool — schemes overlap often,
    sometimes fully, sometimes not at all (Cartesian product)."""
    return draw(relations()), draw(relations())


# -- round trip --------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(relations())
def test_rows_columns_rows_round_trip(rel):
    store = column_store(rel)
    assert store.to_relation() == rel
    assert rel.has_column_store()
    # Memoized: every later call returns the same object and builds nothing.
    assert column_store(rel) is store
    # Columns are positionally aligned 'q' arrays over the store codec.
    assert len(store.columns) == rel.arity
    for j, col in enumerate(store.columns):
        assert len(col) == len(rel)
        view = store.column_view(j)
        assert view.format == "q" and len(view) == len(rel)
        decoded = [store.codec.decode(c) for c in col]
        assert decoded == [t[j] for t in store.rows]


@settings(max_examples=60, deadline=None)
@given(relations(min_arity=1))
def test_np_columns_are_zero_copy_views(rel):
    store = column_store(rel)
    np = numpy_backend()
    if np is None:
        assert store.np_columns() is None
        return
    cols = store.np_columns()
    assert store.np_columns() is cols  # cached
    for j, npcol in enumerate(cols):
        assert npcol.dtype == np.int64
        assert npcol.tolist() == list(store.columns[j])


# -- selection ---------------------------------------------------------------

PREDICATES = [
    ("is-int", lambda v: isinstance(v, int)),
    ("truthy", bool),
    ("short-repr", lambda v: len(repr(v)) <= 2),
]


@settings(max_examples=120, deadline=None)
@given(relations(min_arity=1), st.data())
def test_mask_select_matches_row_select(rel, data):
    chosen = data.draw(
        st.lists(
            st.sampled_from(range(len(PREDICATES))),
            min_size=1,
            max_size=rel.arity,
            unique=True,
        )
    )
    predicates = {
        attr: PREDICATES[k][1] for attr, k in zip(rel.attributes, chosen)
    }
    oracle = select(
        rel, lambda row: all(p(row[a]) for a, p in predicates.items())
    )
    assert mask_select(rel, predicates) == oracle


def test_mask_select_empty_predicates_is_identity():
    rel = Relation(("a", "b"), [(1, 2), (3, 4)])
    assert mask_select(rel, {}) == rel


# -- batched probing ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(relation_pairs())
def test_batched_natural_join_matches_row_oracles(pair):
    left, right = pair
    expected = natural_join(left, right, execution="indexed")
    assert natural_join(left, right, execution="scan") == expected
    assert batched_natural_join(left, right) == expected


@settings(max_examples=150, deadline=None)
@given(relation_pairs())
def test_batched_semijoin_matches_row_oracle(pair):
    left, right = pair
    assert batched_semijoin(left, right) == semijoin(left, right)


@settings(max_examples=80, deadline=None)
@given(st.lists(relations(), min_size=0, max_size=4))
def test_join_all_columnar_matches_join_all(rels):
    if numpy_backend() is None:
        pytest.skip("join_all_columnar requires the numpy backend")
    expected = join_all(rels)
    # The direct call folds in the given operand order while join_all folds
    # in planner order, so column order may legitimately differ — compare as
    # attribute→value mappings (the planner-differential convention).
    got = join_all_columnar(rels)
    assert set(got.attributes) == set(expected.attributes)
    canon = lambda rel: {
        frozenset(m.items()) for m in rel.rows_as_mappings()
    }
    assert canon(got) == canon(expected)
    # Through the strategy knob (planner order + fallback wrapping) the
    # agreement is exact, scheme included.
    assert join_all(rels, execution="columnar") == expected


# -- projection / dedup ------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(relations(), st.data())
def test_project_distinct_matches_project(rel, data):
    attrs = data.draw(
        st.lists(st.sampled_from(ATTR_POOL), unique=True).map(
            lambda picked: tuple(a for a in picked if a in rel.attributes)
        )
    )
    expected = project(rel, attrs)
    got = project_distinct(rel, attrs)
    assert got == expected
    # "Sorted distinct" spelled out: one row per distinct key, no dupes.
    assert len(set(got.tuples)) == len(got)


def test_project_distinct_empty_attributes():
    assert project_distinct(Relation(("a",), [(1,), (2,)]), ()) == Relation(
        (), [()]
    )
    assert project_distinct(Relation.empty(["a"]), ()) == Relation((), [])


# -- the DENSE_KEY_SPACE_CAP boundary ----------------------------------------


def _boundary_relations(n_distinct: int):
    """A build side whose 2-column key space is ``n_distinct ** 2`` and a
    probe side hitting every other key — sized to straddle the cap."""
    build = Relation(
        ("x", "y"), [(i, (i * 7 + 3) % n_distinct) for i in range(n_distinct)]
    )
    probe = Relation(
        ("x", "y", "z"),
        [(i, (i * 7 + 3) % n_distinct, i % 5) for i in range(0, n_distinct, 2)]
        + [(0, 1, 99), (n_distinct, 0, 7)],  # misses: wrong pair / unknown value
    )
    return build, probe


@pytest.mark.parametrize("n_distinct", [255, 256, 257])
def test_dense_key_space_cap_boundary(n_distinct):
    """255² = cap − 511 (dense), 256² = cap exactly (dense), 257² = cap + 513
    (sparse): the CodeIndex regime flips across the boundary while every
    batched kernel keeps matching the row oracle."""
    build, probe = _boundary_relations(n_distinct)
    index = build.code_index_on(("x", "y"))
    space = index.base ** 2
    assert index.dense is (space <= DENSE_KEY_SPACE_CAP)
    if n_distinct < 256:
        assert space < DENSE_KEY_SPACE_CAP
    elif n_distinct == 256:
        assert space == DENSE_KEY_SPACE_CAP
    else:
        assert space > DENSE_KEY_SPACE_CAP

    assert batched_semijoin(probe, build) == semijoin(probe, build)
    expected = natural_join(probe, build, execution="indexed")
    assert batched_natural_join(probe, build) == expected
    assert natural_join(probe, build, execution="columnar") == expected


# -- honest accounting -------------------------------------------------------


class TestHonestAccounting:
    def test_first_build_is_charged_to_the_building_query(self):
        rel = Relation(("a", "b"), [(i, i % 3) for i in range(10)])
        with collect_stats() as stats:
            column_store(rel)
        assert stats.column_builds == 1
        assert stats.tuples_scanned == 10
        assert stats.intern_tables == 1
        assert stats.operator_counts.get("column_build") == 1

    def test_memoized_hit_charges_nothing(self):
        rel = Relation(("a", "b"), [(i, i % 3) for i in range(10)])
        column_store(rel)
        with collect_stats() as stats:
            column_store(rel)
        assert stats.column_builds == 0
        assert stats.tuples_scanned == 0
        assert stats.operator_counts == {}

    def test_lazy_build_inside_a_join_is_charged_once(self):
        left = Relation(("a", "b"), [(i, i % 4) for i in range(12)])
        right = Relation(("b", "c"), [(i % 4, i) for i in range(8)])
        with collect_stats() as first:
            batched_natural_join(left, right)
        assert first.column_builds == 1  # the probe side columnized lazily
        assert first.batch_probes > 0
        with collect_stats() as second:
            batched_natural_join(left, right)
        assert second.column_builds == 0  # store and index both memoized
        assert second.index_builds == 0
        assert second.batch_probes == first.batch_probes  # probing still counted

    def test_warm_columns_mirrors_warm_index(self):
        rel = Relation(("a", "b"), [(i, i % 3) for i in range(7)])
        with collect_stats() as stats:
            assert warm_columns(rel, ("b",)) is True
        assert stats.column_builds == 1
        assert stats.index_builds == 1
        assert stats.tuples_scanned == 14  # once for the store, once for the index
        with collect_stats() as again:
            assert warm_columns(rel, ("b",)) is False
        assert again.column_builds == 0
        assert again.index_builds == 0

    def test_mask_ops_counted_per_row_per_column(self):
        rel = Relation(("a", "b"), [(i, i % 3) for i in range(9)])
        with collect_stats() as stats:
            mask_select(rel, {"a": lambda v: v % 2 == 0, "b": bool})
        assert stats.mask_ops == 18  # 9 rows × 2 masked columns


# -- fallback plumbing -------------------------------------------------------


def test_packed_key_space_cap_triggers_fallback(monkeypatch):
    """When a fold step's packed key space exceeds the 64-bit lane the
    multi-way fold refuses (ColumnarFallback) and the strategy knob reruns
    with the binary columnar operators — same rows either way."""
    import repro.relational.columnar as columnar

    if numpy_backend() is None:
        pytest.skip("the cap only guards the numpy packed fold")
    left = Relation(("a", "b"), [(i, i % 5) for i in range(20)])
    right = Relation(("a", "b", "c"), [(i, i % 5, i % 3) for i in range(20)])
    expected = join_all([left, right])
    monkeypatch.setattr(columnar, "PACKED_KEY_SPACE_CAP", 10)
    with pytest.raises(ColumnarFallback):
        join_all_columnar([left, right])
    assert join_all([left, right], execution="columnar") == expected
