"""Adversarial regressions for the columnar layer: mixed-strategy pipelines
and the numpy-absent fallback.

Two families of attack:

* **mixed pipelines** — one query interleaving row and columnar operators
  over the *same* relation objects.  Memoized structures (hash indexes,
  code indexes, column stores) are shared across the execution boundary,
  and each store/index carries its own relation-local codec, so every
  batched probe must translate between code spaces instead of assuming
  they align.  Probe values unknown to the build side (no code at all) and
  relations whose codecs disagree about the same value's code are the
  specific traps.

* **numpy masking** — the stdlib fallback is not a separate implementation
  to trust but a differential peer: with ``numpy`` masked out of
  ``sys.modules`` every kernel must produce the identical relation, and
  the propagation engine must degrade to the interned bitset engine
  (same fixpoints by construction, not by luck).
"""

import builtins
import sys

import pytest

from repro.consistency.propagation import (
    ColumnarEngine,
    InternedEngine,
    PropagationStats,
    _BitsetConstraint,
    _ColumnarConstraint,
    make_engine,
)
from repro.csp.instance import Constraint, CSPInstance
from repro.relational.algebra import join_all, natural_join, select, semijoin
from repro.relational.columnar import (
    batched_natural_join,
    batched_semijoin,
    column_store,
    mask_select,
    numpy_backend,
    project_distinct,
    reset_numpy_backend,
)
from repro.relational.relation import Relation
from repro.relational.stats import collect_stats


def _rel(attrs, rows):
    return Relation(attrs, rows)


# -- mixed-strategy pipelines ------------------------------------------------


class TestMixedPipelines:
    def test_row_join_feeds_columnar_join(self):
        """scan ⋈ → columnar ⋈: the intermediate built by the row path is
        columnized lazily, and the result matches the all-row plan."""
        r = _rel(("a", "b"), [(i, i % 4) for i in range(16)])
        s = _rel(("b", "c"), [(i % 4, chr(97 + i % 3)) for i in range(12)])
        t = _rel(("c", "d"), [(chr(97 + i % 3), i) for i in range(9)])
        oracle = natural_join(natural_join(r, s, execution="scan"), t,
                              execution="scan")
        mid = natural_join(r, s, execution="scan")
        assert natural_join(mid, t, execution="columnar") == oracle
        assert natural_join(mid, t, execution="indexed") == oracle

    def test_columnar_join_feeds_row_join(self):
        r = _rel(("a", "b"), [(i, i % 5) for i in range(20)])
        s = _rel(("b", "c"), [(i % 5, i) for i in range(10)])
        t = _rel(("c",), [(i,) for i in range(0, 10, 2)])
        oracle = natural_join(natural_join(r, s, execution="indexed"), t,
                              execution="indexed")
        mid = batched_natural_join(r, s)
        assert natural_join(mid, t, execution="scan") == oracle

    def test_code_index_reused_by_later_columnar_probe(self):
        """A columnar join memoizes the build side's CodeIndex; a later
        columnar probe against the same relation must reuse it (no rebuild)
        even though the probe side's store codec is a different table."""
        build = _rel(("b", "c"), [(i % 6, i) for i in range(18)])
        left1 = _rel(("a", "b"), [(i, i % 6) for i in range(30)])
        left2 = _rel(("a", "b"), [(i, (i + 1) % 9) for i in range(25)])
        oracle = natural_join(left2, build, execution="scan")
        batched_natural_join(left1, build)  # memoizes the index
        assert build.has_code_index(("b",))
        with collect_stats() as stats:
            assert batched_natural_join(left2, build) == oracle
        assert stats.index_builds == 0  # shared across probe sides
        assert stats.batch_probes == len(left2)

    def test_probe_values_unknown_to_build_codec(self):
        """Codec disagreement across the boundary: the probe side's store
        interns values the build side has never seen (including values whose
        local codes exceed the build codec's base), so the translation LUT
        must map them to misses, never alias them onto valid codes."""
        build = _rel(("k", "v"), [("a", 1), ("b", 2)])
        probe = _rel(
            ("k", "x"),
            [("a", 10), ("b", 11), ("z", 12), ((1, 2), 13), ("zz", 14)],
        )
        assert batched_semijoin(probe, build) == semijoin(probe, build)
        assert batched_natural_join(probe, build) == natural_join(probe, build)

    def test_disjoint_and_identical_schemes(self):
        disjoint_l = _rel(("a",), [(1,), (2,)])
        disjoint_r = _rel(("b",), [(3,), (4,)])
        assert batched_natural_join(disjoint_l, disjoint_r) == natural_join(
            disjoint_l, disjoint_r
        )
        same = _rel(("a", "b"), [(1, 2), (3, 4)])
        other = _rel(("a", "b"), [(1, 2), (5, 6)])
        assert batched_natural_join(same, other) == natural_join(same, other)
        assert batched_semijoin(same, other) == semijoin(same, other)

    def test_join_all_mixes_warm_and_cold_operands(self):
        """One join_all where some operands carry pre-built row indexes and
        stores from earlier queries and others are cold."""
        r = _rel(("a", "b"), [(i, i % 4) for i in range(40)])
        s = _rel(("b", "c"), [(i % 4, i % 7) for i in range(35)])
        t = _rel(("c", "d"), [(i % 7, i) for i in range(21)])
        r.index_on(("b",))         # row-path hash index
        column_store(s)            # columnar store
        s.code_index_on(("b",))    # code-space index
        expected = join_all([r, s, t])
        assert join_all([r, s, t], execution="columnar") == expected
        assert join_all([r, s, t], execution="scan") == expected


# -- numpy-absent fallback ---------------------------------------------------


@pytest.fixture
def no_numpy(monkeypatch):
    """Mask numpy out of the import machinery and drop the cached detection;
    restore both on exit."""
    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy masked for the fallback wall")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", blocked)
    for mod in [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]:
        monkeypatch.delitem(sys.modules, mod)
    reset_numpy_backend()
    yield
    monkeypatch.undo()
    reset_numpy_backend()


@pytest.mark.usefixtures("no_numpy")
class TestNumpyAbsentFallback:
    def test_backend_reports_absent(self):
        assert numpy_backend() is None

    def test_kernels_match_row_oracles_without_numpy(self):
        left = _rel(("a", "b"), [(i, i % 6) for i in range(30)])
        right = _rel(("b", "c"), [(i % 6, chr(97 + i % 4)) for i in range(20)])
        assert batched_natural_join(left, right) == natural_join(
            left, right, execution="indexed"
        )
        assert batched_semijoin(left, right) == semijoin(left, right)
        assert mask_select(left, {"b": lambda v: v % 2 == 0}) == select(
            left, lambda row: row["b"] % 2 == 0
        )
        assert project_distinct(left, ("b",)) == Relation(
            ("b",), [(i,) for i in range(6)]
        )
        # The strategy knob stays legal: join_all reruns the binary fold.
        assert join_all([left, right], execution="columnar") == join_all(
            [left, right]
        )

    def test_store_has_no_np_columns_but_round_trips(self):
        rel = _rel(("a", "b"), [(1, "x"), (2, "y")])
        store = column_store(rel)
        assert store.np_columns() is None
        assert store.to_relation() == rel

    def test_columnar_engine_degrades_to_interned(self):
        """Without numpy the ColumnarEngine keeps the inherited bitset
        constraints — it *is* the interned engine, same fixpoint by
        construction."""
        inst = CSPInstance(
            ["x", "y", "z"],
            [0, 1, 2],
            [
                Constraint(("x", "y"), {(0, 1), (1, 2), (2, 0)}),
                Constraint(("y", "z"), {(1, 2), (2, 0)}),
                Constraint(("z",), [(2,)]),
            ],
        )
        engine = make_engine(inst, "columnar")
        assert isinstance(engine, ColumnarEngine)
        assert all(isinstance(c, _BitsetConstraint) for c in engine.constraints)
        domains = engine.fresh_domains()
        assert engine.propagate(domains, engine.full_worklist(), PropagationStats())
        interned = InternedEngine(inst)
        expected = interned.fresh_domains()
        interned.propagate(expected, interned.full_worklist(), PropagationStats())
        assert domains == expected


def test_columnar_engine_uses_vectorized_constraints_with_numpy():
    """The counterpart pin: with numpy present the constraints really are
    the vectorized kind (so the masking test above is exercising a genuine
    degradation, not the only path)."""
    if numpy_backend() is None:
        pytest.skip("numpy not available")
    inst = CSPInstance(
        ["x", "y"], [0, 1], [Constraint(("x", "y"), {(0, 1), (1, 0)})]
    )
    engine = make_engine(inst, "columnar")
    assert all(isinstance(c, _ColumnarConstraint) for c in engine.constraints)
