"""Property-based tests (hypothesis) for the algebra laws the planner needs.

The cost-guided planner freely reorders binary joins, which is only sound
because the natural join is commutative and associative (up to column
order), ``project∘join`` onto the left scheme is the semijoin, and
selections commute with joins when the predicate only reads one side.
These are exactly the invariants checked here, on small random relations.
"""

from hypothesis import given, settings, strategies as st

from repro.relational.algebra import (
    join_all,
    natural_join,
    project,
    select,
    semijoin,
)
from repro.relational.relation import Relation

# Small shared attribute pool so random schemes overlap often — joins with
# shared attributes are the interesting case.
ATTRS = ("a", "b", "c", "d")
VALUES = st.integers(min_value=0, max_value=3)


@st.composite
def relations(draw, min_arity=1, max_arity=3, max_rows=6):
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    scheme = draw(
        st.permutations(ATTRS).map(lambda p: tuple(p[:arity]))
    )
    rows = draw(
        st.lists(
            st.tuples(*[VALUES] * arity), min_size=0, max_size=max_rows
        )
    )
    return Relation(scheme, rows)


def normalized(relation: Relation):
    """A column-order-independent canonical form: scheme set plus rows as
    attribute→value mappings."""
    return (
        frozenset(relation.attributes),
        frozenset(frozenset(zip(relation.attributes, t)) for t in relation),
    )


@settings(max_examples=80, deadline=None)
@given(relations(), relations())
def test_join_commutative_up_to_column_order(r, s):
    assert normalized(natural_join(r, s)) == normalized(natural_join(s, r))


@settings(max_examples=80, deadline=None)
@given(relations(), relations(), relations())
def test_join_associative_up_to_column_order(r, s, t):
    left = natural_join(natural_join(r, s), t)
    right = natural_join(r, natural_join(s, t))
    assert normalized(left) == normalized(right)


@settings(max_examples=50, deadline=None)
@given(relations(), relations(), relations())
def test_join_all_order_independent(r, s, t):
    results = {
        strategy: join_all([r, s, t], strategy=strategy)
        for strategy in ("greedy", "smallest", "textbook")
    }
    forms = {normalized(rel) for rel in results.values()}
    assert len(forms) == 1


@settings(max_examples=80, deadline=None)
@given(relations())
def test_join_unit_identity(r):
    assert natural_join(r, Relation.unit()) == r
    assert normalized(natural_join(Relation.unit(), r)) == normalized(r)


@settings(max_examples=80, deadline=None)
@given(relations())
def test_join_idempotent(r):
    assert normalized(natural_join(r, r)) == normalized(r)


@settings(max_examples=80, deadline=None)
@given(relations(), relations())
def test_project_join_is_semijoin(r, s):
    """π_{scheme(r)}(r ⋈ s) = r ⋉ s — the identity Yannakakis rests on."""
    assert project(natural_join(r, s), r.attributes) == semijoin(r, s)


@settings(max_examples=80, deadline=None)
@given(relations(), relations())
def test_selection_pushdown(r, s):
    """A predicate reading only r's first attribute commutes with the join:
    σ_p(r ⋈ s) = σ_p(r) ⋈ s."""
    attr = r.attributes[0]
    predicate = lambda row: row[attr] % 2 == 0
    pushed = natural_join(select(r, predicate), s)
    late = select(natural_join(r, s), predicate)
    assert normalized(pushed) == normalized(late)


@settings(max_examples=80, deadline=None)
@given(relations())
def test_select_conjunction_is_composition(r):
    attr = r.attributes[0]
    p = lambda row: row[attr] >= 1
    q = lambda row: row[attr] <= 2
    both = select(r, lambda row: p(row) and q(row))
    assert select(select(r, p), q) == both


@settings(max_examples=80, deadline=None)
@given(relations())
def test_project_composition(r):
    """Projecting twice equals projecting once onto the inner scheme."""
    sub = r.attributes[: max(1, r.arity - 1)]
    inner = sub[:1]
    assert project(project(r, sub), inner) == project(r, inner)


@settings(max_examples=50, deadline=None)
@given(relations(), relations())
def test_semijoin_never_grows(r, s):
    reduced = semijoin(r, s)
    assert reduced.tuples <= r.tuples
    # Semijoin is idempotent with the same reducer.
    assert semijoin(reduced, s) == reduced


# --- indexed vs scan execution -------------------------------------------
#
# The hash-indexed build/probe operators must be observationally identical
# to the nested-loop scan on every input.  Pairs are drawn with controlled
# schema overlap so all three interesting regimes are exercised: shared
# (same scheme → intersection), disjoint (no common attribute → Cartesian
# product), and overlapping (a proper subset of attributes in common).

DISJOINT_ATTRS = ("e", "f")


@st.composite
def relation_pairs(draw, max_rows=6):
    """A pair of relations whose schemes share all, some, or none of their
    attributes, with the overlap regime chosen by hypothesis."""
    overlap = draw(st.sampled_from(["shared", "overlapping", "disjoint"]))
    left = draw(relations(max_rows=max_rows))
    if overlap == "shared":
        scheme = draw(st.permutations(left.attributes).map(tuple))
    elif overlap == "disjoint":
        arity = draw(st.integers(min_value=1, max_value=len(DISJOINT_ATTRS)))
        scheme = draw(
            st.permutations(DISJOINT_ATTRS).map(lambda p: tuple(p[:arity]))
        )
    else:
        common = draw(st.sampled_from(left.attributes))
        extra = draw(st.sampled_from(DISJOINT_ATTRS))
        scheme = (common, extra)
    rows = draw(
        st.lists(
            st.tuples(*[VALUES] * len(scheme)), min_size=0, max_size=max_rows
        )
    )
    return left, Relation(scheme, rows)


@settings(max_examples=120, deadline=None)
@given(relation_pairs())
def test_join_indexed_matches_scan(pair):
    r, s = pair
    assert natural_join(r, s, execution="indexed") == natural_join(
        r, s, execution="scan"
    )


@settings(max_examples=120, deadline=None)
@given(relation_pairs())
def test_join_columnar_matches_scan(pair):
    """The radix-packed code-space join is observationally identical to the
    nested-loop scan (and hence to the indexed execution) on every input."""
    r, s = pair
    assert natural_join(r, s, execution="columnar") == natural_join(
        r, s, execution="scan"
    )


@settings(max_examples=120, deadline=None)
@given(relation_pairs())
def test_semijoin_columnar_matches_scan_and_shrinks(pair):
    r, s = pair
    columnar = semijoin(r, s, execution="columnar")
    assert columnar == semijoin(r, s, execution="scan")
    assert columnar.tuples <= r.tuples


@settings(max_examples=120, deadline=None)
@given(relation_pairs())
def test_join_indexed_commutative_up_to_column_order(pair):
    r, s = pair
    assert normalized(natural_join(r, s, execution="indexed")) == normalized(
        natural_join(s, r, execution="indexed")
    )


@settings(max_examples=120, deadline=None)
@given(relation_pairs())
def test_semijoin_indexed_matches_scan_and_shrinks(pair):
    r, s = pair
    indexed = semijoin(r, s, execution="indexed")
    assert indexed == semijoin(r, s, execution="scan")
    assert indexed.tuples <= r.tuples


@settings(max_examples=50, deadline=None)
@given(relations(), relations(), relations())
def test_join_all_compound_strategies_agree(r, s, t):
    """Order and execution are orthogonal: every order+execution compound
    spec computes the same relation."""
    specs = [
        "greedy+indexed", "greedy+scan", "smallest+scan",
        "textbook+indexed", "textbook+scan", "indexed", "scan",
        "columnar", "greedy+columnar", "textbook+columnar",
    ]
    forms = {
        normalized(join_all([r, s, t], strategy=spec)) for spec in specs
    }
    assert len(forms) == 1
