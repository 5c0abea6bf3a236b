"""Operators build their outputs with ``Relation.from_trusted_rows``.

Derived relations skip the per-row arity check of the public constructor:
their rows come from rows that were already valid.  This wall checks that
claim over the ~200 instances of the planner differential suite (120
conjunctive-query databases and 81 random binary CSPs): every operator's
trusted output must equal the relation the validating constructor builds
from the same rows, and its rows must be plain tuples.  The scheme is
still checked, so a malformed one keeps raising ``SchemaError``.
"""

import pytest

from repro.cq.evaluate import atom_relation
from repro.csp.solvers.join import constraint_relations
from repro.errors import SchemaError
from repro.generators.csp_random import random_binary_csp
from repro.generators.graphs import random_digraph
from repro.generators.queries import random_query
from repro.relational.algebra import (
    difference,
    intersection,
    join_all,
    natural_join,
    project,
    rename,
    select,
    semijoin,
    union,
)
from repro.relational.columnar import column_store, mask_select, project_distinct
from repro.relational.planner import EXECUTIONS
from repro.relational.relation import Relation
from repro.relational.structure import Structure

CQ_SEEDS = range(60)
CSP_SEEDS = range(27)


def assert_valid(result: Relation) -> None:
    """The trusted output equals its validated rebuild, row for row."""
    assert result == Relation(result.attributes, result.tuples)
    assert all(type(t) is tuple for t in result.tuples)


def check_operators(relations: list[Relation]) -> None:
    oracle = join_all(relations, execution="scan")
    for execution in EXECUTIONS:
        joined = join_all(relations, execution=execution)
        assert_valid(joined)
        # The output scheme's order may depend on the plan; the rows may not.
        scheme = tuple(sorted(joined.attributes))
        assert project(joined, scheme) == project(oracle, scheme)
    for left, right in zip(relations, relations[1:] + relations[:1]):
        for execution in EXECUTIONS:
            assert_valid(natural_join(left, right, execution=execution))
            assert_valid(semijoin(left, right, execution=execution))
        attrs = left.attributes
        assert_valid(project(left, attrs[::-1]))
        assert_valid(project(left, attrs[:1]))
        assert_valid(project_distinct(left, attrs[::-1]))
        assert_valid(column_store(left).to_relation())
        kept = select(left, lambda row: hash(row[attrs[0]]) % 2 == 0)
        assert_valid(kept)
        assert_valid(mask_select(left, {attrs[0]: lambda v: hash(v) % 2 == 0}))
        renamed = rename(left, {a: a + "_r" for a in attrs})
        assert_valid(renamed)
        for op in (union, intersection, difference):
            assert_valid(op(left, kept))


@pytest.mark.parametrize("head_arity", [0, 2])
@pytest.mark.parametrize("seed", CQ_SEEDS)
def test_cq_operator_outputs_match_validated_rebuild(seed, head_arity):
    query = random_query(
        n_atoms=2 + seed % 4,
        n_variables=2 + seed % 4,
        seed=seed,
        head_arity=head_arity,
    )
    database = random_digraph(4 + seed % 4, 0.4, seed=seed)
    relations = [atom_relation(atom, database) for atom in query.body]
    for relation in relations:
        assert_valid(relation)
    check_operators(relations)


@pytest.mark.parametrize("tightness", [0.2, 0.45, 0.7])
@pytest.mark.parametrize("seed", CSP_SEEDS)
def test_csp_operator_outputs_match_validated_rebuild(seed, tightness):
    instance = random_binary_csp(
        n_variables=4 + seed % 3,
        domain_size=2 + seed % 2,
        n_constraints=3 + seed % 5,
        tightness=tightness,
        seed=seed,
    )
    check_operators(constraint_relations(instance))


def test_identity_atom_shares_the_structure_rows():
    from repro.cq.parser import parse_atom

    database = Structure({"E": 2}, range(4), {"E": [(0, 1), (1, 2), (2, 2)]})
    relation = atom_relation(parse_atom("E(X, Y)"), database)
    assert relation.tuples is database.relation("E")
    # A repeated variable or a constant keeps the filtered walk.
    assert atom_relation(parse_atom("E(X, X)"), database).tuples == {(2,)}
    assert atom_relation(parse_atom("E(1, Y)"), database).tuples == {(2,)}


def test_project_onto_own_scheme_is_the_relation_itself():
    r = Relation(("x", "y"), [(1, 2), (3, 4)])
    assert project(r, ("x", "y")) is r
    assert project(r, ("y", "x")) == Relation(("y", "x"), [(2, 1), (4, 3)])


@pytest.mark.parametrize("scheme", [("a", "a"), ("a", ""), ("a", 3)])
def test_trusted_construction_still_checks_the_scheme(scheme):
    with pytest.raises(SchemaError):
        Relation.from_trusted_rows(scheme, frozenset({(1, 2)}))


def test_project_onto_a_repeated_attribute_raises():
    r = Relation(("x", "y"), [(1, 2)])
    with pytest.raises(SchemaError):
        project(r, ("x", "x"))
