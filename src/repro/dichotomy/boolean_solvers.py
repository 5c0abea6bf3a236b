"""Dedicated polynomial solvers for Schaefer's six tractable classes.

Each solver takes a Boolean :class:`~repro.csp.instance.CSPInstance` whose
relations belong to the corresponding class and produces a solution (or
``None``), in polynomial time:

* 0-valid / 1-valid — the constant assignment;
* Horn (min-closed) — generalized arc consistency, then the minimum of each
  filtered domain (sound because min-closed relations keep coordinatewise
  minima of supports);
* dual-Horn (max-closed) — dually, the maximum;
* bijunctive (majority-closed) — translate every relation into its
  equivalent set of ≤2-clauses and run 2-SAT on the implication graph;
* affine (minority-closed) — extract the linear system over GF(2) each
  relation is the solution set of, and Gauss-eliminate.

:func:`solve_boolean` classifies the instance and dispatches, falling back
to backtracking when no class applies — the executable form of the
dichotomy's tractable side (benchmark E7).
"""

from __future__ import annotations

from itertools import product
from typing import Any

from repro.consistency.arc import ac3
from repro.csp.instance import CSPInstance
from repro.dichotomy.cnf import CNF, two_sat
from repro.dichotomy.schaefer import SchaeferClass, classify_instance
from repro.errors import DomainError, SolverError

__all__ = [
    "solve_zero_valid",
    "solve_one_valid",
    "solve_horn",
    "solve_dual_horn",
    "solve_bijunctive",
    "solve_affine",
    "relation_to_2cnf_clauses",
    "relation_to_linear_system",
    "solve_boolean",
]


def _check_boolean_instance(instance: CSPInstance) -> CSPInstance:
    if not instance.domain <= {0, 1}:
        raise DomainError("Boolean solvers require domain ⊆ {0, 1}")
    return instance.normalize()


def solve_zero_valid(instance: CSPInstance) -> dict[Any, int]:
    """The all-0 assignment (valid whenever every relation is 0-valid)."""
    instance = _check_boolean_instance(instance)
    assignment = {v: 0 for v in instance.variables}
    if not instance.is_solution(assignment):
        raise SolverError("instance is not 0-valid")
    return assignment


def solve_one_valid(instance: CSPInstance) -> dict[Any, int]:
    """The all-1 assignment (valid whenever every relation is 1-valid)."""
    instance = _check_boolean_instance(instance)
    assignment = {v: 1 for v in instance.variables}
    if not instance.is_solution(assignment):
        raise SolverError("instance is not 1-valid")
    return assignment


def _solve_lattice(instance: CSPInstance, pick_min: bool) -> dict[Any, int] | None:
    instance = _check_boolean_instance(instance)
    result = ac3(instance)
    if not result.consistent:
        return None
    choose = min if pick_min else max
    assignment = {v: choose(result.domains[v]) for v in instance.variables}
    if not instance.is_solution(assignment):
        raise SolverError(
            "lattice solver produced an invalid assignment; "
            "are all relations min-/max-closed?"
        )
    return assignment


def solve_horn(instance: CSPInstance) -> dict[Any, int] | None:
    """Solve a min-closed (Horn) Boolean instance: GAC then minima."""
    return _solve_lattice(instance, pick_min=True)


def solve_dual_horn(instance: CSPInstance) -> dict[Any, int] | None:
    """Solve a max-closed (dual-Horn) Boolean instance: GAC then maxima."""
    return _solve_lattice(instance, pick_min=False)


def relation_to_2cnf_clauses(
    scope: tuple[Any, ...], relation: frozenset[tuple[int, ...]]
) -> list[tuple[tuple[Any, int], ...]] | None:
    """The ≤2-clauses (over ``(variable, sign)`` literals; sign 1 = positive)
    entailed by the constraint, or ``None`` if their conjunction is strictly
    weaker than the relation — which happens exactly when the relation is
    not bijunctive."""
    arity = len(scope)
    clauses: list[tuple[tuple[Any, int], ...]] = []
    # Candidate clauses over at most two scope positions.
    candidates: list[list[tuple[int, int]]] = []  # [(position, sign)]
    for i in range(arity):
        for si in (0, 1):
            candidates.append([(i, si)])
            for j in range(i + 1, arity):
                for sj in (0, 1):
                    candidates.append([(i, si), (j, sj)])
    entailed = []
    for cand in candidates:
        if all(any(row[pos] == sign for pos, sign in cand) for row in relation):
            entailed.append(cand)
    # Check the conjunction of entailed clauses is exactly the relation.
    allowed = set()
    for row in product((0, 1), repeat=arity):
        if all(any(row[pos] == sign for pos, sign in c) for c in entailed):
            allowed.add(row)
    if relation and allowed != set(relation):
        return None
    if not relation:
        return None  # the empty relation is not expressible as 2-CNF
    for cand in entailed:
        clauses.append(tuple((scope[pos], sign) for pos, sign in cand))
    return clauses


def solve_bijunctive(instance: CSPInstance) -> dict[Any, int] | None:
    """Solve a majority-closed Boolean instance via 2-CNF translation + SCC."""
    instance = _check_boolean_instance(instance)
    var_ids = {v: i + 1 for i, v in enumerate(instance.variables)}
    int_clauses: list[tuple[int, ...]] = []
    for c in instance.constraints:
        if not c.relation:
            return None
        clauses = relation_to_2cnf_clauses(c.scope, c.relation)
        if clauses is None:
            raise SolverError(
                f"constraint on {c.scope!r} is not bijunctive (no 2-CNF equivalent)"
            )
        for clause in clauses:
            int_clauses.append(
                tuple(var_ids[v] if sign else -var_ids[v] for v, sign in clause)
            )
    model = two_sat(CNF(int_clauses))
    if model is None:
        return None
    assignment = {v: int(model.get(var_ids[v], False)) for v in instance.variables}
    if not instance.is_solution(assignment):
        raise SolverError("2-SAT model violates the original instance")
    return assignment


def relation_to_linear_system(
    scope: tuple[Any, ...], relation: frozenset[tuple[int, ...]]
) -> list[tuple[tuple[Any, ...], int]] | None:
    """Linear equations over GF(2) whose solution set equals the relation, or
    ``None`` when no such system exists (the relation is not affine).

    Each equation is ``(variables-with-coefficient-1, constant)``; candidate
    equations over the scope are enumerated (2^arity coefficient vectors) and
    kept when satisfied by every row.
    """
    arity = len(scope)
    if not relation:
        return None  # the empty relation is not an affine subspace
    equations: list[tuple[tuple[int, ...], int]] = []
    for coeffs in product((0, 1), repeat=arity):
        if not any(coeffs):
            continue
        values = {sum(c * row[i] for i, c in enumerate(coeffs)) % 2 for row in relation}
        if len(values) == 1:
            equations.append((coeffs, values.pop()))
    # The system's solution set must be exactly the relation.
    solutions = set()
    for row in product((0, 1), repeat=arity):
        if all(
            sum(c * row[i] for i, c in enumerate(coeffs)) % 2 == rhs
            for coeffs, rhs in equations
        ):
            solutions.add(row)
    if solutions != set(relation):
        return None
    return [
        (tuple(scope[i] for i, c in enumerate(coeffs) if c), rhs)
        for coeffs, rhs in equations
    ]


def solve_affine(instance: CSPInstance) -> dict[Any, int] | None:
    """Solve a minority-closed Boolean instance by GF(2) Gaussian elimination."""
    instance = _check_boolean_instance(instance)
    variables = list(instance.variables)
    var_index = {v: i for i, v in enumerate(variables)}
    n = len(variables)

    rows: list[list[int]] = []  # each row: n coefficients + rhs
    for c in instance.constraints:
        system = relation_to_linear_system(c.scope, c.relation)
        if system is None:
            if not c.relation:
                return None
            raise SolverError(f"constraint on {c.scope!r} is not affine")
        for vars_with_one, rhs in system:
            row = [0] * (n + 1)
            for v in vars_with_one:
                row[var_index[v]] ^= 1
            row[n] = rhs
            rows.append(row)

    # Gaussian elimination over GF(2).
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        pivot_of_col[col] = rank
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][n]:
            return None  # 0 = 1
    assignment = {v: 0 for v in variables}
    for col, r in pivot_of_col.items():
        assignment[variables[col]] = rows[r][n]
    if not instance.is_solution(assignment):
        raise SolverError("affine solver produced an invalid assignment")
    return assignment


def solve_boolean(instance: CSPInstance) -> dict[Any, int] | None:
    """Classify and dispatch: the executable tractable side of the dichotomy.

    Falls back to MAC backtracking when the instance's relations lie in none
    of the six classes (the NP-complete side).
    """
    instance = _check_boolean_instance(instance)
    classes = classify_instance(instance)
    if SchaeferClass.ZERO_VALID in classes:
        return solve_zero_valid(instance)
    if SchaeferClass.ONE_VALID in classes:
        return solve_one_valid(instance)
    if SchaeferClass.HORN in classes:
        return solve_horn(instance)
    if SchaeferClass.DUAL_HORN in classes:
        return solve_dual_horn(instance)
    if SchaeferClass.BIJUNCTIVE in classes:
        return solve_bijunctive(instance)
    if SchaeferClass.AFFINE in classes:
        return solve_affine(instance)
    from repro.csp.solvers import backtracking

    return backtracking.solve(instance)
