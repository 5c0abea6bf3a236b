"""Establishing strong k-consistency — Definitions 5.4/5.5, Theorem 5.6.

Theorem 5.6: strong k-consistency can be established for ``(A, B)`` iff the
Duplicator wins the existential k-pebble game (``W^k(A,B) ≠ ∅``), and in that
case the four-step procedure below yields the *largest coherent* instance
establishing it:

1. compute ``W^k(A, B)`` (the largest winning strategy);
2. for every ``i ≤ k`` and every i-tuple ``ā`` over ``A``, form
   ``R_ā = { b̄ : (ā, b̄) ∈ W^k(A, B) }``;
3. form the CSP instance with variables ``A``, values ``B``, and constraints
   ``{(ā, R_ā)}``;
4. return its homomorphism instance ``(A′, B′)``.

:func:`establish_strong_k_consistency` implements the procedure verbatim;
:func:`check_establishes` verifies the four clauses of Definition 5.4 on an
arbitrary candidate, and :func:`is_coherent` checks Definition 5.5.
"""

from __future__ import annotations

from itertools import product
from typing import Any

from repro.csp.convert import csp_to_homomorphism, homomorphism_to_csp
from repro.csp.instance import Constraint, CSPInstance
from repro.errors import UnsatisfiableError
from repro.games.pebble import PebbleGameResult, solve_game
from repro.relational.homomorphism import is_homomorphism, is_partial_homomorphism
from repro.relational.structure import Structure

__all__ = [
    "establish_strong_k_consistency",
    "establishment_csp",
    "can_establish",
    "check_establishes",
    "is_coherent",
]


def can_establish(
    a: Structure, b: Structure, k: int, strategy: str = "residual"
) -> bool:
    """Whether strong k-consistency can be established for ``(A, B)`` —
    equivalently (Thm 5.6), whether the Duplicator wins the k-pebble game.

    ``strategy`` selects the game's pruning engine (``"residual"`` or
    ``"naive"``); both compute the same answer.
    """
    return solve_game(a, b, k, strategy=strategy).duplicator_wins


def establishment_csp(
    a: Structure,
    b: Structure,
    k: int,
    game: PebbleGameResult | None = None,
    strategy: str = "residual",
) -> CSPInstance:
    """Steps 1–3 of Theorem 5.6: the CSP instance whose constraints are all
    the relations ``R_ā`` read off the largest winning strategy.

    Scopes range over tuples of *distinct* elements of ``A`` (repetition in a
    scope adds nothing: the induced constraint is determined by the distinct
    positions, and normalization would remove it again).

    Raises :class:`UnsatisfiableError` when the Spoiler wins, since then
    strong k-consistency cannot be established (Thm 5.6, only-if direction).
    """
    if game is None:
        game = solve_game(a, b, k, strategy=strategy)
    if game.spoiler_wins:
        raise UnsatisfiableError(
            "the Spoiler wins the existential k-pebble game; "
            "strong k-consistency cannot be established"
        )
    variables = sorted(a.domain, key=repr)
    constraints: list[Constraint] = []
    for size in range(1, k + 1):
        for scope in _distinct_tuples(variables, size):
            rows = game.winning_tuples(scope)
            constraints.append(Constraint(scope, rows))
    return CSPInstance(variables, b.domain, constraints)


def _distinct_tuples(elements: list[Any], size: int):
    from itertools import permutations

    yield from permutations(elements, size)


def establish_strong_k_consistency(
    a: Structure, b: Structure, k: int, strategy: str = "residual"
) -> tuple[Structure, Structure]:
    """The full four-step procedure of Theorem 5.6.

    Returns the homomorphism instance ``(A′, B′)`` of the establishment CSP —
    the largest coherent instance establishing strong k-consistency for
    ``(A, B)``.  ``strategy`` selects the underlying game engine.
    """
    instance = establishment_csp(a, b, k, strategy=strategy)
    return csp_to_homomorphism(instance)


def check_establishes(
    a: Structure,
    b: Structure,
    a_prime: Structure,
    b_prime: Structure,
    k: int,
) -> bool:
    """Verify Definition 5.4: ``(A′, B′)`` establishes strong k-consistency
    for ``(A, B)``.

    Checks the four clauses:

    1. ``dom(A′) = dom(A)`` and ``dom(B′) = dom(B)`` (and the vocabulary of
       the primed pair is k-ary);
    2. ``CSP(A′, B′)`` is strongly k-consistent;
    3. every k-partial homomorphism ``A′ → B′`` is one of ``A → B``;
    4. total functions ``A → B`` are homomorphisms ``A → B`` iff they are
       homomorphisms ``A′ → B′``.

    Exhaustive (clauses 3–4 enumerate functions), so intended for the small
    structures of the test suite.
    """
    from repro.consistency.local import is_strongly_k_consistent

    if a_prime.domain != a.domain or b_prime.domain != b.domain:
        return False
    if a_prime.vocabulary.max_arity() > k:
        return False

    instance = homomorphism_to_csp(a_prime, b_prime)
    if not is_strongly_k_consistent(instance, k):
        return False

    a_elems = sorted(a.domain, key=repr)
    b_elems = sorted(b.domain, key=repr)

    # Clause 3: k-partial homomorphisms of the primed pair are k-partial
    # homomorphisms of the original pair.
    from itertools import combinations

    for size in range(1, min(k, len(a_elems)) + 1):
        for dom in combinations(a_elems, size):
            for image in product(b_elems, repeat=size):
                mapping = dict(zip(dom, image))
                if is_partial_homomorphism(mapping, a_prime, b_prime):
                    if not is_partial_homomorphism(mapping, a, b):
                        return False

    # Clause 4: total homomorphisms coincide.
    for image in product(b_elems, repeat=len(a_elems)):
        mapping = dict(zip(a_elems, image))
        if is_homomorphism(mapping, a, b) != is_homomorphism(mapping, a_prime, b_prime):
            return False
    return True


def is_coherent(a: Structure, b: Structure) -> bool:
    """Definition 5.5: ``(A, B)`` is coherent if for every constraint
    ``(ā, R)`` of ``CSP(A, B)`` and every ``b̄ ∈ R``, the correspondence
    ``h_{ā,b̄}`` is a well-defined partial homomorphism from ``A`` to ``B``."""
    instance = homomorphism_to_csp(a, b)
    for constraint in instance.constraints:
        scope = constraint.scope
        for row in constraint.relation:
            mapping: dict[Any, Any] = {}
            well_defined = True
            for var, value in zip(scope, row):
                if var in mapping and mapping[var] != value:
                    well_defined = False
                    break
                mapping[var] = value
            if not well_defined:
                return False
            if not is_partial_homomorphism(mapping, a, b):
                return False
    return True
