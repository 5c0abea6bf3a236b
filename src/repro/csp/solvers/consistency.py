"""The k-consistency solver — Theorems 4.6/4.7 and 5.7 made executable.

For a fixed ``k``, deciding whether the Duplicator wins the existential
k-pebble game on the homomorphism instance ``(A_P, B_P)`` runs in time
polynomial in the input (O(n^{2k}) shape, Theorem 4.7).  The verdict is:

* Spoiler wins  ⇒  **no homomorphism exists** — always sound, because a
  homomorphism would itself induce a winning Duplicator strategy;
* Duplicator wins  ⇒  *k-consistent*: a homomorphism exists **provided**
  ``¬CSP(B)`` is expressible in k-Datalog (Theorem 4.6) — e.g. 2-SAT,
  Horn-SAT (with k ≥ clause width), 2-colorability.  For general templates
  the verdict is only "not refuted at level k".

:func:`solve_decision` exposes the three-valued answer;
:func:`solve` composes the refutation step with backtracking search to stay
complete on arbitrary instances while enjoying the k-consistency shortcut.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.csp.convert import csp_to_homomorphism
from repro.csp.instance import CSPInstance
from repro.games.pebble import solve_game
from repro.relational.structure import Structure

__all__ = ["Verdict", "solve_decision", "decide_homomorphism", "solve", "is_solvable"]


class Verdict(enum.Enum):
    """Three-valued outcome of the k-consistency test."""

    UNSATISFIABLE = "unsatisfiable"  # Spoiler wins: definitely no solution
    CONSISTENT = "consistent"  # Duplicator wins: solvable if ¬CSP(B) ∈ k-Datalog


def decide_homomorphism(
    a: Structure, b: Structure, k: int, strategy: str = "residual"
) -> Verdict:
    """Run the k-pebble game on ``(A, B)`` and report the verdict.

    ``strategy`` selects the game's pruning engine (``"residual"`` or
    ``"naive"``); both compute the same verdict.
    """
    game = solve_game(a, b, k, strategy=strategy)
    if game.spoiler_wins:
        return Verdict.UNSATISFIABLE
    return Verdict.CONSISTENT


def solve_decision(
    instance: CSPInstance, k: int, strategy: str = "residual"
) -> Verdict:
    """The k-consistency decision procedure on a CSP instance.

    ``UNSATISFIABLE`` is always correct.  ``CONSISTENT`` certifies a solution
    exists exactly when the template's complement is k-Datalog-expressible
    (Theorems 4.6, 5.7) — the regime benchmarked in E4/E11.
    """
    a, b = csp_to_homomorphism(instance)
    return decide_homomorphism(a, b, k, strategy=strategy)


def solve(
    instance: CSPInstance, k: int = 2, strategy: str = "residual"
) -> dict[Any, Any] | None:
    """A complete solver: k-consistency refutation first, then backtracking.

    On inputs the game refutes, this answers in the polynomial game time; on
    the rest it falls back to MAC backtracking (which also produces the
    witness assignment that the pure decision procedure does not).
    """
    if solve_decision(instance, k, strategy=strategy) is Verdict.UNSATISFIABLE:
        return None
    from repro.csp.solvers import backtracking

    return backtracking.solve(instance, strategy=strategy)


def is_solvable(instance: CSPInstance, k: int = 2, strategy: str = "residual") -> bool:
    """Complete solvability test with the k-consistency fast path."""
    return solve(instance, k, strategy=strategy) is not None
