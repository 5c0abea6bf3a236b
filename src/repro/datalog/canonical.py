"""The canonical k-Datalog program ρ_B (Theorem 4.5(3)).

For every finite structure **B** and every ``k`` there is a k-Datalog program
that, given a structure **A** (as EDB facts, plus its active domain), derives
its goal iff the Spoiler wins the existential k-pebble game on (A, B).

The construction used here is the *obstruction-set* program.  For each arity
``i ≤ k`` and each set ``S ⊆ B^i`` an IDB predicate ``O_{i,S}(x̄)`` asserts:

    every member of every Duplicator winning strategy that is defined on
    ``x̄`` maps ``x̄`` into ``S``

(so deriving ``O_{i,∅}`` anywhere certifies that the Spoiler wins).  The
rules mirror the greatest-fixpoint pruning that computes the largest winning
strategy:

* **base** — an A-fact ``R(x̄)`` constrains the images of ``x̄`` to ``R^B``;
* **substitution** — for any pattern map σ, an obstruction on the σ-selected
  subtuple transports (equality-aware) to the full tuple, because winning
  families are closed under restriction;
* **intersection** — obstructions on the same tuple intersect;
* **forth/projection** — if the images of ``(x̄, y)`` are confined to ``T``
  for *some* ``y``, the k-forth property confines the images of ``x̄`` to the
  projection of ``T``.

All sets ``S`` appearing in the program are computed in advance as the
closure of the base sets under these operators — a property of **B** and
``k`` alone — so program size stays proportional to what the structure can
actually express rather than ``2^{|B|^k}``.  Equivalence with the direct
game algorithm is verified in ``tests/datalog/test_canonical.py`` and
benchmark E3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

from repro.cq.query import Atom, Var
from repro.datalog.engine import goal_holds
from repro.datalog.syntax import Program, Rule
from repro.errors import DomainError, SolverError
from repro.relational.structure import Structure

__all__ = [
    "CanonicalProgram",
    "canonical_program",
    "spoiler_wins_via_datalog",
    "DOMAIN_PREDICATE",
]

#: EDB predicate holding the active domain of the input structure A.
DOMAIN_PREDICATE = "Dom"

_SetKey = tuple[int, frozenset]  # (arity, frozenset of tuples over B)


def _substitute(
    s: frozenset, sigma: tuple[int, ...], head_arity: int, b_tuples: list[tuple]
) -> frozenset:
    """``T_σ(S) = {b̄ ∈ B^j : (b_{σ(1)}, …, b_{σ(i)}) ∈ S}``."""
    return frozenset(
        b for b in b_tuples if tuple(b[m] for m in sigma) in s
    )


def _project_last(s: frozenset) -> frozenset:
    """``∃-projection`` dropping the last coordinate."""
    return frozenset(t[:-1] for t in s)


@dataclass
class CanonicalProgram:
    """ρ_B together with the bookkeeping needed to run it on structures."""

    b: Structure
    k: int
    program: Program
    set_names: dict[_SetKey, str]

    def edb_facts(self, a: Structure) -> dict[str, frozenset]:
        """The EDB database encoding ``A``: its relations plus ``Dom``."""
        facts: dict[str, frozenset] = {
            symbol: a.relation(symbol) for symbol in a.vocabulary
        }
        facts[DOMAIN_PREDICATE] = frozenset((x,) for x in a.domain)
        return facts

    def spoiler_wins(self, a: Structure) -> bool:
        """Run ρ_B on ``A``: goal derived iff the Spoiler wins the game."""
        if a.vocabulary != self.b.vocabulary:
            raise DomainError("input structure has a different vocabulary than B")
        if not self.b.domain and a.domain:
            return True  # no Duplicator responses exist at all
        return goal_holds(self.program, self.edb_facts(a))


def canonical_program(b: Structure, k: int, max_sets: int = 4000) -> CanonicalProgram:
    """Construct the canonical k-Datalog program ρ_B for a structure ``B``.

    Raises :class:`SolverError` when the closure of obstruction sets exceeds
    ``max_sets`` (the construction is intended for small templates — K2, K3,
    Boolean templates — where it stays tiny).

    The vocabulary of ``B`` must be k-ary (every relation of arity ≤ k), the
    standing assumption of Sections 4–5.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if b.vocabulary.max_arity() > k:
        raise DomainError(
            f"vocabulary has arity {b.vocabulary.max_arity()} > k={k}; "
            "the pebble-game machinery assumes a k-ary vocabulary"
        )

    b_elems = sorted(b.domain, key=repr)
    b_tuples: dict[int, list[tuple]] = {
        i: list(product(b_elems, repeat=i)) for i in range(1, k + 1)
    }

    # ---- closure of obstruction sets (depends only on B and k) ----------
    sets: set[_SetKey] = set()
    frontier: list[_SetKey] = []

    def add(key: _SetKey) -> None:
        if key not in sets:
            if len(sets) >= max_sets:
                raise SolverError(
                    f"obstruction-set closure exceeded max_sets={max_sets}; "
                    "use a smaller template or raise the limit"
                )
            sets.add(key)
            frontier.append(key)

    for symbol in b.vocabulary:
        arity = b.vocabulary.arity(symbol)
        if arity >= 1:
            add((arity, frozenset(b.relation(symbol))))

    sigmas: dict[tuple[int, int], list[tuple[int, ...]]] = {
        (i, j): list(product(range(j), repeat=i))
        for i in range(1, k + 1)
        for j in range(1, k + 1)
    }

    while frontier:
        i, s = frontier.pop()
        # substitution images
        for j in range(1, k + 1):
            for sigma in sigmas[(i, j)]:
                add((j, _substitute(s, sigma, j, b_tuples[j])))
        # projection image
        if i > 1:
            add((i - 1, _project_last(s)))
        # intersections with already-known same-arity sets
        for i2, s2 in list(sets):
            if i2 == i and s2 != s:
                add((i, s & s2))

    # ---- emit the program ------------------------------------------------
    set_names: dict[_SetKey, str] = {}
    for index, key in enumerate(sorted(sets, key=lambda key_: (key_[0], repr(sorted(key_[1])))) ):
        set_names[key] = f"O{key[0]}_{index}"

    xs = [Var(f"X{m}") for m in range(k + 1)]
    rules: list[Rule] = []

    def head_atom(key: _SetKey, variables: Iterable[Var]) -> Atom:
        return Atom(set_names[key], tuple(variables))

    # base rules
    for symbol in b.vocabulary:
        arity = b.vocabulary.arity(symbol)
        if arity < 1:
            continue
        key = (arity, frozenset(b.relation(symbol)))
        body = [Atom(symbol, tuple(xs[:arity]))]
        rules.append(Rule(head_atom(key, xs[:arity]), body))

    # substitution rules
    for (i, s) in sets:
        for j in range(1, k + 1):
            for sigma in sigmas[(i, j)]:
                target = (j, _substitute(s, sigma, j, b_tuples[j]))
                if target not in sets:
                    continue
                body = [Atom(set_names[(i, s)], tuple(xs[m] for m in sigma))]
                body += [Atom(DOMAIN_PREDICATE, (xs[m],)) for m in range(j)]
                rules.append(Rule(head_atom(target, xs[:j]), body))

    # intersection rules
    by_arity: dict[int, list[_SetKey]] = {}
    for key in sets:
        by_arity.setdefault(key[0], []).append(key)
    for i, keys in by_arity.items():
        for k1 in keys:
            for k2 in keys:
                if repr(k1) < repr(k2):
                    target = (i, k1[1] & k2[1])
                    if target in sets and target != k1 and target != k2:
                        rules.append(
                            Rule(
                                head_atom(target, xs[:i]),
                                [
                                    Atom(set_names[k1], tuple(xs[:i])),
                                    Atom(set_names[k2], tuple(xs[:i])),
                                ],
                            )
                        )

    # forth / projection rules
    for (i, s) in sets:
        if i > 1:
            target = (i - 1, _project_last(s))
            if target in sets:
                rules.append(
                    Rule(
                        head_atom(target, xs[: i - 1]),
                        [Atom(set_names[(i, s)], tuple(xs[:i]))],
                    )
                )

    # goal: an empty obstruction at arity 1 refutes the empty function.
    goal = "SpoilerWins"
    empty_key = (1, frozenset())
    if empty_key in sets:
        rules.append(
            Rule(
                Atom(goal, ()),
                [Atom(set_names[empty_key], (xs[0],))],
            )
        )
    else:
        # The closure cannot express an empty obstruction: the Spoiler can
        # never win against this B at this k (e.g. B has a total looped
        # element).  Emit an inert goal definition.
        unreachable = "Unreachable__"
        rules.append(Rule(Atom(goal, ()), [Atom(unreachable, (xs[0],))]))

    program = Program(rules, goal)
    return CanonicalProgram(b=b, k=k, program=program, set_names=set_names)


def spoiler_wins_via_datalog(b: Structure, k: int, a: Structure) -> bool:
    """One-shot convenience: build ρ_B and run it on ``A``."""
    return canonical_program(b, k).spoiler_wins(a)
