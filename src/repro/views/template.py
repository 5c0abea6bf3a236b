"""The constraint template — Theorem 7.5's reduction from view-based query
answering to (non-uniform) constraint satisfaction.

Given a query ``Q`` with (ε-free) automaton ``A_Q = (Σ, S, S0, ρ, F)`` and
view definitions ``def(V)``, the template **B** has:

* domain ``2^S``;
* ``(σ1, σ2) ∈ V_i^B`` iff there is a word ``w ∈ L(def(V_i))`` with
  ``ρ(σ1, w) ⊆ σ2``;
* ``σ ∈ U_c^B`` iff ``S0 ⊆ σ``, and ``σ ∈ U_d^B`` iff ``σ ∩ F = ∅``.

Deciding ``(c, d) ∉ cert(Q, V)`` then reduces to ``CSP(A, B)`` where ``A``
encodes the view extensions (``V_i^A = ext(V_i)``, ``U_c^A = {c}``,
``U_d^A = {d}``): intuitively a homomorphism labels every object ``x`` with
the set ``σ(x)`` of automaton states *excluded*… more precisely with an
over-approximation of the states reachable at ``x``, consistent with every
view edge, containing ``S0`` at ``c`` and avoiding ``F`` at ``d`` — exactly
a counterexample database in quotient form.

The template has ``2^{|S|}`` elements, so keep query automata small; this
matches the paper, where the reduction's size is governed by ``Q`` and
``def(V)`` only (the *data* — the extensions — grow only ``A``).
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Any

from repro.errors import SolverError
from repro.relational.homomorphism import homomorphism_exists
from repro.relational.structure import Structure, Vocabulary
from repro.views.automata import NFA
from repro.views.certain import ViewSetup
from repro.views.regex import Regex, regex_to_nfa

__all__ = [
    "remove_epsilons",
    "constraint_template",
    "extension_structure",
    "certain_answer_via_csp",
    "U_C",
    "U_D",
]

U_C = "U_c"
U_D = "U_d"


def remove_epsilons(nfa: NFA) -> NFA:
    """An equivalent ε-free NFA on the same state set.

    ``δ'(s, a) = cl(δ(cl({s}), a))`` and a state accepts iff its closure
    meets the accepting set; the initial set is ε-closed.
    """
    transitions: dict[tuple[Any, Any], set] = {}
    for s in nfa.states:
        closure = nfa.epsilon_closure({s})
        for a in nfa.alphabet:
            targets: set = set()
            for t in closure:
                targets |= nfa.transitions.get((t, a), frozenset())
            targets = set(nfa.epsilon_closure(targets))
            if targets:
                transitions[(s, a)] = targets
    accepting = {
        s for s in nfa.states if nfa.epsilon_closure({s}) & nfa.accepting
    }
    return NFA(
        nfa.states,
        nfa.alphabet,
        transitions,
        nfa.epsilon_closure(nfa.initial),
        accepting,
    )


def _powerset(items: frozenset) -> list[frozenset]:
    ordered = sorted(items, key=repr)
    return [
        frozenset(c)
        for r in range(len(ordered) + 1)
        for c in combinations(ordered, r)
    ]


def _step(nfa: NFA, states: frozenset, symbol: str) -> frozenset:
    """ρ on an ε-free automaton: one forward step."""
    out: set = set()
    for s in states:
        out |= nfa.transitions.get((s, symbol), frozenset())
    return frozenset(out)


def _reachable_images(
    query: NFA, view: NFA, sigma1: frozenset, alphabet: frozenset[str]
) -> set[frozenset]:
    """All ``ρ(σ1, w)`` for accepted *nonempty* words ``w ∈ L(view)`` — BFS
    over pairs (image of σ1 so far, view-automaton state set).

    The empty word is excluded: under the unique-name assumption (footnote 2
    of the tutorial) a length-0 path can only witness a view pair whose
    endpoints coincide, and those pairs are handled separately by
    :func:`extension_structure` (the constraint is vacuous when
    ``ε ∈ L(def(V_i))``)."""
    start = (sigma1, view.epsilon_closure(view.initial))

    def successors(image: frozenset, vstates: frozenset):
        for a in alphabet:
            v_next = view.step(vstates, a)
            if v_next:
                yield _step(query, image, a), v_next

    # Seed with the one-letter successors of the start configuration so that
    # only configurations reachable by a *nonempty* word are visited (the
    # start itself may legitimately reappear via a cycle).
    seen: set[tuple[frozenset, frozenset]] = set(successors(*start))
    queue = deque(seen)
    accepted: set[frozenset] = set()
    while queue:
        image, vstates = queue.popleft()
        if vstates & view.accepting:
            accepted.add(image)
        for key in successors(image, vstates):
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return accepted


def constraint_template(
    query: NFA | Regex | str,
    views: ViewSetup,
    max_states: int = 14,
) -> Structure:
    """Build the constraint template **B** of ``Q`` wrt ``def(V)``.

    ``max_states`` caps the query automaton size (the domain is
    ``2^{|S|}``); raise it consciously for larger queries.
    """
    q = query if isinstance(query, NFA) else regex_to_nfa(query)
    alphabet = q.alphabet | views.alphabet
    # Any automaton for L(Q) works; the minimal DFA over the joint alphabet
    # keeps the 2^|S| template domain as small as possible.
    q = q.trimmed().with_alphabet(alphabet).to_dfa().minimized().to_nfa()
    if len(q.states) > max_states:
        raise SolverError(
            f"query automaton has {len(q.states)} states; the template domain "
            f"2^|S| would be too large (max_states={max_states})"
        )

    subsets = _powerset(q.states)
    arities = {name: 2 for name in views.definitions}
    arities[U_C] = 1
    arities[U_D] = 1

    relations: dict[str, set[tuple]] = {name: set() for name in arities}
    s0 = frozenset(q.initial)
    relations[U_C] = {(sigma,) for sigma in subsets if s0 <= sigma}
    relations[U_D] = {(sigma,) for sigma in subsets if not (sigma & q.accepting)}

    for name, view in views.definitions.items():
        rel = relations[name]
        for sigma1 in subsets:
            accepted = _reachable_images(q, view, sigma1, alphabet)
            if not accepted:
                continue
            minimal = _minimal_sets(accepted)
            for sigma2 in subsets:
                if any(t <= sigma2 for t in minimal):
                    rel.add((sigma1, sigma2))

    return Structure(Vocabulary(arities), subsets, relations)


def _minimal_sets(family: set[frozenset]) -> list[frozenset]:
    """The ⊆-minimal members (inclusion of any member is equivalent to
    inclusion of a minimal one)."""
    ordered = sorted(family, key=len)
    minimal: list[frozenset] = []
    for s in ordered:
        if not any(m <= s for m in minimal):
            minimal.append(s)
    return minimal


def extension_structure(views: ViewSetup, c: Any, d: Any) -> Structure:
    """The structure **A** encoding the extensions: ``V_i^A = ext(V_i)``,
    ``U_c^A = {c}``, ``U_d^A = {d}``.

    Self-pairs ``(x, x)`` of a view whose language contains ε are dropped:
    they are witnessed by the empty path in every database, so they
    constrain nothing (the template's ``V_i^B`` counts nonempty witnesses
    only; see :func:`_reachable_images`).
    """
    arities = {name: 2 for name in views.definitions}
    arities[U_C] = 1
    arities[U_D] = 1
    domain = set(views.objects()) | {c, d}
    relations: dict[str, set[tuple]] = {}
    for name, nfa in views.definitions.items():
        pairs = set(views.extensions[name])
        if nfa.accepts(()):
            pairs = {(a, b) for a, b in pairs if a != b}
        relations[name] = pairs
    relations[U_C] = {(c,)}
    relations[U_D] = {(d,)}
    return Structure(Vocabulary(arities), domain, relations)


def certain_answer_via_csp(
    query: NFA | Regex | str, views: ViewSetup, c: Any, d: Any
) -> bool:
    """Theorem 7.5 executed: ``(c, d) ∉ cert(Q, V)`` iff ``CSP(A, B)`` is
    solvable, for ``B`` the constraint template and ``A`` the extensions."""
    b = constraint_template(query, views)
    a = extension_structure(views, c, d)
    return not homomorphism_exists(a, b)
