"""Cores of relational structures.

A structure is a *core* when every endomorphism (homomorphism to itself) is
an automorphism; every finite structure retracts onto a core that is unique
up to isomorphism.  Cores are the semantic backbone of Chandra–Merlin
minimization (Section 2): two structures are homomorphically equivalent iff
their cores are isomorphic, and the core of a query's canonical database is
the canonical form of the query.

The search here is exact and exponential in the worst case — sized for the
small structures of query minimization and dichotomy experiments, matching
how cores are used in the tutorial's setting (e.g. the Hell–Nešetřil
dichotomy is really about whether the core of **H** is an edge, a loop, or
something bigger).
"""

from __future__ import annotations

from typing import Any

from repro.relational.homomorphism import all_homomorphisms, find_homomorphism
from repro.relational.structure import Structure

__all__ = ["is_core", "core", "retract_to", "homomorphically_equivalent"]


def _proper_retraction(structure: Structure) -> dict[Any, Any] | None:
    """A non-surjective endomorphism, or ``None`` if the structure is a core.

    Searches for an endomorphism avoiding at least one element by pinning
    each candidate element out of the image via a forbidden-value search.
    """
    for h in all_homomorphisms(structure, structure):
        if set(h.values()) != set(structure.domain):
            return h
    return None


def is_core(structure: Structure) -> bool:
    """Whether every endomorphism is surjective (an automorphism)."""
    return _proper_retraction(structure) is None


def retract_to(structure: Structure, mapping: dict[Any, Any]) -> Structure:
    """The induced substructure on the image of an endomorphism."""
    return structure.restrict(set(mapping.values()))


def core(structure: Structure) -> Structure:
    """A core of the structure: repeatedly retract along non-surjective
    endomorphisms until none exists.

    The result is homomorphically equivalent to the input and unique up to
    isomorphism (tested via mutual homomorphisms, not isomorphism).
    """
    current = structure
    while True:
        retraction = _proper_retraction(current)
        if retraction is None:
            return current
        image = retract_to(current, retraction)
        # Compose retractions until the image stabilizes as a substructure.
        current = image


def homomorphically_equivalent(a: Structure, b: Structure) -> bool:
    """Whether homomorphisms exist in both directions (same CSP behavior:
    ``CSP(A)`` and ``CSP(B)`` have identical yes-instances)."""
    return (
        find_homomorphism(a, b) is not None and find_homomorphism(b, a) is not None
    )
