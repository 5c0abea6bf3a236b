"""Local consistency, arc/path consistency, and establishing strong
k-consistency (Section 5 of the tutorial).

The propagation core (:mod:`repro.consistency.propagation`) and the
arc/path engines are imported eagerly.  The establishment and local-
consistency helpers live behind a lazy module ``__getattr__`` (PEP 562):
they depend on :mod:`repro.games.pebble`, which itself builds on the
propagation core — importing them eagerly here would close an import
cycle (pebble → consistency → local → games → pebble).
"""

from repro.consistency.arc import (
    ArcResult,
    ac3,
    enforce_arc_consistency,
    path_consistency,
    singleton_arc_consistency,
)
from repro.consistency.propagation import (
    PROPAGATION_STRATEGIES,
    PropagationEngine,
    PropagationStats,
    Worklist,
    collect_propagation,
    current_propagation,
)

__all__ = [
    "ac3",
    "ArcResult",
    "enforce_arc_consistency",
    "path_consistency",
    "singleton_arc_consistency",
    "PROPAGATION_STRATEGIES",
    "PropagationEngine",
    "PropagationStats",
    "Worklist",
    "collect_propagation",
    "current_propagation",
    "is_i_consistent",
    "is_strongly_k_consistent",
    "is_i_consistent_via_homomorphisms",
    "is_strongly_k_consistent_via_game",
    "partial_solutions_on",
    "can_establish",
    "check_establishes",
    "establish_strong_k_consistency",
    "establishment_csp",
    "is_coherent",
]

_ESTABLISH_NAMES = {
    "can_establish",
    "check_establishes",
    "establish_strong_k_consistency",
    "establishment_csp",
    "is_coherent",
}
_LOCAL_NAMES = {
    "is_i_consistent",
    "is_i_consistent_via_homomorphisms",
    "is_strongly_k_consistent",
    "is_strongly_k_consistent_via_game",
    "partial_solutions_on",
}


def __getattr__(name: str):
    if name in _ESTABLISH_NAMES:
        from repro.consistency import establish

        return getattr(establish, name)
    if name in _LOCAL_NAMES:
        from repro.consistency import local

        return getattr(local, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
