"""Dense-integer value interning — the code-space data plane.

Every algorithm in the tutorial (Props 2.1/2.2, Theorems 4.3/5.2) is stated
over abstract domains, so a bijective value ↔ int encoding is semantics-free:
any structure or CSP instance can be mapped onto the domain ``0..n-1``, run
through kernels that work on machine ints and bitmasks, and mapped back.
The :class:`Codec` assigns codes in ``repr`` order, which makes ascending
code order coincide with the ``repr``-keyed sorts the rest of the codebase
uses for determinism — interned kernels can iterate numerically (or by
ascending bit) and still reproduce the exact observable orderings of the
set-based paths.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.csp.instance import Constraint, CSPInstance
from repro.errors import DomainError
from repro.relational.structure import Structure

__all__ = [
    "Codec",
    "bit_positions",
    "fold_codec",
    "reset_fold_codecs",
    "encode_structure",
    "decode_structure",
    "encode_instance",
    "decode_instance",
]


def bit_positions(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order.

    Under a :class:`Codec` this is ascending code order, i.e. the original
    ``repr`` order of the decoded values.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Codec:
    """A bijection between arbitrary hashable values and dense int codes.

    Codes are assigned in sorted-by-``repr`` order, so for any subset of the
    interned universe, ascending code order equals the ``sorted(..., key=repr)``
    order used throughout the plain-value paths.
    """

    __slots__ = ("_values", "_codes")

    def __init__(self, values: Iterable[Any]):
        ordered = sorted(set(values), key=repr)
        self._values: Tuple[Any, ...] = tuple(ordered)
        self._codes: Dict[Any, int] = {v: i for i, v in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return value in self._codes

    @property
    def values(self) -> Tuple[Any, ...]:
        """All interned values in ascending code (== ``repr``) order."""
        return self._values

    @property
    def code_map(self) -> Dict[Any, int]:
        """The ``value → code`` dict, for probe loops that treat an absent
        value as "cannot match" instead of an error (callers must not
        mutate it)."""
        return self._codes

    @property
    def full_mask(self) -> int:
        """Bitmask with one bit set per interned value."""
        return (1 << len(self._values)) - 1

    def encode(self, value: Any) -> int:
        try:
            return self._codes[value]
        except KeyError:
            raise DomainError(
                f"value {value!r} is not in the interned universe"
            ) from None

    def decode(self, code: int) -> Any:
        if not 0 <= code < len(self._values):
            raise DomainError(
                f"code {code!r} is outside the interned range 0..{len(self._values) - 1}"
            )
        return self._values[code]

    def encode_row(self, row: Iterable[Any]) -> Tuple[int, ...]:
        codes = self._codes
        try:
            return tuple(codes[v] for v in row)
        except KeyError as exc:
            raise DomainError(
                f"value {exc.args[0]!r} is not in the interned universe"
            ) from None

    def decode_row(self, row: Iterable[int]) -> Tuple[Any, ...]:
        return tuple(self.decode(c) for c in row)

    def mask_of(self, values: Iterable[Any]) -> int:
        """Bitmask of a subset of the interned universe."""
        mask = 0
        for value in values:
            mask |= 1 << self.encode(value)
        return mask

    def set_of(self, mask: int) -> set:
        """Decode a bitmask back to the value set it represents."""
        values = self._values
        return {values[c] for c in bit_positions(mask)}

    # Only the value tuple crosses a pickle boundary; the code dict is
    # derived state, rebuilt on arrival — halving the wire size of a
    # pickled codec.

    def __getstate__(self) -> Tuple[Any, ...]:
        return self._values

    def __setstate__(self, values: Tuple[Any, ...]) -> None:
        self._values = values
        self._codes = {v: i for i, v in enumerate(values)}


# The memoized fold codecs of :func:`fold_codec`, two tiers.  Profiles show
# the repr-sort of the shared universe dominating the *warm* columnar join
# path, and workloads re-fold the same base relations
# (Datalog rounds, repeated solvability checks), so a small
# cache removes the sort from every repeat.
#
# * ``_FOLD_CODECS_BY_ID`` — the fast tier, keyed on the participating
#   relations' *identities*.  A repeated evaluation of the same view folds
#   the very same :class:`~repro.relational.relation.Relation` objects (the
#   incremental service keeps atom relations alive between updates), and an
#   identity probe skips even the ``frozenset`` hash of the rows.  Each
#   entry pins the relation objects it was keyed on, so a live entry's
#   ``id()``s can never be recycled to other relations.
# * ``_FOLD_CODECS`` — the content tier, keyed on the frozenset of
#   relations.  Distinct-but-equal relation objects (rebuilt per call by
#   e.g. the CSP solvers) still share one codec through it.
#
# Both tiers are bounded FIFO at :data:`FOLD_CODEC_CACHE_CAP` entries.
_FOLD_CODECS: dict = {}
_FOLD_CODECS_BY_ID: Dict[Tuple[int, ...], Tuple[Codec, Tuple[Any, ...]]] = {}

#: Entries kept in each fold-codec cache tier before the oldest is evicted.
FOLD_CODEC_CACHE_CAP = 256


def _evict_to_cap(cache: dict) -> None:
    if len(cache) >= FOLD_CODEC_CACHE_CAP:
        cache.pop(next(iter(cache)))


def fold_codec(relations: Iterable[Any]) -> Tuple[Codec, bool]:
    """The shared :class:`Codec` over the active domains of ``relations``,
    memoized per fold.

    Returns ``(codec, built)`` where ``built`` says whether the codec was
    constructed by this call (``False`` on a cache hit) — the honest-charge
    signal callers use for ``EvalStats.intern_tables`` and
    ``EvalStats.codec_cache_hits``.  The probe order is identity first
    (same relation *objects* as an earlier fold — no row hashing at all),
    then content (the frozenset of relations, so the planner's different
    orderings of one fold and rebuilt-but-equal relations share a single
    codec).  Determinism is untouched because the codec sorts its universe
    by ``repr`` regardless of iteration order.
    """
    pinned = tuple(relations)
    id_key = tuple(sorted({id(rel) for rel in pinned}))
    by_id = _FOLD_CODECS_BY_ID.get(id_key)
    if by_id is not None:
        return by_id[0], False
    key = frozenset(pinned)
    codec = _FOLD_CODECS.get(key)
    if codec is not None:
        # Promote: the next fold of these very objects hits the fast tier.
        _evict_to_cap(_FOLD_CODECS_BY_ID)
        _FOLD_CODECS_BY_ID[id_key] = (codec, pinned)
        return codec, False
    codec = Codec(v for rel in key for t in rel for v in t)
    _evict_to_cap(_FOLD_CODECS)
    _FOLD_CODECS[key] = codec
    _evict_to_cap(_FOLD_CODECS_BY_ID)
    _FOLD_CODECS_BY_ID[id_key] = (codec, pinned)
    return codec, True


def reset_fold_codecs() -> None:
    """Drop every memoized fold codec, both tiers (bench/test hook: a
    cold-cache run charges one ``intern_tables`` per fold again)."""
    _FOLD_CODECS.clear()
    _FOLD_CODECS_BY_ID.clear()


def encode_structure(
    structure: Structure, codec: Optional[Codec] = None
) -> Tuple[Structure, Codec]:
    """Rebuild ``structure`` over the dense-code domain ``0..n-1``.

    The vocabulary is preserved; only domain elements are renamed.  The
    result is isomorphic to the input via ``codec.decode``.
    """
    if codec is None:
        codec = Codec(structure.domain)
    relations = {
        symbol: {codec.encode_row(row) for row in rows}
        for symbol, rows in structure.relations().items()
    }
    encoded = Structure(
        structure.vocabulary,
        [codec.encode(v) for v in structure.domain],
        relations,
    )
    return encoded, codec


def decode_structure(structure: Structure, codec: Codec) -> Structure:
    """Invert :func:`encode_structure`."""
    relations = {
        symbol: {codec.decode_row(row) for row in rows}
        for symbol, rows in structure.relations().items()
    }
    return Structure(
        structure.vocabulary,
        [codec.decode(c) for c in structure.domain],
        relations,
    )


def encode_instance(
    instance: CSPInstance, codec: Optional[Codec] = None
) -> Tuple[CSPInstance, Codec]:
    """Rebuild ``instance`` over the dense-code domain; variables unchanged."""
    if codec is None:
        codec = Codec(instance.domain)
    constraints = [
        Constraint(c.scope, {codec.encode_row(row) for row in c.relation})
        for c in instance.constraints
    ]
    encoded = CSPInstance(
        instance.variables,
        [codec.encode(v) for v in instance.domain],
        constraints,
    )
    return encoded, codec


def decode_instance(instance: CSPInstance, codec: Codec) -> CSPInstance:
    """Invert :func:`encode_instance`."""
    constraints = [
        Constraint(c.scope, {codec.decode_row(row) for row in c.relation})
        for c in instance.constraints
    ]
    return CSPInstance(
        instance.variables,
        [codec.decode(c) for c in instance.domain],
        constraints,
    )


def decode_domains(domains: Dict[Any, int], codec: Codec) -> Dict[Any, set]:
    """Decode per-variable bitmask domains to per-variable value sets."""
    return {variable: codec.set_of(mask) for variable, mask in domains.items()}
