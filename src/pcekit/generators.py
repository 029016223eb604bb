"""The elementary PCE channels and (de)composition of channels into them.

For each multi-index label ``a`` there is an elementary channel that keeps
exactly the components commuting with the Pauli string of ``a`` (half of all
components, unless ``a`` is the zero label, which gives the identity).  Any
PCE channel with preserved subspace W equals the composition of the
elementary channels over a basis of W's annihilator under the symplectic
product, and that annihilator basis is the canonical decomposition used here.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import gf2
from .maps import PceMap, Subspace, map_to_subspace, subspace_to_map
from .pauli import (
    MultiIndex,
    _labels,
    _qubit_position,
    _sp_parity,
    _swap_pairs,
    symplectic_product_row,
)

__all__ = [
    "generator_map",
    "generator_subspace",
    "local_action",
    "decompose",
    "recompose",
    "recompose_subspace",
    "reflection_parity",
]


def _symplectic_complement(n: int, codes) -> list[int]:
    """RREF basis of the codes whose symplectic product with every code vanishes."""
    return gf2.nullspace([_swap_pairs(c, n) for c in codes], 2 * n)


def generator_map(label: MultiIndex) -> PceMap:
    """Bitmask of the elementary channel: keep components commuting with ``label``."""
    return PceMap._from_bits(label.n, symplectic_product_row(label) == 0)


def generator_subspace(label: MultiIndex) -> Subspace:
    """Preserved subspace of the elementary channel (works for any n <= 16).

    This is the symplectic complement of the single label: dimension 2n for
    the zero label, 2n - 1 otherwise.
    """
    return recompose_subspace([label])


def local_action(label: MultiIndex, k: int) -> int:
    """The single-qubit digit of the label on qubit ``k``.

    The elementary channel acts on qubit ``k`` alone (after tracing out the
    rest) as the single-qubit elementary channel of this digit; the dense
    cross-check lives in the test suite.
    """
    return label.digit(k)


def decompose(channel: PceMap | Subspace) -> list[MultiIndex]:
    """Canonical labels whose elementary channels compose to ``channel``.

    Returns the RREF basis of the annihilator of the preserved subspace under
    the symplectic product — ``2n - K`` labels, empty for the identity
    channel.  Other label sets can give the same channel; this one is the
    deterministic representative.

    Raises:
        NotAChannelError: if a bitmask input is not completely positive.
    """
    if isinstance(channel, Subspace):
        subspace = channel
    else:
        subspace = map_to_subspace(channel)
    annihilator = _symplectic_complement(subspace.n, subspace.basis)
    return [MultiIndex(subspace.n, v) for v in annihilator]


def recompose_subspace(labels: Iterable[MultiIndex | str], n: int | None = None) -> Subspace:
    """Preserved subspace of the composed elementary channels of ``labels``.

    Closed form: composing intersects the labels' symplectic complements,
    which is the symplectic complement of span(labels); works for n <= 16.
    ``labels`` are `MultiIndex` objects or base-4 strings, read by the one
    rule for a label family (`pauli._labels`); ``n`` is only needed for an
    empty label list (identity channel).

    Raises:
        ValueError: for a malformed label, or an empty list without ``n``.
        CapacityError: if ``n`` is outside ``1..N_MAX``.
        DimensionMismatchError: if a label's qubit count differs from ``n``
            or from the first label's.
    """
    n, labels = _labels(labels, n)
    return Subspace(n, tuple(_symplectic_complement(n, [a.code for a in labels])))


def recompose(labels: Iterable[MultiIndex | str], n: int | None = None) -> PceMap:
    """Bitmask form of `recompose_subspace` (``n <= TAU_QUBIT_LIMIT``)."""
    return subspace_to_map(recompose_subspace(labels, n))


def reflection_parity(label: MultiIndex, k: int) -> int:
    """+1 if the elementary channel's pattern is symmetric under the qubit-k
    reflection (digit swap 0<->3, 1<->2), -1 if it is antisymmetric.

    Symmetric means the reflection fixes the bitmask; antisymmetric means it
    complements every entry.  Equivalent to whether the reflection's base
    index (digit 3 at qubit k) is itself a preserved component.
    """
    base = 3 << (2 * (_qubit_position(k, label.n) - 1))
    return -1 if _sp_parity(label.code, base, label.n) else 1
