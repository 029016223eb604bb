"""Dense-matrix oracle and state-level simulation.

Everything here works with explicit numpy arrays: density matrices are
``2**n x 2**n`` complex arrays (qubit 1 is the leftmost tensor factor, hence
the most significant bit of a basis index), Pauli-component vectors are flat
real arrays of length ``4**n`` indexed by flat multi-index.  These routines
are the independent cross-check for the symbolic bitmask path: Choi matrices
are sums of `pauli._kron_table` Kronecker products handed to a Hermitian
eigensolver, with no reuse of the exact integer transform.

Every Choi term kron(P, P*) keeps the parity of each qubit's system bit and
copy bit, so a Choi matrix is block-diagonal in the basis ordered by (parity
bits, system bits): ``2**n`` blocks of size ``2**n``.  `choi_min_eigenvalues`
builds and solves those blocks only; `choi_basis_terms` is the one table of
Choi terms, from which the blocks are gathered entry for entry, and
`choi_dense` keeps the full complex ``4**n x 4**n`` form as the reference.  A
fresh process's first n = 3 oracle call builds the full table before gathering
its blocks.  Every term is real, so the blocks are gathered from the table's
real part and solved with real ``eigvalsh``; a PCE map is a Pauli channel
(its Choi matrix is diagonal in the Bell basis), so blocks repeat across
masks, and each distinct block of a batch chunk is solved once.

`check_report` and `verify_report` are the CLI's ``check`` and ``verify``
verdicts.  The symbolic answers come from `maps`, `_symbolic_report` for
``check`` and `_closed_flags` for ``verify``; this module adds only the
oracle, set against them by one rule, `_oracle_verdicts`.

Dense limits (``pauli.DENSE_QUBIT_LIMIT`` and ``pauli.CHOI_QUBIT_LIMIT``):
``n <= 5`` for state-sized matrices, ``n <= 3`` for Choi matrices (``4**n``
dimensional).
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2
from .errors import DimensionMismatchError, InvalidStabilizerSetError
from .maps import (
    PceMap,
    Subspace,
    _check_tau,
    _closed_flags,
    _symbolic_report,
    _tau_bits,
    subspace_to_map,
)
from .pauli import (
    CHOI_QUBIT_LIMIT,
    DENSE_QUBIT_LIMIT,
    MultiIndex,
    _PAULI_STACK,
    _kron_table,
    _qubit_position,
    _sp_parity,
    check_qubits,
    pauli_basis,
    pauli_string_dense,
)

__all__ = [
    "CHOI_QUBIT_LIMIT",
    "pauli_components",
    "from_pauli_components",
    "purity_from_components",
    "check_state_components",
    "apply_pce",
    "apply_generator_kraus",
    "choi_basis_terms",
    "choi_dense",
    "choi_min_eigenvalues",
    "check_report",
    "verify_report",
    "choi_pauli_vector",
    "partial_trace",
    "qc_channel",
    "common_eigenbasis",
    "qc_project",
    "pauli_transfer_matrix",
    "is_positive_semidefinite",
]


def _infer_n(dim: int, what: str) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    check_qubits(n, DENSE_QUBIT_LIMIT, "a dense matrix")
    return n


def _infer_n_components(size: int) -> int:
    n = (size.bit_length() - 1) // 2
    if size <= 0 or 4**n != size:
        raise ValueError(f"component vector length {size} is not a power of four")
    return n


def pauli_components(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Expansion coefficients ``r_f = tr(rho P_f)`` over all Pauli strings.

    Raises:
        ValueError: if ``rho`` is not Hermitian within ``tol``.
    """
    rho = np.asarray(rho, dtype=complex)
    n = _infer_n(rho.shape[0], "density matrix")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    return np.einsum("aij,ji->a", pauli_basis(n), rho).real


def from_pauli_components(r: np.ndarray) -> np.ndarray:
    """Reconstruct the density matrix ``2**-n * sum_f r_f P_f``."""
    r = np.asarray(r, dtype=float)
    n = _infer_n_components(r.size)
    return np.einsum("a,aij->ij", r, pauli_basis(n)) / 2**n


def purity_from_components(r: np.ndarray) -> float:
    """``2**-n * sum_f r_f**2``, which equals ``tr(rho**2)``."""
    r = np.asarray(r, dtype=float)
    n = _infer_n_components(r.size)
    return float(np.dot(r, r)) / 2**n


def check_state_components(r: np.ndarray, tol: float = 1e-9) -> None:
    """Raise ValueError, naming the failed condition, unless ``r`` are the
    Pauli components of a density matrix within ``tol``.

    The conditions are unit trace (``r_0 = 1``) and positivity: for
    ``n <= DENSE_QUBIT_LIMIT`` the smallest eigenvalue of the matrix rebuilt
    from ``r`` is ``>= -tol``; beyond, where no dense matrix is built,
    ``|r_f| <= 1`` and ``2**-n * sum_f r_f**2 <= 1``.
    """
    r = np.asarray(r, dtype=float)
    n = _infer_n_components(r.size)
    if not abs(r[0] - 1) <= tol:
        raise ValueError(f"state is not unit trace: r_0 = {r[0]:.12g}, expected 1")
    if n <= DENSE_QUBIT_LIMIT:
        lowest = np.linalg.eigvalsh(from_pauli_components(r)).min()
        if not lowest >= -tol:
            raise ValueError(
                f"state is not positive semidefinite: smallest eigenvalue {lowest:.12g}"
            )
        return
    largest = np.abs(r).max()
    if not largest <= 1 + tol:
        raise ValueError(f"state breaks |r_f| <= 1: max |r_f| = {largest:.12g}")
    purity = purity_from_components(r)
    if not purity <= 1 + tol:
        raise ValueError(f"state breaks purity <= 1: 2**-n * sum r_f**2 = {purity:.12g}")


def apply_pce(pce: PceMap, state: np.ndarray) -> np.ndarray:
    """Apply the componentwise mask; accepts a component vector or a density
    matrix, returns the masked component vector with every erased component
    +0.0 (never -0.0)."""
    state = np.asarray(state)
    r = pauli_components(state) if state.ndim == 2 else state.astype(float)
    if r.size != 4**pce.n:
        raise DimensionMismatchError(
            f"state has {r.size} components, map expects {4**pce.n}"
        )
    return np.where(pce.tau_vector().view(bool), r, 0.0)


def apply_generator_kraus(label: MultiIndex, rho: np.ndarray) -> np.ndarray:
    """Kraus route of the elementary channel: ``(rho + P rho P) / 2``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != 2**label.n:
        raise DimensionMismatchError(
            f"state dimension {rho.shape[0]} does not match n={label.n}"
        )
    sigma = pauli_string_dense(label)
    return (rho + sigma @ rho @ sigma) / 2


# Choi chains start from a 1x1 one: that first product fixes the signs of zero
# entries, on which the bits of the eigenvalues depend.
_ONE = np.ones((1, 1, 1), dtype=complex)
_CHOI_STACK = np.stack([np.kron(s, s.conj()) for s in _PAULI_STACK])


@functools.lru_cache(maxsize=4)
def choi_basis_terms(n: int) -> np.ndarray:
    """Per-index Choi building blocks, stacked along axis 0.

    Term ``f`` is the Kronecker chain over qubits of (P_digit x P_digit*),
    with the system and copy factor of each qubit adjacent: a `_kron_table`
    of n per-qubit stacks after a 1x1 one.  Cached and read-only.
    """
    check_qubits(n, CHOI_QUBIT_LIMIT, "a Choi matrix")
    out = _kron_table([_ONE] + [_CHOI_STACK] * n)
    out.setflags(write=False)
    return out


def choi_dense(pce: PceMap) -> np.ndarray:
    """Dense Choi matrix ``2**-n * sum_f tau_f (P x P*) terms``."""
    terms = choi_basis_terms(pce.n)
    tau = pce.tau_vector().astype(float)
    dim = 4**pce.n
    return (tau @ terms.reshape(dim, dim * dim)).reshape(dim, dim) / 2**pce.n


@functools.lru_cache(maxsize=4)
def _choi_block_terms(n: int) -> np.ndarray:
    """The diagonal blocks of `choi_basis_terms`, shape ``(4**n, 2**n, 2**n, 2**n)``.

    Entry ``[f, p]`` is term f's block for the parity bits p (qubit n most
    significant), rows and columns indexed by the system bits s (qubit 1 most
    significant).  Gathered from the real part of the full terms: qubit k's
    system bit s_k and copy bit s_k ^ p_k sit at bits ``2*(n-k) + 1`` and
    ``2*(n-k)`` of a Choi row index.  Cached, read-only, C-contiguous float64.

    Raises:
        ArithmeticError: if a term has a nonzero imaginary part.  Every entry
            of kron(P, P*) is a product of conjugate pairs, so none does.
    """
    terms = choi_basis_terms(n)
    if terms.imag.any():
        raise ArithmeticError(f"Choi terms for n={n} have a nonzero imaginary part")
    terms = terms.real.reshape(4**n, 4**n * 4**n)
    p, s = np.arange(2**n)[:, None], np.arange(2**n)[None, :]
    rows = 0
    for k in range(1, n + 1):
        s_k, p_k = (s >> (n - k)) & 1, (p >> (k - 1)) & 1
        rows = rows + ((2 * s_k + (s_k ^ p_k)) << 2 * (n - k))
    out = terms.take(rows[:, :, None] * 4**n + rows[:, None, :], axis=1)
    out.setflags(write=False)
    return out


def choi_min_eigenvalues(n: int, masks) -> np.ndarray:
    """Smallest dense Choi eigenvalue of each tau bitmask in a batch.

    ``eigvalsh(choi_dense(PceMap(n, m))).min()`` up to rounding, solved as
    the matrix's ``2**n`` diagonal blocks of size ``2**n`` (see the module
    docstring), which are real: the masks' bits are decoded, and the blocks
    built and diagonalized with real ``eigvalsh``, a chunk of masks at a time
    to bound memory.  Within a chunk each distinct block, by its exact bytes,
    is solved once, so a mask's value does not depend on the rest of the
    batch.

    Raises:
        ValueError: if a mask is not an integer in ``0 .. 2**(4**n) - 1``.
    """
    check_qubits(n, CHOI_QUBIT_LIMIT, "a Choi matrix")
    return _choi_min_eigenvalues(n, [_check_tau(n, tau) for tau in masks])


def _choi_min_eigenvalues(n: int, masks: list[int]) -> np.ndarray:
    """`choi_min_eigenvalues` on checked masks and n."""
    terms = _choi_block_terms(n).reshape(4**n, -1)
    chunk = 2048 if n <= 2 else 256
    out = np.empty(len(masks))
    for start in range(0, len(masks), chunk):
        blocks = (_tau_bits(n, masks[start : start + chunk]) / 2**n) @ terms
        # Pauli channels repeat blocks heavily (946 distinct among the
        # 131,072 of the trace-preserving n = 2 masks).  Keys are the exact
        # bytes, so -0.0 and 0.0 differ and each value is what solving its
        # own block gives.  This is np.unique's sort and first-of-run marks,
        # without the fixed cost that a one-mask `check` would pay.
        keys = blocks.view(np.dtype((np.void, blocks.itemsize * 4**n))).ravel()
        order = keys.argsort()
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        solved = np.linalg.eigvalsh(keys[first].view(float).reshape(-1, 2**n, 2**n))
        lowest = np.empty(len(keys))
        lowest[order] = solved[:, 0][first.cumsum() - 1]
        out[start : start + len(blocks)] = lowest.reshape(len(blocks), 2**n).min(axis=1)
    return out


def _oracle_verdicts(n: int, masks: list[int], symbolic_cp, tol: float):
    """The one oracle rule: per mask, ``(lambda_min, cp, agrees)`` with
    ``cp = lambda_min >= -tol``.  The oracle agrees with the symbolic verdict
    iff ``cp == (symbolic_cp or tau == 0)``: erasing tau_0 makes the Choi
    trace 0, so such a map is CP only when it is the zero map.  The callers
    have checked n and the masks."""
    lambda_min = _choi_min_eigenvalues(n, masks)
    cp = lambda_min >= -tol
    zero = np.fromiter((tau == 0 for tau in masks), dtype=bool, count=len(masks))
    return lambda_min, cp, cp == (np.asarray(symbolic_cp) | zero)


def check_report(obj: PceMap | Subspace, tol: float = 1e-9) -> dict:
    """The `check` verdict on a loaded channel document, JSON-ready (floats
    unrounded): the symbolic answers of `maps._symbolic_report` and, up to
    ``CHOI_QUBIT_LIMIT``, the oracle's, judged by `_oracle_verdicts`.

    The oracle's ``lambda_min`` is reported as the nearest multiple of
    ``2**-n`` (``0``, never ``-0``) when it lies within ``1e-9`` of one, so
    rounding noise does not reach the output; a value off that grid is
    reported as solved.  ``cp`` and ``agrees`` judge the solved value."""
    report = _symbolic_report(obj)
    if obj.n <= CHOI_QUBIT_LIMIT:
        pce = subspace_to_map(obj) if isinstance(obj, Subspace) else obj
        oracle = _oracle_verdicts(pce.n, [pce.tau], [report["is_channel"]], tol)
        lambda_min, cp, agrees = (x.item() for x in oracle)
        # Every Choi eigenvalue of a PCE map is an integer over 2**n.
        grid = round(lambda_min * 2**pce.n) / 2**pce.n
        if abs(lambda_min - grid) <= 1e-9:
            lambda_min = grid
        report["oracle"] = {"lambda_min": lambda_min, "cp": cp, "agrees": agrees}
    return report


def verify_report(n: int, masks, tol: float = 1e-9) -> dict:
    """The symbolic CP verdict against the dense oracle on a batch of tau
    bitmasks: one batched closure decision and one oracle call."""
    check_qubits(n, CHOI_QUBIT_LIMIT, "a Choi matrix")
    masks = [_check_tau(n, tau) for tau in masks]
    symbolic = _closed_flags(n, masks)
    _, oracle, agrees = _oracle_verdicts(n, masks, symbolic, tol)
    disagreements = len(masks) - int(agrees.sum())
    return {
        "maps_checked": len(masks),
        "cp_symbolic": int(symbolic.sum()),
        "cp_oracle": int(oracle.sum()),
        "disagreements": disagreements,
        "verdict": "PASS" if disagreements == 0 else "FAIL",
    }


def choi_pauli_vector(a: MultiIndex) -> np.ndarray:
    """Vectorized Pauli string in the Choi matrix's interleaved qubit order: a
    one-entry `_kron_table` of (1, 1, 4) factors after a 1x1 one."""
    factors = [_PAULI_STACK[d].reshape(1, 1, 4) for d in a.digits]
    return _kron_table([_ONE] + factors)[0, 0]


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out all qubits not in ``keep``, a nonempty set of integer qubit
    positions in ``1..n``."""
    rho = np.asarray(rho, dtype=complex)
    n = _infer_n(rho.shape[0], "density matrix")
    kept = sorted({_qubit_position(k, n) - 1 for k in keep})
    if not kept:
        raise ValueError(f"keep must be a nonempty subset of 1..{n}")
    # Axis labels: row i is i, column i is i when traced out (summed), else n + i.
    col = [n + i if i in kept else i for i in range(n)]
    out = kept + [n + i for i in kept]
    reduced = np.einsum(rho.reshape((2,) * (2 * n)), [*range(n), *col], out)
    dim = 2 ** len(kept)
    return reduced.reshape(dim, dim)


def _coerce_labels(strings) -> list[MultiIndex]:
    """Accept base-4 strings or MultiIndex objects interchangeably."""
    return [
        s if isinstance(s, MultiIndex) else MultiIndex.from_string(s)
        for s in strings
    ]


def _commuting_generators(strings: list[MultiIndex]) -> list[int]:
    """RREF generators of a commuting family; raises on an anticommuting pair."""
    n = strings[0].n
    basis = gf2.rref(s.code for s in strings)
    for i, u in enumerate(basis):
        for v in basis[i + 1 :]:
            if _sp_parity(u, v, n):
                raise InvalidStabilizerSetError(
                    f"labels {MultiIndex(n, u)} and {MultiIndex(n, v)} do not commute"
                )
    return basis


def qc_channel(strings: list[MultiIndex]) -> PceMap:
    """PCE channel of a maximal commuting index set (its diagonal projector).

    The input must contain the zero index and have exactly ``2**n`` distinct
    pairwise-commuting elements, which makes it closed under componentwise
    addition (commuting strings span at most n dimensions); the resulting
    channel preserves exactly that index set.

    Raises:
        InvalidStabilizerSetError: naming the specific failed requirement.
    """
    if not strings:
        raise InvalidStabilizerSetError("empty index set")
    strings = _coerce_labels(strings)
    n = strings[0].n
    if any(s.n != n for s in strings):
        raise DimensionMismatchError("labels have mixed qubit counts")
    codes = {s.code for s in strings}
    if len(codes) != len(strings):
        raise InvalidStabilizerSetError("duplicate labels in index set")
    if len(codes) != 2**n:
        raise InvalidStabilizerSetError(
            f"index set has {len(codes)} elements, expected 2**{n} = {2**n}"
        )
    if 0 not in codes:
        raise InvalidStabilizerSetError("index set must contain the zero index")
    _commuting_generators(strings)
    return PceMap.from_preserved(n, codes)


def common_eigenbasis(strings: list[MultiIndex]) -> np.ndarray:
    """Orthonormal simultaneous eigenbasis of a commuting Pauli family.

    Returns a ``2**n x 2**n`` unitary whose columns are the eigenvectors.
    Computed by diagonalizing a generic real combination of independent
    generators (weights 3**-i, so every joint sign pattern gets a distinct
    eigenvalue).
    """
    strings = _coerce_labels(strings)
    n = strings[0].n
    basis = _commuting_generators(strings)
    mix = np.zeros((2**n, 2**n), dtype=complex)
    for i, code in enumerate(basis):
        mix += 3.0 ** -(i + 1) * pauli_string_dense(MultiIndex(n, code))
    _, vectors = np.linalg.eigh(mix)
    return vectors


def qc_project(rho: np.ndarray, basis_vectors: np.ndarray) -> np.ndarray:
    """Erase off-diagonal entries of ``rho`` in the given orthonormal basis."""
    v = np.asarray(basis_vectors, dtype=complex)
    diag = np.diag(v.conj().T @ np.asarray(rho, dtype=complex) @ v)
    return (v * diag) @ v.conj().T


def pauli_transfer_matrix(channel, n: int) -> np.ndarray:
    """Matrix of a channel in the normalized Pauli basis.

    ``channel`` maps density-matrix-like arrays to arrays; entry (a, b) is
    ``2**-n tr(P_a channel(P_b))``.  For a PCE channel this is diagonal with
    the 0/1 mask on the diagonal.
    """
    basis = pauli_basis(n)
    images = np.array([channel(p) for p in basis], dtype=complex)
    return np.einsum("aij,bji->ab", basis, images) / 2**n


def is_positive_semidefinite(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether a Hermitian matrix has all eigenvalues ``>= -tol``.

    Raises:
        ValueError: if the matrix is not Hermitian within ``tol``.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if np.abs(matrix - matrix.conj().T).max() > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return bool(np.linalg.eigvalsh(matrix).min() >= -tol)
