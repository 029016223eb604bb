"""Dense-matrix mirror of the symbolic layer, plus quantum-classical channels."""

import hashlib
import itertools

import numpy as np
import pytest

from pcekit.dense import (
    _choi_block_terms,
    apply_generator_kraus,
    apply_pce,
    check_report,
    check_state_components,
    choi_basis_terms,
    choi_dense,
    choi_min_eigenvalues,
    choi_pauli_vector,
    common_eigenbasis,
    from_pauli_components,
    is_positive_semidefinite,
    partial_trace,
    pauli_components,
    pauli_transfer_matrix,
    purity_from_components,
    qc_channel,
    qc_project,
    verify_report,
)
from pcekit.enumeration import enumerate_subspaces
from pcekit.errors import CapacityError, DimensionMismatchError, InvalidStabilizerSetError
from pcekit.generators import generator_map
from pcekit.maps import PceMap, choi_spectrum, is_closed_subspace, subspace_to_map
from pcekit.pauli import (
    SINGLE_QUBIT_PAULIS,
    MultiIndex,
    commutes,
    pauli_basis,
    pauli_string_dense,
)


def _random_states(n: int, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = z @ z.conj().T
        states.append(rho / np.trace(rho).real)
    return states


def test_component_round_trip_and_normalization():
    for n in (1, 2, 3):
        for rho in _random_states(n, 5, seed=n):
            r = pauli_components(rho)
            assert r.dtype == np.float64
            assert abs(r[0] - 1.0) < 1e-12
            assert np.abs(from_pauli_components(r) - rho).max() < 1e-12
            assert abs(purity_from_components(r) - np.trace(rho @ rho).real) < 1e-12


def test_pauli_components_rejects_non_hermitian():
    with pytest.raises(ValueError):
        pauli_components(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="dimension 3 is not a power of two"):
        pauli_components(np.eye(3))
    with pytest.raises(ValueError, match="length 5 is not a power of four"):
        from_pauli_components(np.ones(5))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_per_qubit_contraction_equals_the_pauli_basis_einsum(n):
    # The reference is the 4**n-string table: r_f = tr(rho P_f) and
    # rho = 2**-n sum_f r_f P_f, one einsum each.
    basis = pauli_basis(n)
    for rho in _random_states(n, 3, seed=70 + n):
        r = pauli_components(rho)
        assert np.abs(r - np.einsum("aij,ji->a", basis, rho).real).max() <= 1e-15
        rebuilt = from_pauli_components(r)
        assert np.abs(rebuilt - np.einsum("a,aij->ij", r, basis) / 2**n).max() <= 1e-15
        assert np.abs(rebuilt - rho).max() <= 1e-15
        assert np.abs(pauli_components(rebuilt) - r).max() <= 1e-15


def test_from_pauli_components_stops_at_the_state_limit():
    with pytest.raises(CapacityError, match="a dense matrix needs 1 <= n <= 10, got n=11"):
        from_pauli_components(np.zeros(4**11))
    with pytest.raises(CapacityError, match="got n=0"):
        from_pauli_components(np.ones(1))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_state_positivity_is_exact_past_the_pauli_table(n):
    # r = 0.9 on X, Y and Z of qubit 1: |r_f| <= 1 and purity <= 1 hold, but
    # the Bloch vector has length 0.9 * sqrt(3) = 1.56.
    r = np.zeros(4**n)
    r[:4] = [1, 0.9, 0.9, 0.9]
    lowest = (1 - 0.9 * np.sqrt(3)) / 2**n
    with pytest.raises(ValueError, match="not positive semidefinite") as refused:
        check_state_components(r)
    assert abs(float(str(refused.value).split()[-1]) - lowest) < 1e-12
    r[1:4] = 0.5
    check_state_components(r)


def test_apply_pce_masks_components():
    rho = _random_states(2, 1, seed=9)[0]
    r = pauli_components(rho)
    m = PceMap.from_preserved(2, [0, 3, 12, 15])
    out = apply_pce(m, r)
    assert np.array_equal(out, r * m.tau_vector())
    # A density matrix is accepted directly as well.
    assert np.array_equal(apply_pce(m, rho), out)
    with pytest.raises(DimensionMismatchError):
        apply_pce(PceMap.identity(1), r)


def test_apply_pce_erases_to_positive_zero():
    # A product r * tau would leave -0.0 where a negative component is
    # erased, and print as "-0".
    out = apply_pce(PceMap.depolarizing(1), np.array([1, -0.5, -0.0, -0.25]))
    assert out.tolist() == [1, 0, 0, 0]
    assert not np.signbit(out).any()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_kraus_equals_component_mask(n):
    # (rho + sigma rho sigma) / 2 erases exactly the anticommuting components.
    states = _random_states(n, 100, seed=50 + n)
    for code in range(4**n):
        label = MultiIndex(n, code)
        mask = generator_map(label)
        for rho in states:
            via_kraus = apply_generator_kraus(label, rho)
            via_mask = from_pauli_components(apply_pce(mask, pauli_components(rho)))
            assert np.abs(via_kraus - via_mask).max() < 1e-12


def test_choi_dense_matches_exact_spectrum_samples():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3):
        size = 4**n
        for _ in range(30 if n < 3 else 10):
            tau = int(rng.integers(0, 1 << size, dtype=np.uint64)) if size < 64 \
                else int(rng.integers(0, 2**63))
            m = PceMap(n, tau)
            dense_vals = np.sort(np.linalg.eigvalsh(choi_dense(m)))
            exact_vals = np.sort(choi_spectrum(m).as_floats())
            assert np.abs(dense_vals - exact_vals).max() < 1e-9


def test_choi_eigenvectors_are_vectorized_pauli_strings():
    m = PceMap(2, 0b0010011001010011)
    C = choi_dense(m)
    values = choi_spectrum(m).as_floats()
    for a in range(16):
        v = choi_pauli_vector(MultiIndex(2, a))
        assert np.abs(C @ v - values[a] * v).max() < 1e-12


def _reference_choi_term(n: int, code: int) -> np.ndarray:
    """Explicit chain of kron(sigma, sigma*) per qubit, from a 1x1 [[1+0j]]."""
    term = np.array([[1.0 + 0j]])
    for k in range(n):
        sigma = SINGLE_QUBIT_PAULIS[(code >> (2 * k)) & 3]
        term = np.kron(term, np.kron(sigma, sigma.conj()))
    return term


def _reference_choi_vector(n: int, code: int) -> np.ndarray:
    """Explicit chain of vectorized sigma per qubit, from a length-1 [1+0j]."""
    vec = np.array([1.0 + 0j])
    for k in range(n):
        vec = np.kron(vec, SINGLE_QUBIT_PAULIS[(code >> (2 * k)) & 3].reshape(4))
    return vec


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_basis_terms_bytes_match_kron_chain(n):
    expected = np.stack([_reference_choi_term(n, code) for code in range(4**n)])
    terms = choi_basis_terms(n)
    assert (terms.dtype, terms.shape) == (expected.dtype, expected.shape)
    assert terms.tobytes() == expected.tobytes()
    assert not terms.flags.writeable


def test_choi_pauli_vector_bytes_match_kron_chain():
    for n in (1, 2, 3):
        for code in range(4**n):
            got = choi_pauli_vector(MultiIndex(n, code))
            expected = _reference_choi_vector(n, code)
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes(), (n, code)


def test_choi_positivity_agrees_with_subspace_criterion_sampled():
    rng = np.random.default_rng(123)
    for _ in range(300):
        tau = int(rng.integers(0, 1 << 16)) | 1
        m = PceMap(2, tau)
        dense_cp = bool(np.linalg.eigvalsh(choi_dense(m)).min() >= -1e-9)
        assert dense_cp == is_closed_subspace(m)


def _block_order(n: int) -> np.ndarray:
    """Choi row indices sorted by (parity bits, system bits).

    Row index bits are (s_1 c_1 ... s_n c_n), qubit 1 most significant: the
    system bit s_k and copy bit c_k of each qubit, adjacent.
    """

    def key(row):
        s = [(row >> (2 * (n - k) + 1)) & 1 for k in range(1, n + 1)]
        c = [(row >> (2 * (n - k))) & 1 for k in range(1, n + 1)]
        return [a ^ b for a, b in zip(s, c)], s

    return np.array(sorted(range(4**n), key=key))


def _off_block(n: int) -> np.ndarray:
    """True where row and column of the block-ordered Choi matrix lie in
    different parity blocks."""
    block = np.arange(4**n) // 2**n
    return block[:, None] != block[None, :]


def _seeded_masks(n: int, count: int, seed: int) -> list[int]:
    draws = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64)
    return [int(m) >> (64 - 4**n) for m in draws]


def _reference_block_min_eigenvalues(n: int, masks) -> np.ndarray:
    """The real part of ``choi_dense`` of each mask, rows and columns permuted
    into (parity, system) order, its 2**n diagonal blocks solved in one batch."""
    order, dim = _block_order(n), 2**n
    blocks = []
    for m in masks:
        choi = choi_dense(PceMap(n, m)).real[np.ix_(order, order)]
        blocks.extend(choi[b * dim : (b + 1) * dim, b * dim : (b + 1) * dim] for b in range(dim))
    lowest = np.linalg.eigvalsh(np.stack(blocks))[:, 0]
    return lowest.reshape(len(masks), dim).min(axis=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_basis_terms_are_block_diagonal_by_qubit_parity(n):
    order = _block_order(n)
    terms = choi_basis_terms(n)[:, order][:, :, order]
    assert not terms[:, _off_block(n)].any()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_basis_terms_are_real(n):
    # Every entry of kron(P, P*) is a product of conjugate pairs.
    assert not choi_basis_terms(n).imag.any()


def test_choi_block_terms_refuse_terms_with_an_imaginary_part(monkeypatch):
    terms = choi_basis_terms(1) + 0
    terms[1, 0, 0] += 1e-300j
    monkeypatch.setattr("pcekit.dense.choi_basis_terms", lambda n: terms)
    with pytest.raises(ArithmeticError, match="nonzero imaginary part"):
        _choi_block_terms.__wrapped__(1)


# sha256 of the real part of the block table built as a complex per-qubit
# (digit, parity) `_kron_table` chain, before the blocks were gathered.
_CHOI_BLOCK_DIGESTS = {
    1: "ebfd827b81a7da1ff619139a7122aa96df663296cbf2ffbd291107ecdb7ee41b",
    2: "71feb53f44edae9c313078f3d463458612697bd598cc15069315dda18ccc614e",
    3: "6c468173cece2ecf76b61a0e695c4b6942c85748dc1e71906ae5398b774b5747",
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_block_terms_are_the_permuted_blocks_of_the_full_terms(n):
    blocks, dim = _choi_block_terms(n), 2**n
    assert blocks.dtype == np.float64
    assert hashlib.sha256(blocks.tobytes()).hexdigest() == _CHOI_BLOCK_DIGESTS[n]
    assert blocks.flags.c_contiguous and not blocks.flags.writeable
    terms, order = choi_basis_terms(n).real, _block_order(n).reshape(dim, dim)
    for p in range(dim):
        # `_block_order` sorts the parity bits qubit 1 first, the blocks qubit n.
        rows = order[int(f"{p:0{n}b}"[::-1], 2)]
        assert blocks[:, p].tobytes() == terms[:, rows][:, :, rows].tobytes(), p


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_min_eigenvalues_bytes_equal_permuted_dense_blocks(n):
    # Every n = 1 mask; the first 4096 n = 2 masks (10 of them print another
    # 12-digit lambda_min than the full-matrix solve) and seeded ones.
    masks = {1: list(range(16)), 2: list(range(1 << 12)), 3: [0, 1, (1 << 64) - 1]}[n]
    masks += _seeded_masks(n, 0 if n == 1 else 300, 31 + n)
    got = choi_min_eigenvalues(n, masks)
    assert got.tobytes() == _reference_block_min_eigenvalues(n, masks).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_min_eigenvalues_do_not_depend_on_the_batch(n):
    # Each distinct block is solved once per chunk; a mask's value keeps its
    # bytes alone, among copies of itself, and shuffled into a mixed batch
    # that spans several chunks (2048 masks at n <= 2, 256 at n = 3).
    rng = np.random.default_rng(7 + n)
    masks = list(range(16)) if n == 1 else _seeded_masks(n, 40, 50 + n)
    masks += [0, 1, (1 << 4**n) - 1]
    alone = np.concatenate([choi_min_eigenvalues(n, [m]) for m in masks])
    copies = choi_min_eigenvalues(n, [m for m in masks for _ in range(3)])
    assert copies.tobytes() == np.repeat(alone, 3).tobytes()
    mixed = masks * (3000 // len(masks) if n <= 2 else 10)
    order = rng.permutation(len(mixed))
    got = choi_min_eigenvalues(n, [mixed[i] for i in order])
    assert got.tobytes() == alone[order % len(masks)].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_min_eigenvalues_match_full_matrix_solve(n):
    # Every n = 1 and n = 2 mask, and 2000 seeded n = 3 masks.
    masks = list(range(1 << 4**n)) if n <= 2 else _seeded_masks(3, 2000, 2024)
    terms = choi_basis_terms(n).reshape(4**n, -1)
    tau = np.array([PceMap(n, m).tau_vector() for m in masks], dtype=float)
    full = (tau @ terms).reshape(len(masks), 4**n, 4**n) / 2**n
    for i in (0, len(masks) // 3, len(masks) - 1):  # the batch is choi_dense's
        assert np.array_equal(full[i], choi_dense(PceMap(n, masks[i])))
    expected = np.linalg.eigvalsh(full)[:, 0]
    got = choi_min_eigenvalues(n, masks)
    assert np.abs(got - expected).max() <= 1e-12
    assert np.array_equal(got >= -1e-9, expected >= -1e-9)


def test_choi_min_eigenvalues_rejects_masks_out_of_range():
    for n, mask in ((1, 16), (1, -1), (2, 1 << 16), (3, 1 << 64), (3, -(1 << 64))):
        with pytest.raises(ValueError, match="out of range"):
            choi_min_eigenvalues(n, [1, mask])
    assert choi_min_eigenvalues(3, [(1 << 64) - 1]).shape == (1,)
    assert choi_min_eigenvalues(2, []).shape == (0,)


def test_choi_min_eigenvalues_rejects_non_integer_masks():
    # Every mask is checked, not just the batch's extremes.
    for masks in ([1.5], [1, 1.5, 3]):
        with pytest.raises(ValueError, match=r"tau bitmask 1\.5 is not an integer"):
            choi_min_eigenvalues(1, masks)


def test_verify_report_and_check_report_share_one_oracle_rule():
    # Every n = 1 mask: the zero map, masks that erase tau_0 (such as 0b10),
    # the five channels and the three trace-preserving near-channels.
    masks = range(16)
    report = verify_report(1, masks)
    assert report == {
        "maps_checked": 16,
        "cp_symbolic": 5,
        # The zero map's Choi matrix is 0: CP, and in agreement.
        "cp_oracle": 6,
        "disagreements": 0,
        "verdict": "PASS",
    }
    for tol in (1e-9, 0.6):
        oracles = [check_report(PceMap(1, m), tol)["oracle"] for m in masks]
        if tol < 0.5:
            assert all(oracle["agrees"] for oracle in oracles)
        report = verify_report(1, masks, tol)
        assert report["cp_oracle"] == sum(oracle["cp"] for oracle in oracles)
        assert report["disagreements"] == sum(not oracle["agrees"] for oracle in oracles)
    # At tol 0.6 the oracle calls the lambda_min = -1/2 maps CP.
    assert report["verdict"] == "FAIL"


def test_verify_report_refuses_a_mask_that_is_not_a_bitmask():
    with pytest.raises(ValueError, match=r"tau bitmask 1\.5 is not an integer"):
        verify_report(1, [1, 1.5])
    with pytest.raises(ValueError, match="out of range for n=1"):
        verify_report(1, [1 << 16])


def test_partial_trace_hand_values():
    # Product state: tracing one factor leaves the other.
    rho_a = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    rho_b = np.array([[0.5, 0.1], [0.1, 0.5]])
    prod = np.kron(rho_a, rho_b)
    assert np.abs(partial_trace(prod, [1]) - rho_a).max() < 1e-12
    assert np.abs(partial_trace(prod, [2]) - rho_b).max() < 1e-12
    # Bell state: each marginal is maximally mixed.
    bell = np.zeros((4, 4), dtype=complex)
    for i, j in itertools.product((0, 3), repeat=2):
        bell[i, j] = 0.5
    assert np.abs(partial_trace(bell, [1]) - np.eye(2) / 2).max() < 1e-12
    assert np.abs(partial_trace(bell, [2]) - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_keeps_qubit_order():
    states = _random_states(1, 3, seed=15)
    triple = np.kron(np.kron(states[0], states[1]), states[2])
    kept = partial_trace(triple, [1, 3])
    assert np.abs(kept - np.kron(states[0], states[2])).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(triple, [])
    with pytest.raises(ValueError, match="qubit index 4 out of range 1..3"):
        partial_trace(triple, [4])
    # A position is an integer: 1.5 is not qubit 1, and "1" is not qubit 1.
    for bad in (1.5, "1"):
        with pytest.raises(ValueError, match=f"qubit index {bad!r} is not an integer"):
            partial_trace(triple, [bad])


def _maximal_commuting_sets(n: int) -> list[list[MultiIndex]]:
    """All n-dimensional subspaces on which the symplectic form vanishes."""
    sets = []
    for sub in enumerate_subspaces(n, n):
        idx = sub.basis_indices()
        if all(commutes(a, b) for a, b in itertools.combinations(idx, 2)):
            sets.append([MultiIndex(n, c) for c in sub.members()])
    return sets


def test_maximal_commuting_set_counts():
    assert len(_maximal_commuting_sets(1)) == 3
    assert len(_maximal_commuting_sets(2)) == 15


@pytest.mark.parametrize("n", [1, 2])
def test_qc_channels_are_pce_with_full_rank_diagonal(n):
    # Dephasing in the joint eigenbasis of a maximal commuting Pauli family
    # is exactly the PCE channel keeping that family; its transfer matrix is
    # diagonal 0/1 with 2**n ones.
    for family in _maximal_commuting_sets(n):
        ch = qc_channel(family)
        assert is_closed_subspace(ch)
        assert ch.preserved_count == 2**n
        assert set(ch.preserved_indices()) == {m.code for m in family}
        V = common_eigenbasis(family)
        assert np.abs(V.conj().T @ V - np.eye(2**n)).max() < 1e-12
        ptm = pauli_transfer_matrix(lambda rho: qc_project(rho, V), n)
        rounded = np.round(ptm.real).astype(int)
        assert np.abs(ptm - rounded).max() < 1e-9
        assert np.array_equal(np.diagonal(rounded), ch.tau_vector())
        assert np.array_equal(rounded, np.diag(np.diagonal(rounded)))


def test_common_eigenbasis_diagonalizes_every_member():
    family = [MultiIndex.from_string(s) for s in ("00", "30", "03", "33")]
    V = common_eigenbasis(family)
    for m in family:
        transformed = V.conj().T @ pauli_string_dense(m) @ V
        off = transformed - np.diag(np.diagonal(transformed))
        assert np.abs(off).max() < 1e-12
        assert np.abs(np.abs(np.diagonal(transformed).real) - 1).max() < 1e-12


def test_qc_channel_validation_errors():
    with pytest.raises(InvalidStabilizerSetError):
        qc_channel([])
    with pytest.raises(InvalidStabilizerSetError, match="expected"):
        qc_channel(["0"])  # too few elements
    with pytest.raises(InvalidStabilizerSetError, match="duplicate"):
        qc_channel(["0", "1", "1", "0"])
    with pytest.raises(InvalidStabilizerSetError, match="commute"):
        qc_channel(["00", "10", "20", "30"])  # X and Y on qubit 1
    # A set without the zero index, or not closed, has an anticommuting pair
    # (a commuting set lies in a span of at most 2**n indices); that refusal
    # comes before the duplicate and count checks.
    for labels in (["1", "2"], ["0", "1", "1", "2"], ["00", "10", "03", "23"]):
        with pytest.raises(InvalidStabilizerSetError, match="commute"):
            qc_channel(labels)
    with pytest.raises(DimensionMismatchError):
        qc_channel(["0", "30"])


@pytest.mark.parametrize(
    "labels, error, message",
    [
        ([], InvalidStabilizerSetError, "empty index set"),
        (["01", "3"], DimensionMismatchError, "label 3 has n=1, expected 2"),
        (["1", "2"], InvalidStabilizerSetError, "do not commute"),
    ],
)
def test_common_eigenbasis_refuses_what_qc_channel_refuses(labels, error, message):
    for refuse in (qc_channel, common_eigenbasis):
        with pytest.raises(error, match=message):
            refuse(labels)


def test_qc_channel_refuses_integer_labels():
    with pytest.raises(ValueError, match="not a base-4 digit string: 0"):
        qc_channel([0, 1, 2, 3])


def test_qc_project_is_idempotent_and_trace_preserving():
    rho = _random_states(2, 1, seed=33)[0]
    V = common_eigenbasis(["30", "03"])
    out = qc_project(rho, V)
    assert abs(np.trace(out).real - 1) < 1e-12
    assert np.abs(qc_project(out, V) - out).max() < 1e-12
    assert is_positive_semidefinite(out)


def test_pauli_transfer_matrix_of_pce_is_diagonal_mask():
    m = PceMap.from_preserved(2, [0, 5, 8, 13])
    ptm = pauli_transfer_matrix(
        lambda rho: from_pauli_components(apply_pce(m, pauli_components(rho))), 2
    )
    assert np.abs(ptm - np.diag(m.tau_vector().astype(float))).max() < 1e-12


def test_is_positive_semidefinite():
    assert is_positive_semidefinite(np.eye(3))
    assert not is_positive_semidefinite(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        is_positive_semidefinite(np.array([[0.0, 1.0], [0.0, 0.0]]))
