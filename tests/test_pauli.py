"""Pauli multi-index algebra: encoding, signs, commutation, transforms."""

import numpy as np
import pytest

from pcekit.pauli import (
    MultiIndex,
    SIGN_TABLE,
    SINGLE_QUBIT_PAULIS,
    A_entry,
    a_entry,
    commutes,
    klein_add,
    pauli_basis,
    pauli_string_dense,
    sign_transform,
    symplectic_product,
    symplectic_product_row,
)


def test_multiindex_encoding_round_trips():
    for code in range(64):
        m = MultiIndex(3, code)
        assert MultiIndex.from_digits(m.digits) == m
        assert MultiIndex.from_string(m.to_string()) == m
        assert MultiIndex.from_bit_string(m.to_bit_string()) == m
        assert sum(d << (2 * (k - 1)) for k, d in enumerate(m.digits, 1)) == code


def test_multiindex_digit_order_is_qubit_one_first():
    m = MultiIndex.from_string("123")
    assert m.digits == (1, 2, 3)
    assert m.digit(1) == 1 and m.digit(3) == 3
    assert m.code == 1 + 2 * 4 + 3 * 16


def test_bit_string_layout_groups_low_bits_then_high_bits():
    # digit = j + 2k; the bit string lists j_1..j_n then k_1..k_n.
    m = MultiIndex.from_digits((1, 2))  # j = (1, 0), k = (0, 1)
    assert m.to_bit_string() == "1001"
    assert m.j_bits == 0b01 and m.k_bits == 0b10


def test_invalid_encodings_rejected():
    with pytest.raises(ValueError):
        MultiIndex(1, 4)
    with pytest.raises(ValueError):
        MultiIndex(1, -1)
    for text in ("14", "", "+1", " 1", "1_0", "\u0661"):
        with pytest.raises(ValueError):
            MultiIndex.from_string(text)
    with pytest.raises(ValueError):
        MultiIndex.from_bit_string("101")  # odd length


def test_klein_addition_is_bitwise_xor_and_self_inverse():
    for a in range(16):
        for b in range(16):
            s = klein_add(MultiIndex(2, a), MultiIndex(2, b))
            assert s.code == a ^ b
            assert klein_add(s, MultiIndex(2, b)).code == a
    assert (MultiIndex(2, 5) ^ MultiIndex(2, 9)).code == 12


def test_single_qubit_sign_table_matches_dense_conjugation():
    for a in range(4):
        for b in range(4):
            sa, sb = SINGLE_QUBIT_PAULIS[a], SINGLE_QUBIT_PAULIS[b]
            conj = sa @ sb @ sa
            assert np.allclose(conj, SIGN_TABLE[a][b] * sb)


def test_a_entry_is_tensor_power_of_sign_table():
    for d in range(4):
        for e in range(4):
            assert a_entry(d, e) == SIGN_TABLE[d][e]
    for a in range(16):
        for b in range(16):
            ia, ib = MultiIndex(2, a), MultiIndex(2, b)
            expected = 1
            for k in (1, 2):
                expected *= a_entry(ia.digit(k), ib.digit(k))
            assert A_entry(ia, ib) == expected


def test_sign_matrix_matches_dense_conjugation_two_qubits():
    for a in range(16):
        sa = pauli_string_dense(MultiIndex(2, a))
        for b in range(16):
            sb = pauli_string_dense(MultiIndex(2, b))
            sign = A_entry(MultiIndex(2, a), MultiIndex(2, b))
            assert np.allclose(sa @ sb @ sa, sign * sb, atol=1e-12)


def test_symplectic_product_decides_commutation():
    for a in range(16):
        sa = pauli_string_dense(MultiIndex(2, a))
        for b in range(16):
            sb = pauli_string_dense(MultiIndex(2, b))
            commute = np.allclose(sa @ sb, sb @ sa, atol=1e-12)
            sp = symplectic_product(MultiIndex(2, a), MultiIndex(2, b))
            assert sp in (0, 1)
            assert commute == (sp == 0)
            assert commutes(MultiIndex(2, a), MultiIndex(2, b)) == commute


def test_symplectic_product_is_symmetric_and_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (MultiIndex(3, int(x)) for x in rng.integers(0, 64, size=3))
        assert symplectic_product(a, b) == symplectic_product(b, a)
        lhs = symplectic_product(klein_add(a, b), c)
        rhs = (symplectic_product(a, c) + symplectic_product(b, c)) % 2
        assert lhs == rhs


def test_symplectic_product_row_matches_elementwise():
    for n in (1, 2, 3):
        for a in range(4**n):
            row = symplectic_product_row(MultiIndex(n, a))
            assert row.shape == (4**n,)
            for b in range(4**n):
                assert row[b] == symplectic_product(MultiIndex(n, a), MultiIndex(n, b))


def _sign_matrix(n: int) -> np.ndarray:
    size = 4**n
    return np.array(
        [
            [A_entry(MultiIndex(n, a), MultiIndex(n, b)) for b in range(size)]
            for a in range(size)
        ],
        dtype=np.int64,
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_transform_matches_matrix_product(n):
    rng = np.random.default_rng(5 + n)
    A = _sign_matrix(n)
    for _ in range(10):
        v = rng.integers(-3, 4, size=4**n)
        assert np.array_equal(sign_transform(v), A @ v)


@pytest.mark.parametrize("n", [1, 2])
def test_sign_matrix_squares_to_dimension_times_identity(n):
    A = _sign_matrix(n)
    assert np.array_equal(A @ A, 4**n * np.eye(4**n, dtype=np.int64))


def test_sign_transform_batched_rows():
    rng = np.random.default_rng(17)
    batch = rng.integers(0, 2, size=(8, 16))
    single = np.stack([sign_transform(row) for row in batch])
    assert np.array_equal(sign_transform(batch), single)


def test_pauli_string_dense_hand_values():
    x_kron_z = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(pauli_string_dense(MultiIndex.from_string("13")), x_kron_z)
    y = np.array([[0, -1j], [1j, 0]])
    assert np.array_equal(pauli_string_dense(MultiIndex.from_string("2")), y)


def test_pauli_basis_orthogonality_and_hermiticity():
    for n in (1, 2):
        basis = pauli_basis(n)
        assert basis.shape == (4**n, 2**n, 2**n)
        assert np.array_equal(basis[0], np.eye(2**n))
        gram = np.einsum("aij,bji->ab", basis, basis).real
        assert np.allclose(gram, 2**n * np.eye(4**n), atol=1e-12)
        assert np.allclose(basis, basis.conj().transpose(0, 2, 1), atol=1e-12)


def test_pauli_basis_is_read_only():
    basis = pauli_basis(1)
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 5.0


def test_weight_counts_non_identity_digits():
    assert MultiIndex.from_string("000").weight == 0
    assert MultiIndex.from_string("103").weight == 2
    assert MultiIndex.from_string("222").weight == 3
