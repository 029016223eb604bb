"""Pauli multi-index algebra: encoding, signs, commutation, transforms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcekit.maps import Subspace
from pcekit.pauli import (
    MultiIndex,
    SIGN_TABLE,
    SINGLE_QUBIT_PAULIS,
    A_entry,
    a_entry,
    check_qubits,
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


def test_digit_refuses_a_qubit_position_that_is_not_an_integer_in_range():
    m = MultiIndex(2, 5)
    assert m.digit(np.int64(2)) == 1
    with pytest.raises(ValueError, match=r"qubit index 1\.0 is not an integer"):
        m.digit(1.0)
    for k in (0, 3):
        with pytest.raises(ValueError, match=f"qubit index {k} out of range 1..2"):
            m.digit(k)


def test_bit_string_layout_groups_low_bits_then_high_bits():
    # digit = j + 2k; the bit string lists j_1..j_n then k_1..k_n.
    m = MultiIndex.from_digits((1, 2))  # j = (1, 0), k = (0, 1)
    assert m.to_bit_string() == "1001"
    assert m.j_bits == 0b01 and m.k_bits == 0b10


def _reference_gather_even_bits(code: int, n: int) -> int:
    """Bits 0, 2, .., 2n - 2 of ``code`` packed into bits 0..n-1, one at a time."""
    out = 0
    for pos in range(n):
        out |= ((code >> (2 * pos)) & 1) << pos
    return out


def _reference_to_bit_string(m: MultiIndex) -> str:
    """The (j_1..j_n k_1..k_n) bit string, gathered and joined bit by bit."""
    j = _reference_gather_even_bits(m.code, m.n)
    k = _reference_gather_even_bits(m.code >> 1, m.n)
    js = "".join(str((j >> pos) & 1) for pos in range(m.n))
    ks = "".join(str((k >> pos) & 1) for pos in range(m.n))
    return js + ks


def _reference_from_bit_string(text: str) -> MultiIndex:
    """A checked bit string rebuilt digit by digit through `from_digits`."""
    n = len(text) // 2
    return MultiIndex.from_digits([int(text[pos]) + 2 * int(text[n + pos]) for pos in range(n)])


@st.composite
def multi_indices(draw):
    n = draw(st.integers(1, 16))
    return MultiIndex(n, draw(st.integers(0, 4**n - 1)))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(multi_indices())
def test_bit_string_codec_equals_the_per_digit_reference(m):
    text = m.to_bit_string()
    assert text == _reference_to_bit_string(m)
    assert m.j_bits == _reference_gather_even_bits(m.code, m.n)
    assert m.k_bits == _reference_gather_even_bits(m.code >> 1, m.n)
    assert MultiIndex.from_bit_string(text) == m == _reference_from_bit_string(text)


def _reference_to_string(m: MultiIndex) -> str:
    """The base-4 digit string, qubit 1 first, joined digit by digit."""
    return "".join(str(d) for d in m.digits)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(multi_indices())
def test_to_string_equals_the_per_digit_reference(m):
    assert m.to_string() == _reference_to_string(m)
    for code in (0, 4**m.n - 1):
        edge = MultiIndex(m.n, code)
        assert edge.to_string() == _reference_to_string(edge)


def test_invalid_encodings_rejected():
    with pytest.raises(ValueError):
        MultiIndex(1, 4)
    with pytest.raises(ValueError):
        MultiIndex(1, -1)
    with pytest.raises(ValueError, match="flat index 2.5 is not an integer"):
        MultiIndex(1, 2.5)
    for text in ("14", "", "+1", " 1", "1_0", "\u0661"):
        with pytest.raises(ValueError):
            MultiIndex.from_string(text)
    for text in ("", "101", "0120", "+1", " 01 ", "0_11", "\u0661\u0660"):
        with pytest.raises(ValueError, match="not a length-2n bit string"):
            MultiIndex.from_bit_string(text)
    with pytest.raises(ValueError, match="digit 4 not in 0..3"):
        MultiIndex.from_digits((0, 4))


@pytest.mark.parametrize(
    "parse, value, message",
    [
        # Every element of ["0", "1"] is in "01", so a per-character check
        # read it as MultiIndex(1, 2).
        (MultiIndex.from_bit_string, ["0", "1"], "not a length-2n bit string"),
        (MultiIndex.from_string, 12, "not a base-4 digit string"),
        (MultiIndex.from_string, ["1", "2"], "not a base-4 digit string"),
    ],
    ids=["bit-string-list", "string-int", "string-list"],
)
def test_string_parsers_refuse_a_non_str(parse, value, message):
    with pytest.raises(ValueError, match=re.escape(f"{message}: {value!r}")):
        parse(value)


def test_from_digits_refuses_a_non_integer_digit():
    # 1.0 == 1, so a membership test in (0, 1, 2, 3) let it reach the shift.
    with pytest.raises(ValueError, match=r"digit 1\.0 is not an integer"):
        MultiIndex.from_digits([1.0])


def test_qubit_counts_must_be_integers():
    with pytest.raises(ValueError, match="integer qubit count, got n=2.5"):
        check_qubits(2.5)
    with pytest.raises(ValueError, match="integer qubit count, got n=1.5"):
        Subspace(1.5, ())
    check_qubits(np.int64(2))
    assert MultiIndex(np.int64(2), 15).digits == (3, 3)


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
    for digits in ((4, 0), (0, 4)):
        with pytest.raises(ValueError, match="digits must be in 0..3"):
            a_entry(*digits)
    for a in range(16):
        for b in range(16):
            ia, ib = MultiIndex(2, a), MultiIndex(2, b)
            expected = 1
            for k in (1, 2):
                expected *= a_entry(ia.digit(k), ib.digit(k))
            assert A_entry(ia, ib) == expected


def test_a_entry_refuses_a_non_integer_digit():
    with pytest.raises(ValueError, match=r"digit 1\.0 is not an integer"):
        a_entry(1.0, 2)


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
        # Float input is truncated toward zero before the transform.
        assert np.array_equal(sign_transform(v + 0.5 * np.sign(v)), A @ v)


@pytest.mark.parametrize("n", [1, 2])
def test_sign_matrix_squares_to_dimension_times_identity(n):
    A = _sign_matrix(n)
    assert np.array_equal(A @ A, 4**n * np.eye(4**n, dtype=np.int64))


def test_sign_transform_batched_rows():
    rng = np.random.default_rng(17)
    batch = rng.integers(0, 2, size=(8, 16))
    single = np.stack([sign_transform(row) for row in batch])
    assert np.array_equal(sign_transform(batch), single)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_transform_of_non_contiguous_batches(n):
    # Fortran-ordered, transposed and broadcast batches must give the same
    # rows as the explicit product, not the input copied through.
    rng = np.random.default_rng(23 + n)
    transposed = rng.integers(0, 2, size=(4**n, 5)).T
    batch = np.ascontiguousarray(transposed)
    expected = batch @ _sign_matrix(n)
    fortran = np.asfortranarray(batch)
    for vec in (transposed, fortran, fortran.astype(np.uint8)):
        assert np.array_equal(sign_transform(vec), expected)
    row = np.broadcast_to(batch[0], (3, 4**n))
    assert np.array_equal(sign_transform(row), np.broadcast_to(expected[0], (3, 4**n)))
    stacked = np.broadcast_to(batch, (2, 5, 4**n))
    assert np.array_equal(sign_transform(stacked), np.broadcast_to(expected, (2, 5, 4**n)))


def _reference_sign_transform(vec) -> np.ndarray:
    """The plain int64 butterfly: four 4-term sums per group of four."""
    out = np.array(vec, dtype=np.int64, order="C", copy=True)
    size = out.shape[-1]
    flat = out.reshape(-1, size)
    stride = 1
    while stride < size:
        v = flat.reshape(-1, 4, stride)
        t0 = v[:, 0, :] + v[:, 1, :] + v[:, 2, :] + v[:, 3, :]
        t1 = v[:, 0, :] + v[:, 1, :] - v[:, 2, :] - v[:, 3, :]
        t2 = v[:, 0, :] - v[:, 1, :] + v[:, 2, :] - v[:, 3, :]
        t3 = v[:, 0, :] - v[:, 1, :] - v[:, 2, :] + v[:, 3, :]
        v[:, 0, :], v[:, 1, :], v[:, 2, :], v[:, 3, :] = t0, t1, t2, t3
        stride *= 4
    return out


# Bounds on max|v| * 4**n: float32's exact integers, the int32 range (whose
# exact values `test_sign_transform_at_the_int32_bound` pins) and float64's.
_BOUNDS = (2**24, 2**31, 2**53)


def _limit(n: int, bound: int) -> int:
    """The max|v| at which a transform first reaches ``bound``."""
    return bound // 4**n


@st.composite
def transform_inputs(draw):
    """Arrays whose max|v| sits just below, at or above one of `_BOUNDS`, or
    is 1; 0/1 arrays come in uint8 and bool as well as int64.  Half are
    ``peak`` times a row of the sign matrix, whose transform reaches
    ``peak * 4**n`` at one index."""
    n = draw(st.integers(1, 6))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    limit = _limit(n, draw(st.sampled_from(_BOUNDS)))
    peak = draw(st.sampled_from([1, limit - 1, limit, limit + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        unit = np.zeros(4**n, dtype=np.int64)
        unit[rng.integers(4**n)] = draw(st.sampled_from([peak, -peak]))
        return np.broadcast_to(_reference_sign_transform(unit), (*batch, 4**n))
    low = 0 if peak == 1 and draw(st.booleans()) else -peak
    vec = rng.integers(low, peak + 1, size=(*batch, 4**n))
    vec.flat[rng.integers(vec.size)] = draw(st.sampled_from([peak, -peak])) if low else peak
    if low == 0:
        vec = vec.astype(draw(st.sampled_from([np.int64, np.uint8, bool])))
    return vec


@settings(deadline=None, derandomize=True, max_examples=200)
@given(transform_inputs())
def test_sign_transform_equals_the_int64_reference(vec):
    out = sign_transform(vec)
    assert out.dtype == np.int64 and out.shape == vec.shape
    assert out.tobytes() == _reference_sign_transform(vec).tobytes()


@pytest.mark.parametrize("n", [1, 4, 6])
def test_sign_transform_at_the_int32_bound(n):
    # A constant vector sums to 4**n times its value at flat index 0: at the
    # limit that is exactly 2**31, one past the int32 range.
    limit = _limit(n, 2**31)
    for value in (limit - 1, limit, -limit, -(limit + 1)):
        out = sign_transform(np.full(4**n, value))
        assert out.dtype == np.int64
        assert int(out[0]) == value * 4**n and not out[1:].any()
    assert int(sign_transform(np.full((2, 4**n), limit))[1, 0]) == 2**31


@pytest.mark.parametrize("n", [1, 4, 6])
@pytest.mark.parametrize("bound", [2**24, 2**53])
def test_sign_transform_at_the_float_bounds(n, bound):
    # All entries but the last at the value, the last one nearer zero: the sum
    # at flat index 0 is odd, so a float working copy past its exact integer
    # range rounds it.  Just above the limit that sum exceeds the bound.
    limit = _limit(n, bound)
    for value in (limit - 1, limit, limit + 1, -limit, -(limit + 1)):
        vec = np.full(4**n, value)
        vec[-1] -= np.sign(value)
        out = sign_transform(vec)
        assert out.dtype == np.int64
        assert int(out[0]) == value * 4**n - np.sign(value)
        assert out.tobytes() == _reference_sign_transform(vec).tobytes()


@pytest.mark.parametrize("peak", [1, 2**10, 2**40])
def test_sign_transform_across_slabs(peak):
    # Two n = 9 rows are eight slabs of 2**16 elements, in the float32,
    # float64 and int64 working copy, each converted to int64 slab by slab.
    rng = np.random.default_rng(peak)
    vec = rng.integers(0 if peak == 1 else -peak, peak + 1, size=(2, 4**9))
    assert sign_transform(vec).tobytes() == _reference_sign_transform(vec).tobytes()


def test_sign_transform_beyond_the_float64_bound():
    # |v| = 2**55 at n = 1 puts the sum at index 0 at 2**56 - 1: past the
    # float64 bound, so only the int64 path is exact.
    vec = np.array([2**55, 2**55, -(2**55), 2**55 - 1])
    expected = _sign_matrix(1) @ vec
    assert int(expected[0]) == 2**56 - 1
    assert np.array_equal(sign_transform(vec), expected)
    batch = np.stack([vec, -vec])
    assert np.array_equal(sign_transform(batch), batch @ _sign_matrix(1))


def test_sign_transform_refuses_what_it_cannot_transform_exactly():
    for vec in (np.ones(8), np.ones((2, 2)), np.array([]), np.array(1)):
        with pytest.raises(ValueError, match=r"last axis of 4\*\*n entries"):
            sign_transform(vec)
    # A row's L1 norm of 2**63 can put an output out of int64 (here the sum at
    # flat index 0); one less keeps every output, and every partial sum, exact.
    for vec in ([2**62, 2**62, 0, 0], [-(2**63), 0, 0, 0], [[1, 0, 0, 0], [2**62] * 4]):
        with pytest.raises(ValueError, match=r"L1 norm reaches 2\*\*63"):
            sign_transform(np.array(vec))
    with pytest.raises(ValueError, match="L1 norm"):
        sign_transform(np.array([2**63, 0, 0, 0], dtype=np.uint64))
    assert sign_transform(np.array([2**62, 0, 0, 0])).tolist() == [2**62] * 4
    for vec in ([2**62 - 1, 2**62, 0, 0], [2**61 - 1, 2**61, -(2**61), 2**61]):
        exact = _sign_matrix(1).astype(object) @ np.array(vec, dtype=object)
        assert sign_transform(np.array(vec)).tolist() == exact.tolist()


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


def _reference_pauli_string(n: int, code: int) -> np.ndarray:
    """Explicit np.kron chain from qubit 1's factor, qubit 1 leftmost."""
    out = SINGLE_QUBIT_PAULIS[code & 3]
    for k in range(1, n):
        out = np.kron(out, SINGLE_QUBIT_PAULIS[(code >> (2 * k)) & 3])
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_basis_bytes_match_kron_chain(n):
    expected = np.stack([_reference_pauli_string(n, code) for code in range(4**n)])
    basis = pauli_basis(n)
    assert (basis.dtype, basis.shape) == (expected.dtype, expected.shape)
    assert basis.tobytes() == expected.tobytes()


def test_pauli_string_dense_bytes_match_kron_chain():
    labels = [(n, code) for n in (1, 2, 3) for code in range(4**n)]
    rng = np.random.default_rng(2024)
    labels += [(n, int(code)) for n in (4, 5) for code in rng.integers(0, 4**n, size=100)]
    for n, code in labels:
        got = pauli_string_dense(MultiIndex(n, code))
        expected = _reference_pauli_string(n, code)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes(), (n, code)


def test_pauli_basis_is_read_only():
    basis = pauli_basis(1)
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 5.0


def test_weight_counts_non_identity_digits():
    assert MultiIndex.from_string("000").weight == 0
    assert MultiIndex.from_string("103").weight == 2
    assert MultiIndex.from_string("222").weight == 3
