"""Channel counting and exhaustive subspace generation."""

import hashlib

import pytest

from pcekit.enumeration import (
    ChannelCensus,
    census,
    count_channels,
    enumerate_subspaces,
    recount_by_enumeration,
)
from pcekit.errors import CapacityError
from pcekit.maps import subspace_to_map

# Frozen per-dimension counts (number of K-dimensional subspaces of a
# 2n-dimensional binary vector space).
EXPECTED = {
    1: (1, 3, 1),
    2: (1, 15, 35, 15, 1),
    3: (1, 63, 651, 1395, 651, 63, 1),
}

# sha256 over ``repr(s.basis)`` of every yielded subspace, in stream order,
# per (n, K): pins the full enumeration order for n <= 4.
ORDER_DIGESTS = {
    (1, 0): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    (1, 1): "22f28561a1703269b2aa4ea81e5d5f0a5ee687a2eef8a42f0c1ea7125d3f3a8e",
    (1, 2): "34e6f08aad18ac9868a9da1b5d2ad0bf2fabf191e92652264ecfc9bde7460695",
    (2, 0): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    (2, 1): "065ab1c1d9ebeecb604e1aa819c868a9fc018c3be8a74c0575e533a8fe952e62",
    (2, 2): "7b3eba887b21e949b940bab6cc167f27bc60cb3f5599be318fa95998544cf9af",
    (2, 3): "b15b4870408dcfa5620bb4aec6dc4d53565fb3b452facd86cfc1fb66ca1b991d",
    (2, 4): "03c5a2531655c53b3b808d318f56bccf2b0fc89dde1224e88990b3d95d3565cb",
    (3, 0): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    (3, 1): "55902e11a8871c1c67bf940b9b44b8fd30646e7e4a288b5e0dde5d461bd2f68a",
    (3, 2): "7daa457c7f460613e342bf577973788cf2b7d8ebe99ffa4bc99cc568db5b2235",
    (3, 3): "6e49940fd2a884740a42199ed2c99c0e25000af932372127805ae801d3237f0d",
    (3, 4): "c7f400149d2cf1902c51c499f9d1b45ce58837513f7a87c3a05d60491d655816",
    (3, 5): "cc0a4177e4570224799b96bc5d4231f7e169af5e4e3b9d9886fd25895ebad690",
    (3, 6): "957bca09e6c26e1c9130805431ce47de5baf00aa92b7362f9c328acd74006f82",
    (4, 0): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    (4, 1): "6e16dc9d5cd0d3d72615d1c218cab1b907a27ea1cf6ee8c0125cf5140c2ee05e",
    (4, 2): "7189c8b0fe725e6e5cefc5a6632ab12826c196b433df023283af12972a8ef500",
    (4, 3): "4374ef7841e5ffd752eb5dbe1aea3561121f4d13b01d496eb879d5edd435100a",
    (4, 4): "ef6e78c7db7dc29a6ca71f84d27363985cbd242fe1c55371ccf13b4ebefe3d9d",
    (4, 5): "d38b51de08bfcffc010295b9d3750cd843a915bc2f49315e81b4846baf7840bf",
    (4, 6): "7c96fb095156f0e1aadaf57326b1ba4b42349e174d751853bcdb447138a21a07",
    (4, 7): "215fbd8b7bec8ecdcde7a1d102befcd48cc4dae9e9da81609587834635d92528",
    (4, 8): "0a5d891b58f67a2e3af96f856a4c3893b9afd3fc066d1fb05d1299a6e520cc5e",
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_formula_matches_frozen_values(n):
    assert tuple(count_channels(n, K) for K in range(2 * n + 1)) == EXPECTED[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_recount_matches_formula(n):
    for K in range(2 * n + 1):
        assert recount_by_enumeration(n, K) == count_channels(n, K)


def test_totals():
    assert census(1).total == 5
    assert census(2).total == 67
    assert census(3).total == 2825


@pytest.mark.parametrize("n", range(1, 9))
def test_count_symmetry_under_dimension_swap(n):
    for K in range(2 * n + 1):
        assert count_channels(n, K) == count_channels(n, 2 * n - K)
    assert census(n).is_symmetric


def test_count_rejects_out_of_range_dimension():
    with pytest.raises(ValueError):
        count_channels(2, -1)
    with pytest.raises(ValueError):
        count_channels(2, 5)


def test_enumerated_subspaces_are_distinct_channels():
    seen_subspaces = set()
    seen_masks = set()
    for K in range(5):
        for sub in enumerate_subspaces(2, K):
            assert sub.dim == K
            seen_subspaces.add(sub)
            seen_masks.add(subspace_to_map(sub).tau)
    assert len(seen_subspaces) == 67
    assert len(seen_masks) == 67


def test_enumeration_order_is_deterministic():
    first = [s.basis for s in enumerate_subspaces(2, 2)]
    second = [s.basis for s in enumerate_subspaces(2, 2)]
    assert first == second
    assert len(first) == 35


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_order_matches_pinned_digests(n):
    for K in range(2 * n + 1):
        digest = hashlib.sha256()
        for sub in enumerate_subspaces(n, K):
            digest.update(repr(sub.basis).encode())
        assert digest.hexdigest() == ORDER_DIGESTS[n, K], (n, K)


def test_single_qubit_enumeration_order():
    assert [s.basis for s in enumerate_subspaces(1, 1)] == [(1,), (2,), (3,)]
    assert [s.basis for s in enumerate_subspaces(1, 0)] == [()]
    assert [s.basis for s in enumerate_subspaces(1, 2)] == [(2, 1)]


def test_enumeration_capacity_limit():
    with pytest.raises(CapacityError, match="35"):
        list(enumerate_subspaces(2, 2, limit=10))
    # The default limit blocks astronomically large requests up front.
    with pytest.raises(CapacityError):
        list(enumerate_subspaces(8, 8))


def test_census_table_shapes():
    table = census(2)
    assert isinstance(table, ChannelCensus)
    assert table.per_K == EXPECTED[2]
    doc = table.to_json_dict()
    assert doc["n"] == 2
    assert doc["total"] == 67
    assert doc["per_K"] == {str(K): c for K, c in enumerate(EXPECTED[2])}
