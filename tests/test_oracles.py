"""The brute-force oracles are themselves checked against their plain
definitions, so a faster oracle cannot quietly change the grid."""
import hashlib

import numpy as np
import pytest

import oracles


def compositions_reference(units: int, parts: int) -> np.ndarray:
    """The recursive definition: every first part from units down to 0,
    followed by every composition of what is left into parts - 1."""
    if parts == 1:
        return np.array([[units]], dtype=np.int64)
    blocks = []
    for first in range(units, -1, -1):
        rest = compositions_reference(units - first, parts - 1)
        head = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack((head, rest)))
    return np.vstack(blocks)


@pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("units", [0, 1, 2, 7, 12])
def test_compositions_match_recursive_definition(units, parts):
    got = oracles.simplex_compositions(units, parts)
    assert got.dtype == np.int64
    assert np.array_equal(got, compositions_reference(units, parts))


def test_l4_grid_rows_unchanged():
    # sha256 of the (1373701, 4) int64 rows of the recursive definition
    grid = oracles.simplex_compositions(200, 4)
    assert grid.shape == (1373701, 4)
    assert (hashlib.sha256(np.ascontiguousarray(grid).tobytes()).hexdigest()
            == "9c855fee24f153351c9c9090e12b92a68c87e7bc6d72ffdc76eac6c46c4b6007")
