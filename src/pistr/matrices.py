"""Labeled-matrix constructions: the M_n(x,y,z) family, fixed matrices and
direct sums.

Matrix formulas follow 1-based row/column indices throughout, matching the
convention the constructions were stated in; callers get numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_TRIPLES = {"A": (1, 2, 3), "B": (2, 3, 1), "C": (3, 1, 2)}


def pivot_index(n: int) -> int:
    """The designated row k = ceil(n/2) + 1 (1-based)."""
    return (n + 1) // 2 + 1


def m_matrix(n: int, x: int, y: int, z: int) -> np.ndarray:
    """The n x n matrix with entry (i,j) = x when j <= n-i+1 (i != j),
    z at (k,n) and (n,k) for k = ceil(n/2)+1, y elsewhere, 0 on the diagonal.
    """
    if n < 4:
        raise ValueError("m_matrix needs n >= 4")
    for lab in (x, y, z):
        if not isinstance(lab, (int, np.integer)) or lab < 1:
            raise ValueError("labels must be positive integers")
    m = np.full((n, n), y, dtype=np.int64)
    # i + j <= n - 1, 0-based (1-based: j <= n - i + 1): the lower
    # triangle j <= i with its rows reversed, one byte an entry
    m[np.tri(n, dtype=bool)[::-1]] = x
    k0 = pivot_index(n) - 1
    m[k0, n - 1] = m[n - 1, k0] = z
    np.fill_diagonal(m, 0)
    return m


def named_family(n: int, which: str) -> np.ndarray:
    """A_n, B_n, or C_n: m_matrix with triples (1,2,3), (2,3,1), (3,1,2)."""
    try:
        x, y, z = FAMILY_TRIPLES[which]
    except KeyError:
        raise ValueError(f"unknown family {which!r}, expected A, B or C") from None
    return m_matrix(n, x, y, z)


def tilde_matrix(n: int, which: str) -> np.ndarray:
    """Tilde variant: z collapsed to y; pairs (1,2), (2,3), (3,1) per family."""
    try:
        x, y, _ = FAMILY_TRIPLES[which]
    except KeyError:
        raise ValueError(f"unknown family {which!r}, expected A, B or C") from None
    return m_matrix(n, x, y, y)


@dataclass(frozen=True)
class RowProfile:
    """Census of one row of m_matrix(n, x, y, z): counts of x, y, z."""

    row_type: int
    x_count: int
    y_count: int
    z_count: int

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.x_count, self.y_count, self.z_count)


def row_profile(n: int, i: int) -> RowProfile:
    """Row census for 1-based row i of an order-n matrix.

    Row k = ceil(n/2)+1 is type 1 with counts (ceil((n-1)/2), ceil(n/2)-2, 1);
    rows i < k are type 2 with (n-i, i-1, 0), rows k < i < n type 2 with
    (n-i+1, i-2, 0); row n is type 3 with (1, n-3, 1).
    """
    if n < 4:
        raise ValueError("row_profile needs n >= 4")
    if not 1 <= i <= n:
        raise ValueError(f"row index {i} outside 1..{n}")
    k = pivot_index(n)
    if i == k:
        return RowProfile(1, (n - 1 + 1) // 2, (n + 1) // 2 - 2, 1)
    if i == n:
        return RowProfile(3, 1, n - 3, 1)
    if i < k:
        return RowProfile(2, n - i, i - 1, 0)
    return RowProfile(2, n - i + 1, i - 2, 0)


def direct_sum(mats: list[np.ndarray], dtype=np.int64) -> np.ndarray:
    """Block-diagonal combination; models disjoint union of labeled graphs.
    dtype is the result's, which must hold every entry."""
    if not mats:
        raise ValueError("direct_sum needs at least one matrix")
    orders = [m.shape[0] for m in mats]
    total = sum(orders)
    out = np.zeros((total, total), dtype=dtype)
    off = 0
    for m, k in zip(mats, orders):
        out[off:off + k, off:off + k] = m
        off += k
    return out


_T = [
    [0, 1, 2],
    [1, 0, 3],
    [2, 3, 0],
]

_T5 = [
    [0, 3, 1, 1, 1],
    [3, 0, 1, 3, 2],
    [1, 1, 0, 1, 1],
    [1, 3, 1, 0, 2],
    [1, 2, 1, 2, 0],
]

_T5_TILDE = [
    [0, 2, 2, 2, 1],
    [2, 0, 3, 3, 3],
    [2, 3, 0, 2, 3],
    [2, 3, 2, 0, 1],
    [1, 3, 3, 1, 0],
]

_T6 = [
    [0, 1, 2, 3, 1, 3],
    [1, 0, 1, 3, 1, 1],
    [2, 1, 0, 1, 2, 2],
    [3, 3, 1, 0, 1, 1],
    [1, 1, 2, 1, 0, 1],
    [3, 1, 2, 1, 1, 0],
]

_T6_TILDE = [
    [0, 2, 3, 3, 3, 3],
    [2, 0, 2, 3, 3, 2],
    [3, 2, 0, 2, 1, 2],
    [3, 3, 2, 0, 3, 1],
    [3, 3, 1, 3, 0, 3],
    [3, 2, 2, 1, 3, 0],
]

_P6 = [
    [0, 2, 2, 2, 2, 1],
    [2, 0, 2, 2, 2, 3],
    [2, 2, 0, 2, 3, 3],
    [2, 2, 2, 0, 3, 1],
    [2, 2, 3, 3, 0, 3],
    [1, 3, 3, 1, 3, 0],
]

_K44_EDGE_8X8 = [
    [0, 1, 1, 1, 0, 0, 0, 0],
    [1, 0, 1, 2, 0, 0, 0, 0],
    [1, 1, 0, 3, 0, 0, 0, 0],
    [1, 2, 3, 0, 3, 0, 0, 0],
    [0, 0, 0, 3, 0, 2, 2, 2],
    [0, 0, 0, 0, 2, 0, 2, 3],
    [0, 0, 0, 0, 2, 2, 0, 1],
    [0, 0, 0, 0, 2, 3, 1, 0],
]

_M666_BLOCK1 = [
    [0, 1, 1, 1, 1, 1],
    [1, 0, 3, 1, 1, 2],
    [1, 3, 0, 1, 2, 2],
    [1, 1, 1, 0, 2, 2],
    [1, 1, 2, 2, 0, 2],
    [1, 2, 2, 2, 2, 0],
]

_M666_BLOCK2 = [
    [0, 2, 2, 2, 2, 2],
    [2, 0, 1, 2, 2, 3],
    [2, 1, 0, 2, 3, 3],
    [2, 2, 2, 0, 3, 3],
    [2, 2, 3, 3, 0, 3],
    [2, 3, 3, 3, 3, 0],
]

_M666_BLOCK3 = [
    [0, 3, 3, 3, 3, 3],
    [3, 0, 2, 3, 3, 1],
    [3, 2, 0, 3, 1, 1],
    [3, 3, 3, 0, 1, 1],
    [3, 3, 1, 1, 0, 1],
    [3, 1, 1, 1, 1, 0],
]

# T5_TILDE with entries (2,4) and (4,2) lowered from 3 to 1.
_T5_TILDE_MOD_456 = [
    [0, 2, 2, 2, 1],
    [2, 0, 3, 1, 3],
    [2, 3, 0, 2, 3],
    [2, 1, 2, 0, 1],
    [1, 3, 3, 1, 0],
]

# T5_TILDE extended by a sixth row/column (1, 1, 1, 2, 1).
_T6_MOD_567 = [
    [0, 2, 2, 2, 1, 1],
    [2, 0, 3, 3, 3, 1],
    [2, 3, 0, 2, 3, 1],
    [2, 3, 2, 0, 1, 2],
    [1, 3, 3, 1, 0, 1],
    [1, 1, 1, 2, 1, 0],
]

FIXED_MATRICES = {
    "T": _T,
    "T5": _T5,
    "T5_TILDE": _T5_TILDE,
    "T6": _T6,
    "T6_TILDE": _T6_TILDE,
    "P6": _P6,
    "K44_EDGE_8x8": _K44_EDGE_8X8,
    "M666_BLOCK1": _M666_BLOCK1,
    "M666_BLOCK2": _M666_BLOCK2,
    "M666_BLOCK3": _M666_BLOCK3,
    "T5_TILDE_MOD_456": _T5_TILDE_MOD_456,
    "T6_MOD_567": _T6_MOD_567,
}


def fixed_matrix(name: str) -> np.ndarray:
    """Golden copy of one of the fixed small matrices."""
    try:
        data = FIXED_MATRICES[name]
    except KeyError:
        raise ValueError(f"unknown fixed matrix {name!r}") from None
    return np.array(data, dtype=np.int64)


def fixed_matrix_names() -> list[str]:
    return list(FIXED_MATRICES)

