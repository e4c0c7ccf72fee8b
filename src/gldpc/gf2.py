"""GF(2) linear algebra on int bitsets (bit i of a row = column i).

One XOR-basis elimination (`row_reduce`) gives echelon rows, rank and null space.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Bytes for each of the span walk's two buffers: the low-row table (8W a word)
#: and one chunk (9W + 10 a word: words, popcounts, weights, bincount's copy).
_WALK_BUFFER_BYTES = 1 << 18


class DimensionLimitError(ValueError):
    """Raised when an exhaustive enumeration would exceed its dimension cap."""

    def __init__(self, dim: int, limit: int, what: str = "enumeration"):
        self.dim = dim
        self.limit = limit
        super().__init__(
            f"{what} refused: effective dimension {dim} exceeds limit {limit}"
        )


def parse_bits(bits: str) -> int:
    """Bitmask from a string like '1101' (first character = column 0)."""
    mask = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r} in {bits!r}")
    return mask


def row_reduce(rows: Sequence[int], n_cols: int) -> Tuple[List[int], List[int]]:
    """Echelon form by XOR basis: (pivot columns ascending, one row per pivot).

    Each row is XORed with the basis row of its top set bit until that bit is
    new; the row for pivot p has top bit p and may keep lower pivot bits.
    """
    basis: Dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
    pivots = sorted(basis)
    return pivots, [basis[p] for p in pivots]


def rank(rows: Sequence[int], n_cols: int) -> int:
    return len(row_reduce(rows, n_cols)[0])


def echelon_nullspace(pivots: Sequence[int], echelon: Sequence[int],
                      n_cols: int) -> List[int]:
    """Null-space basis from `row_reduce` output: for each free column f, x_f = 1,
    other free bits 0, and x_p = parity(row_p & x) for pivots p in ascending order.
    """
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for p, row in zip(pivots, echelon):
            if (row & v).bit_count() & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def nullspace_basis(rows: Sequence[int], n_cols: int, max_dim: int) -> List[int]:
    """Basis of the right null space {v : row . v = 0 for all rows}; refuses a
    dimension n_cols - rank above max_dim before building any basis vector."""
    pivots, echelon = row_reduce(rows, n_cols)
    k = n_cols - len(pivots)
    if k > max_dim:
        raise DimensionLimitError(k, max_dim, "codeword enumeration")
    return echelon_nullspace(pivots, echelon, n_cols)


def span_weight_histogram(basis: Sequence[int], n_cols: int) -> List[int]:
    """Hamming-weight histogram of the span of `basis`: a numpy table of the XOR
    combinations of the low rows (uint64 words, built by doubling) is XORed with
    each combination of the high rows, in Gray-code order, and popcounts binned."""
    k, n_words = len(basis), max(1, -(-n_cols // 64))
    rows = np.frombuffer(b"".join(b.to_bytes(8 * n_words, "little") for b in basis),
                         dtype="<u8").reshape(k, n_words).T
    lo = min(k, max(0, (_WALK_BUFFER_BYTES // (9 * n_words + 10)).bit_length() - 1))
    low = np.zeros((n_words, 1 << lo), np.uint64)
    for i in range(lo):
        np.bitwise_xor(low[:, :1 << i], rows[:, i, None], out=low[:, 1 << i:2 << i])
    words, high = np.empty_like(low), np.zeros((n_words, 1), np.uint64)
    hist = np.zeros(n_cols + 1, np.int64)
    for i in range(1 << (k - lo)):
        if i:
            high ^= rows[:, lo + (i & -i).bit_length() - 1, None]
        np.bitwise_xor(low, high, out=words)
        weights = np.bitwise_count(words).sum(0, dtype=np.min_scalar_type(64 * n_words))
        hist += np.bincount(weights, minlength=n_cols + 1)
    return hist.tolist()


def all_ones_row(s: int) -> List[int]:
    """Parity-check matrix of the length-s single parity check code."""
    return [(1 << s) - 1]


def hamming_parity(s: int) -> List[int]:
    """Standard parity-check matrix of the length-s Hamming code.

    Column j (1-based) is the binary representation of j, so s must be
    2^m - 1 with m >= 2.
    """
    m = (s + 1).bit_length() - 1
    if s < 3 or (1 << m) != s + 1:
        raise ValueError(f"invalid Hamming length {s}: s + 1 must be a power of two")
    rows = []
    for i in range(m):
        r = 0
        for j in range(1, s + 1):
            if (j >> i) & 1:
                r |= 1 << (j - 1)
        rows.append(r)
    return rows


def matrix_from_rows(rows: Iterable[str], n_cols: int) -> List[int]:
    """Bitmask rows from bit strings of length n_cols (see `parse_bits`)."""
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, str):
            raise ValueError(f"row {i}: expected a bit string, got {type(row).__name__}")
        if len(row) != n_cols:
            raise ValueError(f"row {row!r} has length {len(row)}, expected {n_cols}")
        out.append(parse_bits(row))
    return out
