"""GF(2) linear algebra on int bitsets (bit i of a row = column i).

One tagged XOR basis serves both eliminations: `row_reduce` (and so `rank`) reads its
stored vectors as echelon rows, and `nullspace_basis` the tags of the columns that
reduce to 0. `span_weight_histogram` walks a whole span; `min_weight` finds its least
nonzero weight from light messages over disjoint information sets, each split off by
one Gauss–Jordan pass, one weight at a time over every set: once weight w is done,
an unseen codeword weighs at least m(w + 1) on m sets. Both, and `transpose`, pack
rows by one `_words` into little-endian uint64 words, so the popcount of a packed
codeword is its weight.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Bytes for each of the span walk's two buffers: the low-row table (8W a word)
#: and one chunk (9W + 10 a word: words, popcounts, weights, bincount's copy).
#: `min_weight` sizes its sets, kept subset tables and chunks from it too.
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


def _xor_basis(vectors: Iterable[int]) -> Tuple[Dict[int, Tuple[int, int]], List[int]]:
    """(stored, zeros): an XOR basis of the vectors keyed by bit length, and the
    tags of the vectors that reduce to 0.

    Each vector is XORed with the stored vector of its bit length until that
    length is new, and is then stored there; its tag (bit i for input i) XORs
    along, so a stored vector's tag is the inputs it sums. A vector that
    reduces to 0 is in the span of the earlier ones: its tag is a dependency,
    and holds exactly one such vector, its own. Each input is read once and
    not kept, so an iterator that drops its items frees them as it goes.
    """
    stored: Dict[int, Tuple[int, int]] = {}
    zeros = []
    for i, v in enumerate(vectors):
        tag = 1 << i
        while v:
            top = v.bit_length()
            if top not in stored:
                stored[top] = v, tag
                break
            w, t = stored[top]
            v ^= w
            tag ^= t
        else:
            zeros.append(tag)
    return stored, zeros


def row_reduce(rows: Iterable[int], n_cols: int) -> Tuple[List[int], List[int]]:
    """Echelon form by XOR basis: (pivot columns ascending, one row per pivot).

    The row for pivot p is the stored vector of bit length p + 1 (see
    `_xor_basis`): its top bit is p, and it may keep lower pivot bits.
    """
    stored = _xor_basis(rows)[0]
    tops = sorted(stored)
    return [top - 1 for top in tops], [stored[top][0] for top in tops]


def rank(rows: Iterable[int], n_cols: int) -> int:
    return len(row_reduce(rows, n_cols)[0])


def nullspace_basis(columns: Iterable[int], max_dim: int) -> List[int]:
    """Basis of the null space {x : the columns c with bit c of x set XOR to 0},
    from the columns as ints over the rows; refuses a dimension n - rank > max_dim.

    The basis is the tags of the columns that reduce to 0 in `_xor_basis`, so
    each vector's top bit is its own such column, which no other vector has.
    """
    basis = _xor_basis(columns)[1]
    if len(basis) > max_dim:
        raise DimensionLimitError(len(basis), max_dim, "codeword enumeration")
    return basis


def _words(rows: Sequence[int], n_words: int) -> np.ndarray:
    """The rows as little-endian uint64 words, (len(rows), n_words); word j of a row
    holds its columns 64j to 64j + 63."""
    return np.frombuffer(b"".join(r.to_bytes(8 * n_words, "little") for r in rows),
                         dtype="<u8").reshape(len(rows), n_words)


def _low_rows(n_words: int) -> int:
    """Rows of the span walk's low table: the most whose 2^lo words fit a buffer."""
    return max(0, (_WALK_BUFFER_BYTES // (9 * n_words + 10)).bit_length() - 1)


def span_weight_histogram(basis: Sequence[int], n_cols: int) -> List[int]:
    """Hamming-weight histogram of the span of `basis`: a numpy table of the XOR
    combinations of the low rows (uint64 words, built by doubling) is XORed with
    each combination of the high rows, in Gray-code order, and popcounts binned."""
    k, n_words = len(basis), max(1, -(-n_cols // 64))
    rows = _words(basis, n_words).T
    lo = min(k, _low_rows(n_words))
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


def transpose(rows: Sequence[int], n_cols: int) -> List[int]:
    """Column c of `rows` as an int over the rows (bit i = row i), for each c < n_cols."""
    size, n_words = -(-len(rows) // 8), max(1, -(-n_cols // 64))
    bits = np.unpackbits(_words(rows, n_words).view(np.uint8), axis=1, count=n_cols,
                         bitorder="little")
    cols = np.packbits(bits, axis=0, bitorder="little").T.tobytes()
    return [int.from_bytes(cols[c * size:(c + 1) * size], "little") for c in range(n_cols)]


def _information_sets(basis: Sequence[int], n_cols: int,
                      max_sets: int) -> Tuple[List[List[int]], List[List[int]]]:
    """(sets, generators): up to max_sets disjoint information sets of the span,
    split off greedily, and the basis made systematic on each (row i is the only
    row with a one in column sets[j][i]).

    Each set is one Gauss–Jordan pass, row by row: a row's pivot is its highest
    one in a column no earlier set took, and that column's ones in the other
    rows are cleared. A row with no such one is, on those columns, a sum of the
    rows before it: the first pass drops it, so its size is the rank, and a
    later pass ends the splitting. The first pass so takes each row's top bit, and a
    `nullspace_basis` output, whose top bits are each in one vector only, keeps
    them as its first set with its rows unchanged.
    """
    rows, sets, gens = list(basis), [], []
    left = functools.reduce(operator.or_, rows, 0)
    while left and len(sets) < max_sets:
        pivots = {}
        for p in range(len(rows)):
            c = (rows[p] & left).bit_length() - 1
            if c >= 0:
                bit, pivot = 1 << c, rows[p]
                rows = [x ^ pivot if x & bit else x for x in rows]
                pivots[c], rows[p] = p, pivot
        if sets and len(pivots) < len(rows):
            break
        rows = [rows[p] for p in pivots.values()]
        sets.append(list(pivots))
        gens.append(rows)
        left &= ~sum(1 << c for c in pivots)
    return sets, gens


class _Subsets:
    """The XORs of every w rows of each generator in `rows` (n_words, sets, k),
    in colexicographic order, so that the w-subsets of the first r rows are the
    first C(r, w) of them and those with largest row l are row l XORed with the
    first C(l, w - 1) (w - 1)-subsets. Levels are kept while all of them together
    hold at most `keep` subsets a set; chunks hold at most `cap`.
    """

    def __init__(self, rows: np.ndarray, cap: int, keep: int):
        self.rows, self.cap, self.keep = rows, cap, keep
        self.levels = [np.zeros(rows.shape[:2] + (1,), np.uint64), rows]

    def words(self, w: int, r: Optional[int] = None):
        """Chunks (n_words, sets, at most cap) of the w-subsets of the first r rows
        (of all rows by default)."""
        k = self.rows.shape[2]
        total = math.comb(k if r is None else r, w)
        kept = sum(level.shape[2] for level in self.levels)
        if w == len(self.levels) and kept + math.comb(k, w) <= self.keep:
            counts = [math.comb(last, w - 1) for last in range(k)]
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            self.levels.append(self.levels[-1][..., np.arange(starts.size) - starts]
                               ^ self.rows[..., np.repeat(np.arange(k), counts)])
        if w < len(self.levels):
            for i in range(0, total, self.cap):
                yield self.levels[w][..., i:min(i + self.cap, total)]
            return
        for last in range(w - 1, k if r is None else r):
            for chunk in self.words(w - 1, last):
                yield chunk ^ self.rows[..., last, None]


#: Walk words that one word enumerated by `min_weight` costs in time: 4 to 5.5
#: ns a uint64 word against the walk's 2 to 2.7 ns, on random bases with n from
#: 300 to 4000 that the search runs to its hand-over (2-vCPU x86 VM).
_SEARCH_WORD_COST = 2


def min_weight(basis: Sequence[int], n_cols: int,
               at_most: Optional[int] = None) -> Union[int, float]:
    """Least nonzero Hamming weight in the span of `basis` (math.inf if none), by
    the Brouwer–Zimmermann method (Zimmermann 1996; Grassl 2006).

    With at_most, only whether that weight is <= at_most is decided: the result
    is <= at_most exactly when some nonzero word weighs at_most or less (it is
    then such a word's weight, not always the least), and is otherwise a lower
    bound on the least weight. The search returns at the first word that light,
    or once the bound below passes at_most, so at most at_most + 1 sets are
    split: m sets alone prove a least weight of at least m.

    With m disjoint information sets, every message of weight w is sent through
    each set's systematic generator, for w = 1, 2, ..., all m sets in one batch.
    The generators' rows are whole codewords in uint64 words, so a popcount is
    a codeword's weight. Once weight w is done for every set, a codeword not yet
    seen has more than w ones on each set and so weighs at least m(w + 1): a
    least weight found of at most that is the answer. A message is split into
    its halves over the low and high rows, whose subset tables are XORed
    pairwise into one reused buffer. A word enumerated costs about
    _SEARCH_WORD_COST walk words, so when the next weight would bring the
    search's cost past 2^k walk words, `span_weight_histogram` finishes instead.
    Buffers stay within a few times _WALK_BUFFER_BYTES.
    """
    # a set's rows take about r n / 8 bytes, packed or as ints, so the sets take
    # at most an eighth of a buffer; with more sets than 2^r over r times the
    # word cost, weight 1 alone would cost more than the walk
    r = max(1, len(basis))
    max_sets = max(1, min(_WALK_BUFFER_BYTES // (r * max(1, n_cols)),
                          (1 << r) // (r * _SEARCH_WORD_COST),
                          math.inf if at_most is None else at_most + 1))
    sets, gens = _information_sets(basis, n_cols, max_sets)
    if not sets:
        return math.inf
    m, k, n_words = len(sets), len(sets[0]), max(1, -(-n_cols // 64))
    stack = _words([row for g in gens for row in g], n_words).reshape(m, k, n_words)
    stack, best, words = stack.transpose(2, 0, 1).copy(), math.inf, 0
    # a word of weight <= enough, or a lower bound above beyond, settles the query
    enough, beyond = (0, math.inf) if at_most is None else (at_most, at_most)
    size = max(_WALK_BUFFER_BYTES // 8, m * n_words)
    cap = size // (m * n_words)
    xors, counts = np.empty(size, np.uint64), np.empty(size, np.uint8)
    weight_type = np.min_scalar_type(64 * n_words)
    half = k // 2
    low, high = (_Subsets(part, cap, cap // 2) for part in np.split(stack, [half], axis=2))
    for w in range(1, k + 1):
        if best <= m * w or beyond < m * w:
            return min(best, m * w)
        words += m * math.comb(k, w)
        if words * _SEARCH_WORD_COST > 1 << k:
            hist = span_weight_histogram(gens[0], n_cols)
            return next((d for d in range(1, len(hist)) if hist[d]), math.inf)
        for a in range(max(0, w - (k - half)), min(w, half) + 1):
            # the larger table goes last, as numpy's inner loop
            pair = [(low, a), (high, w - a)]
            if math.comb(half, a) > math.comb(k - half, w - a):
                pair.reverse()
            (outer, i), (inner, i2) = pair
            for x in outer.words(i):
                for y in inner.words(i2):
                    step = max(1, size // y.size)
                    for s in range(0, x.shape[2], step):
                        xs = x[:, :, s:s + step, None]
                        shape = xs.shape[:3] + y.shape[2:]
                        both = np.bitwise_xor(xs, y[:, :, None, :],
                                              out=xors[:math.prod(shape)].reshape(shape))
                        ones = np.bitwise_count(both, out=counts[:both.size].reshape(shape))
                        best = min(best, int(ones.sum(0, dtype=weight_type).min()))
                        if best <= enough:
                            return best
    return best


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
