"""Exact integer polynomials and weight enumerating functions (WEFs).

Polynomials are tuples of arbitrary-precision integer coefficients indexed
by exponent. A WEF counts the codewords of a binary linear code by Hamming
weight; coefficients are kept exact, and the growth-rate search evaluates
them in the log domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from . import gf2
from .gf2 import DimensionLimitError

IntPoly = Tuple[int, ...]

#: Largest code/dual dimension wef_from_parity_matrix will enumerate.
ENUMERATION_LIMIT = 30


def poly_normalize(coeffs: Sequence[int]) -> IntPoly:
    """Drop trailing zeros; the zero polynomial becomes the empty tuple."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def poly_mul(a: Sequence[int], b: Sequence[int], trunc: Optional[int] = None) -> IntPoly:
    """Exact coefficient convolution, optionally truncated to degree <= trunc."""
    if not a or not b:
        return ()
    deg = len(a) + len(b) - 2
    if trunc is not None:
        deg = min(deg, trunc)
    out = [0] * (deg + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > deg:
            continue
        top = deg - i
        for j, bj in enumerate(b):
            if j > top:
                break
            if bj:
                out[i + j] += ai * bj
    return poly_normalize(out)


def poly_pow(a: Sequence[int], n: int, trunc: Optional[int] = None) -> IntPoly:
    """n-th power by binary exponentiation; a**0 == (1,)."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result: IntPoly = (1,)
    base = poly_normalize(a) if trunc is None else poly_normalize(a[: trunc + 1])
    while n:
        if n & 1:
            result = poly_mul(result, base, trunc)
        n >>= 1
        if n:
            base = poly_mul(base, base, trunc)
    return result


@dataclass(frozen=True)
class Wef:
    """Weight enumerating function of a binary linear code.

    coeffs[u] is the exact number of weight-u codewords; the length, the
    dimension and the minimum distance are read from them.
    """

    coeffs: IntPoly

    def __post_init__(self):
        c = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if not c or c[0] != 1:
            raise ValueError("WEF must have exactly one weight-0 codeword")
        if any(a < 0 for a in c):
            raise ValueError("WEF coefficients must be nonnegative")
        total = sum(c)
        if total & (total - 1):
            raise ValueError(f"WEF coefficients sum to {total}, not a power of two")

    @functools.cached_property
    def length(self) -> int:
        return len(self.coeffs) - 1

    @functools.cached_property
    def dim(self) -> int:
        return sum(self.coeffs).bit_length() - 1

    @functools.cached_property
    def min_dist(self) -> Optional[int]:
        """Smallest nonzero codeword weight, or None for the zero-dimensional code."""
        return next((u for u in range(1, len(self.coeffs)) if self.coeffs[u]), None)

    @property
    def degree(self) -> int:
        """Largest weight with a nonzero coefficient."""
        for u in range(self.length, -1, -1):
            if self.coeffs[u]:
                return u
        return 0


def wef_spc(s: int) -> Wef:
    """WEF of the (s, s-1) single parity check code: even-weight words."""
    if s < 2:
        raise ValueError(f"invalid SPC length {s}: need s >= 2")
    coeffs, binom = [], 1  # C(s, u), carried as C(s, u+1) = C(s, u) (s-u) / (u+1)
    for u in range(s + 1):
        coeffs.append(0 if u % 2 else binom)
        binom = binom * (s - u) // (u + 1)
    return Wef(coeffs)


def wef_hamming(s: int) -> Wef:
    """WEF of the length-s Hamming code, s = 2^m - 1.

    Exact three-term recurrence (u+1) A_{u+1} = C(s,u) - A_u - (s-u+1) A_{u-1}
    from A_0 = 1, A_1 = 0 (MacWilliams & Sloane, ch. 1); every division
    must be exact.
    """
    m = (s + 1).bit_length() - 1
    if s < 3 or (1 << m) != s + 1:
        raise ValueError(f"invalid Hamming length {s}: s + 1 must be a power of two")
    coeffs, binom = [1, 0], 1  # C(s, u), carried as C(s, u) = C(s, u-1) (s-u+1) / u
    for u in range(1, s):
        binom = binom * (s - u + 1) // u
        rhs = binom - coeffs[u] - (s - u + 1) * coeffs[u - 1]
        q, rem = divmod(rhs, u + 1)
        if rem:
            raise ArithmeticError(f"inexact division at weight {u + 1} in Hamming recurrence")
        coeffs.append(q)
    return Wef(coeffs)


def wef_from_parity_matrix(rows: Sequence[int], n_cols: int) -> Wef:
    """Exact WEF of the null space of a GF(2) parity-check matrix.

    Enumerates whichever of the code and its dual has smaller dimension
    and applies the MacWilliams transform if the dual was enumerated.
    """
    pivots, echelon = gf2.row_reduce(rows, n_cols)
    r = len(pivots)
    k = n_cols - r
    if min(k, r) > ENUMERATION_LIMIT:
        raise DimensionLimitError(min(k, r), ENUMERATION_LIMIT, "null-space enumeration")
    if k <= r:
        basis = gf2.nullspace_basis(gf2.transpose(echelon, n_cols), k)
        return Wef(gf2.span_weight_histogram(basis, n_cols))
    dual = Wef(gf2.span_weight_histogram(echelon, n_cols))
    return macwilliams(dual)


def macwilliams(w: Wef) -> Wef:
    """WEF of the dual code via the MacWilliams transform B_j = 2^-k sum_u A_u K_j(u).

    The Krawtchouk values K_j(u) = [z^j] (1-z)^u (1+z)^(s-u) follow the recurrence
    (j+1) K_{j+1} = (s-2u) K_j - (s-j+1) K_{j-1}, K_{-1} = 0, K_0 = 1 (MacWilliams &
    Sloane, ch. 5); every division is exact.
    """
    s = w.length
    acc = [0] * (s + 1)
    for u, a in enumerate(w.coeffs):
        if a == 0:
            continue
        prev, cur = 0, a  # a*K_{j-1}, a*K_j
        for j in range(s + 1):
            acc[j] += cur
            prev, cur = cur, ((s - 2 * u) * cur - (s - j + 1) * prev) // (j + 1)
    bad = next((u for u, v in enumerate(acc) if v % (1 << w.dim)), None)
    if bad is not None:
        raise ArithmeticError(f"inconsistent input WEF: inexact division at weight {bad}")
    return Wef([v >> w.dim for v in acc])

