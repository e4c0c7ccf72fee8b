import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldpc.ensemble import CheckNodeType
from gldpc.gf2 import DimensionLimitError
from gldpc.polywef import (
    Wef,
    macwilliams,
    poly_mul,
    poly_pow,
    wef_from_parity_matrix,
    wef_hamming,
    wef_spc,
)


def enumerate_wef(rows, n):
    """Brute-force weight histogram of the null space (independent oracle)."""
    hist = [0] * (n + 1)
    for v in range(1 << n):
        if all(bin(r & v).count("1") % 2 == 0 for r in rows):
            hist[v.bit_count()] += 1
    return tuple(hist)


def convolution_macwilliams(w):
    """Oracle: the MacWilliams transform with each (1-z)^u (1+z)^(s-u) built
    by convolving its two binomial rows."""
    s = w.length
    acc = [0] * (s + 1)
    for u, a in enumerate(w.coeffs):
        if a == 0:
            continue
        minus = [(-1) ** j * math.comb(u, j) for j in range(u + 1)]
        plus = [math.comb(s - u, j) for j in range(s - u + 1)]
        for i, t in enumerate(poly_mul(minus, plus)):
            acc[i] += a * t
    scale = 1 << w.dim
    coeffs = []
    for u, v in enumerate(acc):
        q, rem = divmod(v, scale)
        if rem:
            raise ArithmeticError(f"inconsistent input WEF: inexact division at weight {u}")
        coeffs.append(q)
    return Wef(coeffs)


@st.composite
def parity_matrices(draw):
    """Random parity rows over 1-40 columns: at most 6 rows (the dual route of
    wef_from_parity_matrix) or at most 6 fewer rows than columns (the direct
    route), plus the zero matrix (the full space) and the identity (the zero code)."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["full", "zero", "few", "many"]))
    if kind == "full":
        return [], n
    if kind == "zero":
        return [1 << i for i in range(n)], n
    count = draw(st.integers(0, 6) if kind == "few" else st.integers(max(0, n - 6), n + 2))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    return rows, n


def simplex_wef(s):
    """1 + s * z^((s+1)/2): all nonzero simplex words share one weight."""
    coeffs = [0] * (s + 1)
    coeffs[0] = 1
    coeffs[(s + 1) // 2] = s
    return Wef(coeffs)


class TestPolyOps:
    def test_mul_binomial_square(self):
        assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)

    def test_mul_identity(self):
        p = (3, 0, 2, 7)
        assert poly_mul(p, (1,)) == p

    def test_mul_hand_convolution(self):
        assert poly_mul((1, 0, 3), (1, 0, 3)) == (1, 0, 6, 0, 9)

    def test_mul_truncation(self):
        assert poly_mul((1, 1, 1), (1, 1, 1), trunc=2) == (1, 2, 3)

    def test_pow_binomial_cube(self):
        assert poly_pow((1, 1), 3) == (1, 3, 3, 1)

    def test_pow_zero_exponent(self):
        assert poly_pow((5, 2, 1), 0) == (1,)

    def test_pow_matches_mul(self):
        assert poly_pow((1, 0, 3), 2) == poly_mul((1, 0, 3), (1, 0, 3))

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        st.integers(0, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_pow_equals_repeated_mul(self, coeffs, n):
        p = tuple(coeffs)
        expected = (1,)
        for _ in range(n):
            expected = poly_mul(expected, p)
        assert poly_pow(p, n) == expected

    @pytest.mark.parametrize("m", [1, 2, 5, 40])
    def test_coef_power_family(self, m):
        assert poly_pow((1, 0, 3), m)[2] == 3 * m


class TestWefConstructors:
    def test_spc3(self):
        w = wef_spc(3)
        assert w.coeffs == (1, 0, 3, 0)
        assert (w.length, w.dim, w.min_dist) == (3, 2, 2)

    def test_spc2(self):
        assert wef_spc(2).coeffs == (1, 0, 1)

    @pytest.mark.parametrize("s", [*range(2, 17), 64, 65, 1023])
    def test_spc_sum_and_parity_oracle(self, s):
        w = wef_spc(s)
        assert sum(w.coeffs) == 1 << (s - 1)
        assert w == wef_from_parity_matrix(CheckNodeType.spc(s).parity, s)

    def test_spc_rejects_short(self):
        with pytest.raises(ValueError):
            wef_spc(1)

    def test_hamming7_golden(self):
        assert wef_hamming(7).coeffs == (1, 0, 0, 7, 7, 0, 0, 1)

    def test_hamming7_matches_exhaustive_enumeration(self):
        hist = enumerate_wef(CheckNodeType.hamming(7).parity, 7)
        assert wef_hamming(7).coeffs == hist

    def test_hamming15_min_distance(self):
        w = wef_hamming(15)
        assert w.coeffs[1] == w.coeffs[2] == 0
        assert w.coeffs[3] > 0
        assert sum(w.coeffs) == 1 << 11

    @pytest.mark.parametrize("s", [4, 6, 1, 16])
    def test_hamming_rejects_bad_length(self, s):
        with pytest.raises(ValueError):
            wef_hamming(s)

    @pytest.mark.parametrize("s", [3, 7, 15, 127, 511, 1023])
    def test_hamming_matches_parity_enumeration(self, s):
        assert wef_hamming(s) == wef_from_parity_matrix(
            CheckNodeType.hamming(s).parity, s)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Wef((2, 0, 1))
        with pytest.raises(ValueError):
            Wef((1, 0, 2))


class TestParityMatrix:
    def test_all_ones_matches_spc(self):
        assert wef_from_parity_matrix([0b111], 3).coeffs == (1, 0, 3, 0)

    def test_identity_gives_zero_code(self):
        w = wef_from_parity_matrix([1 << i for i in range(5)], 5)
        assert w.coeffs == (1, 0, 0, 0, 0, 0)
        assert w.dim == 0 and w.min_dist is None

    def test_redundant_rows(self):
        w = wef_from_parity_matrix([0b111, 0b111], 3)
        assert w == wef_spc(3)

    def test_dimension_limit(self):
        # rank 35 over 70 columns: both the code and its dual have dim 35
        rows = [(1 << i) | (1 << (35 + i)) for i in range(35)]
        with pytest.raises(DimensionLimitError) as err:
            wef_from_parity_matrix(rows, 70)
        assert "30" in str(err.value)

    def test_zero_matrix_is_full_space(self):
        w = wef_from_parity_matrix([], 40)
        assert w.dim == 40 and w.coeffs[1] == 40

    def test_dual_enumeration_route(self):
        # dimension 57 code: only the 6-dimensional dual is enumerable
        w = wef_from_parity_matrix(CheckNodeType.hamming(63).parity, 63)
        assert w == wef_hamming(63)


class TestMacWilliams:
    @pytest.mark.parametrize("s", [7, 15, 31, 63, 127, 255, 511, 1023])
    def test_simplex_dual_is_hamming(self, s):
        assert macwilliams(simplex_wef(s)) == wef_hamming(s)

    def test_dual_of_zero_code(self):
        zero = Wef((1, 0, 0, 0))
        assert macwilliams(zero).coeffs == (1, 3, 3, 1)

    @pytest.mark.parametrize("s", [3, 7, 15, 31, 63, 127, 255])
    def test_involution(self, s):
        w = wef_hamming(s)
        assert macwilliams(macwilliams(w)) == w

    def test_inconsistent_wef_detected(self):
        fake = Wef((1, 3, 0, 0))  # no such linear code
        with pytest.raises(ArithmeticError):
            macwilliams(fake)

    @settings(max_examples=200, deadline=None)
    @given(parity_matrices())
    def test_matches_convolution(self, mat):
        rows, n = mat
        w = wef_from_parity_matrix(rows, n)
        dual = macwilliams(w)
        assert dual == convolution_macwilliams(w)
        assert macwilliams(dual) == w
