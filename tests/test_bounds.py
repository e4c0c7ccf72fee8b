import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldpc.bounds import (
    even_coef_convergence,
    even_coef_exact,
    even_coef_limit,
    finite_length_log_terms,
    finite_length_prob_bound,
    min_distance_prob_bound,
    prob_min_distance_one,
    product_pow_coef,
)
from gldpc.ensemble import (
    CnMixture,
    UnstructuredEnsemble,
    VnRegularEnsemble,
)
from gldpc.polywef import poly_mul, poly_pow


def coef(p, i):
    """Coefficient of x**i; zero beyond the degree."""
    return p[i] if i < len(p) else 0


def central_binomial_series(x: float, rtol: float = 1e-14,
                            max_terms: int = 100_000) -> float:
    """sum_{j>=1} binom(2j, j) x**j by adaptive truncation (|x| < 1/4).

    Series oracle for the closed-form union bound 1/sqrt(1 - 4x) - 1.
    """
    if not abs(x) < 0.25:
        raise ValueError(f"series diverges for |x| >= 1/4, got {x}")
    total = 0.0
    term = 1.0
    for j in range(1, max_terms + 1):
        term *= x * (4 - 2 / j)
        total += term
        if abs(term) <= rtol * max(abs(total), 1e-300):
            break
    return total


class TestProductPowCoef:
    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.integers(0, 6), min_size=3, max_size=3),
        st.integers(0, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_untruncated_product(self, polys, counts, degree):
        counts = counts[: len(polys)]
        full = (1,)
        for p, c in zip(polys, counts):
            full = poly_mul(full, poly_pow(tuple(p), c))
        assert product_pow_coef(polys, counts, degree) == coef(full, degree)

    def test_empty_product(self, spc3_mixture):
        assert even_coef_exact([0], spc3_mixture, 1) == 0

    def test_spc3_family(self, spc3_mixture):
        for m in (1, 7, 1000):
            assert even_coef_exact([m], spc3_mixture, 1) == 3 * m
            assert even_coef_exact([m], spc3_mixture, 2) == 9 * m * (m - 1) // 2

    def test_rejects_bad_j(self, spc3_mixture):
        with pytest.raises(ValueError):
            even_coef_exact([5], spc3_mixture, 0)


class TestCoefLimit:
    def test_first_moment(self):
        assert even_coef_limit(600, 2.0, 1) == 600.0

    def test_past_float_power(self):
        # 6000**100 overflows a float; the limit itself does not
        exact = Fraction(6000) ** 100 / math.factorial(100)
        assert even_coef_limit(6000, 2.0, 100) == pytest.approx(float(exact), rel=1e-12)

    def test_beyond_float_range(self):
        with pytest.raises(ValueError, match="j=100.* 60000 edges"):
            even_coef_limit(60000, 2.0, 100)
        # the product edges * density leaves the float range; half of it does not
        assert even_coef_limit(12 * 10**307, 2.0, 1) == float(12 * 10**307)
        for edges in (12 * 10**307, 10**400):
            with pytest.raises(ValueError, match="j=1.* edges exceeds the float range"):
                even_coef_limit(edges, 4.0, 1)

    def test_zero_density(self):
        for j in (1, 2, 3):
            assert even_coef_limit(100, 0.0, j) == 0.0
        assert even_coef_limit(10**400, 0.0, 2) == 0.0  # edges past the float range

    def test_pairs_with_exact(self):
        m = 1000
        assert even_coef_limit(3 * m, 2.0, 2) == pytest.approx(9 * m * m / 2)


class TestConvergence:
    def test_spc3_first_order_exact(self, alldeg2_spc3):
        rows = even_coef_convergence(alldeg2_spc3, 1, [3, 30, 300, 3000])
        assert all(r.ratio == 1.0 for r in rows)

    def test_spc3_second_order_closed_form(self, alldeg2_spc3):
        rows = even_coef_convergence(alldeg2_spc3, 2, [30, 300, 3000])
        for r in rows:
            m = r.cn_total
            assert r.ratio == (m - 1) / m

    def test_ratio_of_coefficient_beyond_float_range(self, spc3, ham15):
        spec = UnstructuredEnsemble.of(
            CnMixture.of([spc3, ham15], [Fraction(1, 100), Fraction(99, 100)]), {2: 1})
        (row,) = even_coef_convergence(spec, 100, [300000])
        assert row.exact_coef > 10**308
        assert row.ratio == pytest.approx(
            math.exp(math.log(row.exact_coef) - math.log(row.limit_value)), rel=1e-9)

    def test_ratio_nan_when_density_zero(self, ham7):
        spec = UnstructuredEnsemble.of(CnMixture.of([ham7], [1]), {2: 1})
        rows = even_coef_convergence(spec, 2, [7])
        assert math.isnan(rows[0].ratio)

    @pytest.mark.parametrize("g1,g2", [(Fraction(1, 2), Fraction(1, 2)),
                                       (Fraction(3, 10), Fraction(7, 10))])
    def test_two_type_worked_example(self, g1, g2):
        # two abstract enumerators with quadratic terms 3 and 2: the limit
        # keeps only those, (m (3 g1 + 2 g2))^j / j!
        a = (1, 0, 3, 1)
        b = (1, 0, 2, 0, 1)
        for m in (100, 1000, 10000):
            c1, c2 = int(g1 * m), int(g2 * m)
            half = 3 * c1 + 2 * c2
            for j in (1, 2, 3):
                exact = product_pow_coef([a, b], [c1, c2], 2 * j)
                limit = half ** j / math.factorial(j)
                assert abs(exact / limit - 1.0) <= 5.0 / m

    def test_mixed_spec_panel_within_tolerance(self, spc3, ham7):
        mix = CnMixture.of([spc3, ham7], ["1/2", "1/2"])
        spec = UnstructuredEnsemble.of(mix, {2: "1/2", 3: "1/2"})
        for j in (1, 2, 3):
            for r in even_coef_convergence(spec, j, [525, 5250, 52500]):
                assert r.cn_total >= 100
                assert abs(r.ratio - 1.0) <= 5.0 / r.cn_total

    def test_weight2_sparse_spec_still_converges(self, bound_mix_ensemble):
        # heavier cubic-term noise here (density 0.4), so only the trend
        # toward 1 is asserted, not a universal constant
        for j in (2, 3):
            rows = even_coef_convergence(bound_mix_ensemble, j, [294, 1470, 14700])
            devs = [abs(r.ratio - 1.0) for r in rows]
            assert devs[0] > devs[1] > devs[2]
            assert devs[2] < 0.01

    def test_quadratic_only_partial_sum_limit(self):
        # restricting the expansion to the quadratic terms alone gives
        # exactly sum_i binom(c1,i) binom(c2,j-i) 3^i 2^(j-i) -> half^j / j!
        g1 = g2 = Fraction(1, 2)
        j = 3
        ratios = []
        for m in (100, 1000, 10000):
            c1, c2 = int(g1 * m), int(g2 * m)
            partial = sum(
                math.comb(c1, i) * math.comb(c2, j - i) * 3 ** i * 2 ** (j - i)
                for i in range(j + 1)
            )
            half = 3 * c1 + 2 * c2
            ratios.append(partial / (half ** j / math.factorial(j)))
        assert all(abs(r - 1) < 5.0 / m for r, m in zip(ratios, (100, 1000, 10000)))
        assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)


class TestWeightOneProbability:
    def test_alldeg2_spc3(self, alldeg2_spc3):
        assert prob_min_distance_one(alldeg2_spc3) == pytest.approx(
            1 - math.exp(-1), abs=1e-15
        )

    def test_zero_without_degree_two(self, spc3_mixture):
        spec = UnstructuredEnsemble.of(spc3_mixture, {3: 1})
        assert prob_min_distance_one(spec) == 0.0

    def test_zero_without_distance_two_types(self, ham7):
        spec = UnstructuredEnsemble.of(CnMixture.of([ham7], [1]), {2: 1})
        assert prob_min_distance_one(spec) == 0.0

    @given(st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_both_factors(self, spc3, ham7, a, b):
        lam_lo = {2: Fraction(a, 10), 3: Fraction(10 - a, 10)}
        lam_hi = {2: Fraction(min(a + 1, 10), 10)}
        if min(a + 1, 10) < 10:
            lam_hi[3] = Fraction(10 - min(a + 1, 10), 10)
        mix_lo = CnMixture.of([spc3, ham7], [Fraction(b, 10), Fraction(10 - b, 10)])
        mix_hi_b = min(b + 1, 10)
        if mix_hi_b == 10:
            mix_hi = CnMixture.of([spc3], [1])
        else:
            mix_hi = CnMixture.of(
                [spc3, ham7], [Fraction(mix_hi_b, 10), Fraction(10 - mix_hi_b, 10)]
            )
        base = prob_min_distance_one(UnstructuredEnsemble.of(mix_lo, lam_lo))
        more_deg2 = prob_min_distance_one(UnstructuredEnsemble.of(mix_lo, lam_hi))
        more_density = prob_min_distance_one(UnstructuredEnsemble.of(mix_hi, lam_lo))
        assert more_deg2 > base
        assert more_density > base


class TestUnionBound:
    def test_zero_product(self, spc3_mixture):
        ub = min_distance_prob_bound(
            UnstructuredEnsemble.of(spc3_mixture, {3: 1})
        )
        assert ub.value == 0.0 and not ub.vacuous

    def test_hand_value(self, bound_mix_ensemble):
        ub = min_distance_prob_bound(bound_mix_ensemble)
        assert not ub.vacuous
        assert ub.product == pytest.approx(0.04, abs=1e-15)
        assert ub.value == pytest.approx(0.020620726159657596, abs=1e-12)

    def test_vacuous_at_radius(self, alldeg2_spc3):
        ub = min_distance_prob_bound(alldeg2_spc3)
        assert ub.vacuous and ub.value is None and ub.product == 2.0

    def test_series_matches_closed_form(self, bound_mix_ensemble):
        ub = min_distance_prob_bound(bound_mix_ensemble)
        assert central_binomial_series(ub.product / 4) == pytest.approx(
            ub.value, abs=1e-10
        )

    @given(st.floats(0.0, 0.24))
    @settings(max_examples=60, deadline=None)
    def test_series_closed_form_identity(self, x):
        assert central_binomial_series(x) == pytest.approx(
            1 / math.sqrt(1 - 4 * x) - 1, abs=1e-10
        )

    def test_series_radius(self):
        with pytest.raises(ValueError):
            central_binomial_series(0.25)


class TestFiniteLengthBound:
    def test_small_when_below_root_for_large_lengths(self, gallager_3_6):
        # the weight-1 slack term dominates at small n (clamped at 1), then
        # the strictly negative growth takes over
        assert finite_length_prob_bound(gallager_3_6, 6000, 3) == 1.0
        bound = finite_length_prob_bound(gallager_3_6, 30000, 3)
        assert 0 < bound < 1

    def test_matches_extended_precision(self, gallager_3_6):
        got_terms = dict(finite_length_log_terms(gallager_3_6, 6000, 60))
        got_bound = finite_length_prob_bound(gallager_3_6, 6000, 60)
        n, d0, q, s = 6000, 60, 3, 6
        with mp.workdps(40):
            def a_val(z):
                return ((1 + z) ** s + (1 - z) ** s) / 2

            def f(z):
                zap = z * s * ((1 + z) ** (s - 1) - (1 - z) ** (s - 1)) / 2
                return zap / a_val(z) / s

            terms = {}
            for d in range(1, d0 + 1):
                a = mp.mpf(d) / n
                lo, hi = mp.mpf("1e-25"), mp.mpf("1e25")
                for _ in range(220):
                    mid = mp.sqrt(lo * hi)
                    if f(mid) < a:
                        lo = mid
                    else:
                        hi = mid
                z = mp.sqrt(lo * hi)
                h = -a * mp.log(a) - (1 - a) * mp.log(1 - a)
                g = (1 - q) * h - q * a * mp.log(z) + (q / mp.mpf(s)) * mp.log(a_val(z))
                slack = mp.log(d0 * (8 * n * a * (1 - a)) ** ((q - 1) / mp.mpf(2)))
                terms[d] = n * g + slack
            ref_top = max(terms.values())
            ref_bound = min(mp.mpf(1), mp.exp(ref_top))
        for d, t in got_terms.items():
            assert t == pytest.approx(float(terms[d]), rel=1e-9, abs=1e-12)
        assert got_bound == pytest.approx(float(ref_bound), rel=1e-9)

    def test_nonincreasing_in_block_length(self, gallager_3_6):
        # fixed relative threshold: the bound never increases with n
        alpha0 = 0.01
        scaled = [
            finite_length_prob_bound(gallager_3_6, n, int(alpha0 * n))
            for n in (1200, 2400, 4800, 9600)
        ]
        assert all(a >= b for a, b in zip(scaled, scaled[1:]))

    def test_vanishes_with_growing_length(self, gallager_3_6):
        # fixed d0: strictly decreasing once past the clamp
        seq = [
            finite_length_prob_bound(gallager_3_6, n, 3)
            for n in (30000, 300000, 3000000)
        ]
        assert seq[0] > seq[1] > seq[2]

    def test_weights_beyond_tilt_domain_are_skipped(self, spc3_mixture):
        # SPC(3) tilt domain tops out at 2/3: weights above it drop out
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=3)
        terms = finite_length_log_terms(spec, 30, 29)
        assert max(d for d, _ in terms) == 19  # 20/30 hits the limit

    def test_clamped_to_one(self, spc3_mixture):
        # degree-2 dense-pair ensemble: growth is positive, bound saturates
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        assert finite_length_prob_bound(spec, 30, 15) == 1.0

    def test_validates_d0(self, gallager_3_6):
        with pytest.raises(ValueError):
            finite_length_prob_bound(gallager_3_6, 600, 600)
        with pytest.raises(ValueError):
            finite_length_prob_bound(gallager_3_6, 600, 0)
