import glob
import itertools
import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldpc import gf2, growth
from gldpc.ensemble import CheckNodeType, CnMixture, VnRegularEnsemble
from gldpc.growth import (
    _EXP_ZERO,
    _ROOT_TOL,
    _SCAN_POINTS,
    VERDICT_EXISTS,
    VERDICT_NOT_EXISTS,
    VERDICT_NO_SIGN_CHANGE,
    _bracketed_newton,
    _critical_ratios,
    _growth_curve,
    _log_tilt_for,
    _scan_ends,
    _tilt_curve,
    _type_curve,
    _weights,
    edge_weight_limit,
    find_critical_ratio,
    growth_rate,
    gv_relative_distance,
    two_type_sweep,
)
from gldpc.specfile import load_spec_file

# Smallest growth-rate roots from an extended-precision scan (1e-6 grid
# bracketing plus bisection at 40 digits), frozen here.
ORACLE_ROOTS = {
    "q3_spc6": 0.0227333940612,
    "q2_ham15": 0.0261376922488,
    "q2_ham7": 0.186499814752,
    "q3_spc6_ham15": 0.107418624831,
}


def mixture_of(*pairs):
    types, rho = zip(*pairs)
    return CnMixture.of(list(types), list(rho))


def node_mixture(type_a, type_b, gamma1):
    """The mixture with node fractions (gamma1, 1 - gamma1) of the two types."""
    rho1 = Fraction(gamma1) * type_a.s / (gamma1 * type_a.s + (1 - gamma1) * type_b.s)
    return mixture_of(*((t, r) for t, r in ((type_a, rho1), (type_b, 1 - rho1)) if r))


def edge_weight(m, t):
    """The tilted mean weight per edge alpha of m at the log-tilt t."""
    return _tilt_curve(_weights(m), np.array([t]))[1][0]


class TestTiltedWeight:
    def test_hand_value_at_one(self, spc3_mixture):
        assert edge_weight(spc3_mixture, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_vanishes_at_zero(self, spc3_mixture):
        assert edge_weight(spc3_mixture, math.log(1e-12)) == pytest.approx(0.0, abs=1e-20)

    def test_saturates_at_degree_limit(self, spc3_mixture):
        assert edge_weight_limit(spc3_mixture) == pytest.approx(2 / 3)
        assert edge_weight(spc3_mixture, math.log(1e9)) == pytest.approx(2 / 3, abs=1e-12)

    @given(st.floats(-4, 4), st.floats(0.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing(self, spc3, ham7, log_z, gap):
        m = mixture_of((spc3, "1/2"), (ham7, "1/2"))
        t = log_z * math.log(10)
        assert edge_weight(m, t) < edge_weight(m, t + math.log1p(gap))

    def test_inverse_hand_value(self, spc3_mixture):
        assert _log_tilt_for(spc3_mixture, np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-10)

    @given(st.floats(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, spc3, ham15, log_z):
        m = mixture_of((spc3, "1/3"), (ham15, "2/3"))
        alpha = edge_weight(m, log_z * math.log(10))
        t = _log_tilt_for(m, np.array([alpha]))[0]
        assert edge_weight(m, t) == pytest.approx(alpha, abs=1e-12)


class TestGrowthRate:
    def test_vanishes_at_zero_weight(self, spc3, spc6, ham7, ham15):
        panel = [
            VnRegularEnsemble(mixture=CnMixture.of([spc6], [1]), q=3),
            VnRegularEnsemble(mixture=CnMixture.of([ham15], [1]), q=2),
            VnRegularEnsemble(mixture=mixture_of((spc3, "1/2"), (ham7, "1/2")), q=2),
        ]
        for spec in panel:
            assert abs(growth_rate(spec, 1e-9)) < 1e-6

    def test_classic_3_6_negative_below_root(self, gallager_3_6):
        assert growth_rate(gallager_3_6, 0.01) == pytest.approx(
            -0.003980427208, abs=1e-9
        )

    def test_degree2_dense_pairs_positive_near_zero(self, spc3_mixture):
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        for alpha in (1e-6, 1e-4, 1e-2):
            assert growth_rate(spec, alpha) > 0

    def test_domain_validation(self, gallager_3_6):
        with pytest.raises(ValueError):
            growth_rate(gallager_3_6, 1.0)

    @pytest.mark.parametrize("q,s", [(3, 6), (2, 3)])
    def test_matches_direct_spc_formula(self, q, s):
        # independent evaluation with the closed even-weight enumerator
        # ((1+z)^s + (1-z)^s) / 2 and its derivative, plain floats
        def a_val(z):
            return ((1 + z) ** s + (1 - z) ** s) / 2

        def z_ap(z):
            return z * s * ((1 + z) ** (s - 1) - (1 - z) ** (s - 1)) / 2

        def f_direct(z):
            return (1 / s) * z_ap(z) / a_val(z)

        def g_direct(alpha):
            lo, hi = 1e-12, 1e12
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if f_direct(mid) < alpha:
                    lo = mid
                else:
                    hi = mid
            z = math.sqrt(lo * hi)
            h = -alpha * math.log(alpha) - (1 - alpha) * math.log(1 - alpha)
            return (1 - q) * h - q * alpha * math.log(z) + (q / s) * math.log(a_val(z))

        spec = VnRegularEnsemble(
            mixture=CnMixture.of([CheckNodeType.spc(s)], [1]), q=q
        )
        for alpha in (0.01, 0.1, 0.3, 0.5):
            assert growth_rate(spec, alpha) == pytest.approx(
                g_direct(alpha), abs=1e-10
            )


def plain_scan(spec, t=None):
    """t, alpha, G and the rounding floor of G at the points of the grid t
    inside spec's scan ends (default: its own _SCAN_POINTS-point grid),
    every point evaluated: the reference for _critical_ratios' block walk."""
    weights = _weights(spec.mixture)
    ends = _scan_ends(weights)
    if t is None:
        t = np.linspace(*ends, _SCAN_POINTS)
    t = t[(ends[0] <= t) & (t <= ends[1])]
    alpha, g, _, floor = _growth_curve(weights, spec.q, t)
    return t, alpha, g, floor


def plain_bracket(spec, t=None):
    """(t[i], t[j]) of plain_scan: j is the first point with G > floor and i
    the last point before j with G < -floor. None when either is missing."""
    t, _, g, floor = plain_scan(spec, t)
    up = np.flatnonzero(g > floor)
    if not up.size:
        return None
    down = np.flatnonzero(g[:up[0]] < -floor[:up[0]])
    return (float(t[down[-1]]), float(t[up[0]])) if down.size else None


class TestCriticalRatio:
    def test_gallager_3_6_root(self, gallager_3_6):
        curve = find_critical_ratio(gallager_3_6)
        assert curve.verdict == VERDICT_EXISTS and curve.root_located
        assert curve.critical_ratio == pytest.approx(
            ORACLE_ROOTS["q3_spc6"], abs=1e-5
        )

    def test_root_is_a_root(self, gallager_3_6):
        curve = find_critical_ratio(gallager_3_6)
        assert abs(growth_rate(gallager_3_6, curve.critical_ratio)) <= 1e-10
        _, alpha, g, _ = plain_scan(gallager_3_6)
        assert (g[alpha < curve.critical_ratio] < 0).all()

    def test_grid_inside_domain(self, gallager_3_6):
        limit = edge_weight_limit(gallager_3_6.mixture)
        ws = plain_scan(gallager_3_6)[1].tolist()
        assert len(ws) == _SCAN_POINTS
        assert all(0 < w < limit for w in ws)
        assert all(a < b for a, b in zip(ws, ws[1:]))

    @pytest.mark.parametrize(
        "key,types,rho,q",
        [
            ("q2_ham15", ["ham15"], [1], 2),
            ("q2_ham7", ["ham7"], [1], 2),
            ("q3_spc6_ham15", ["spc6", "ham15"], ["1/2", "1/2"], 3),
        ],
    )
    def test_matches_oracle_panel(self, key, types, rho, q, request):
        resolved = [request.getfixturevalue(t) for t in types]
        spec = VnRegularEnsemble(mixture=CnMixture.of(resolved, rho), q=q)
        curve = find_critical_ratio(spec)
        assert curve.verdict == VERDICT_EXISTS
        assert curve.critical_ratio == pytest.approx(ORACLE_ROOTS[key], abs=1e-5)

    def test_existence_condition_degree_two(self, spc3, spc6, ham7, ham15):
        dense = [
            CnMixture.of([spc3], [1]),                       # density 2
            CnMixture.of([spc6], [1]),                       # density 5
            mixture_of((spc3, "1/2"), (ham7, "1/2")),        # density exactly 1
        ]
        sparse = [
            CnMixture.of([ham7], [1]),
            CnMixture.of([ham15], [1]),
            mixture_of((spc3, "1/5"), (ham7, "4/5")),        # density 0.4
        ]
        for m in dense:
            curve = find_critical_ratio(VnRegularEnsemble(mixture=m, q=2))
            assert curve.verdict == VERDICT_NOT_EXISTS
            assert curve.critical_ratio is None
        for m in sparse:
            curve = find_critical_ratio(VnRegularEnsemble(mixture=m, q=2))
            assert curve.verdict == VERDICT_EXISTS
            assert curve.critical_ratio > 0

    def test_degree_above_two_always_exists(self, spc3, spc6, ham7, ham15):
        panel = [
            CnMixture.of([spc3], [1]),
            CnMixture.of([spc6], [1]),
            CnMixture.of([ham7], [1]),
            CnMixture.of([ham15], [1]),
            mixture_of((spc3, "1/2"), (ham7, "1/2")),
        ]
        for m in panel:
            curve = find_critical_ratio(VnRegularEnsemble(mixture=m, q=3))
            assert curve.verdict == VERDICT_EXISTS
            assert curve.critical_ratio > 0

    def test_saturated_ratio_for_negative_rate(self, ham7):
        # q=3 Hamming(7,4) has negative design rate: growth stays negative
        spec = VnRegularEnsemble(mixture=CnMixture.of([ham7], [1]), q=3)
        curve = find_critical_ratio(spec)
        assert curve.verdict == VERDICT_EXISTS and not curve.root_located
        assert curve.critical_ratio == pytest.approx(
            edge_weight_limit(spec.mixture)
        )
        assert (plain_scan(spec)[2] < 0).all()


class TestSweep:
    def test_every_point_matches_single_solve(self, spc3, ham7, ham15):
        # A4's Hamming 31/15 grid, and the SPC-3/Hamming-7 grid, whose
        # weight-2 density reaches 1 at gamma1 = 0.7 (not_exists beyond)
        ham31 = CheckNodeType.hamming(31)
        twentieths = [Fraction(i, 20) for i in range(21)]
        cases = [(ham7, ham15, [0, 1]), (ham31, ham15, twentieths),
                 (spc3, ham7, twentieths)]
        verdicts = set()
        for type_a, type_b, grid in cases:
            points = two_type_sweep(type_a, type_b, 2, grid)
            for g, point in zip(grid, points):
                alone = find_critical_ratio(
                    VnRegularEnsemble(mixture=node_mixture(type_a, type_b, g), q=2))
                assert point.verdict == alone.verdict
                verdicts.add(point.verdict)
                if alone.critical_ratio is None:
                    assert point.critical_ratio is None
                else:
                    assert point.critical_ratio == pytest.approx(
                        alone.critical_ratio, rel=1e-12)
        assert verdicts == {VERDICT_EXISTS, VERDICT_NOT_EXISTS}
        assert two_type_sweep(ham7, ham15, 2, [0])[0].rate == pytest.approx(
            7 / 15, abs=1e-15)

    def test_ill_conditioned_point_matches_mpmath(self, spc3, ham7):
        # at gamma1 = 0.699 the weight-2 density is 0.9976, and the root
        # (about 5.6e-6) is where the scan of the whole sweep and a scan of
        # the point alone give different last digits
        m = node_mixture(spc3, ham7, Fraction(699, 1000))
        root = mp_first_root(m, 2, t_lo=-12)
        (point,) = [p for p in two_type_sweep(spc3, ham7, 2,
                                              [Fraction(i, 1000) for i in range(1001)])
                    if p.gamma1 == 0.699]
        alone = find_critical_ratio(VnRegularEnsemble(mixture=m, q=2))
        assert 5e-6 < root < 6e-6
        assert abs(point.critical_ratio - root) <= _ROOT_TOL
        assert abs(alone.critical_ratio - root) <= _ROOT_TOL

    def test_rho_conversion(self, spc3, ham7):
        (point,) = two_type_sweep(spc3, ham7, 2, [Fraction(1, 2)])
        # rho_1 = gamma_1 s_1 / (gamma_1 s_1 + gamma_2 s_2) = 3/10
        assert point.rho1 == pytest.approx(0.3, abs=1e-15)

    def test_rejects_out_of_range(self, ham7, ham15):
        with pytest.raises(ValueError):
            two_type_sweep(ham7, ham15, 2, [Fraction(3, 2)])


class TestGilbertVarshamov:
    def test_half_rate(self):
        assert gv_relative_distance(0.5) == pytest.approx(
            0.11002786443836, abs=1e-9
        )

    def test_limits(self):
        assert gv_relative_distance(0.9999) < 1e-2
        assert gv_relative_distance(1e-4) > 0.49

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, rate):
        with pytest.raises(ValueError):
            gv_relative_distance(rate)

    @pytest.mark.parametrize("rate", [Fraction(21, 31), Fraction(1, 2), Fraction(7, 15),
                                      Fraction(1, 10 ** 4), Fraction(9999, 10 ** 4)])
    def test_matches_mpmath(self, rate):
        with mp.workdps(40):
            lo, hi = mp.mpf(0), mp.mpf(1) / 2
            target = mp.mpf(rate.numerator) / rate.denominator
            for _ in range(140):
                mid = (lo + hi) / 2
                if 1 + mid * mp.log(mid, 2) + (1 - mid) * mp.log(1 - mid, 2) > target:
                    lo = mid
                else:
                    hi = mid
        assert gv_relative_distance(float(rate)) == pytest.approx(float(lo), rel=1e-13)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_solves_entropy_equation(self, rate):
        d = gv_relative_distance(rate)
        h2 = -d * math.log2(d) - (1 - d) * math.log2(1 - d)
        assert 1 - h2 == pytest.approx(rate, abs=1e-9)


class TestAgainstExtendedPrecision:
    def test_growth_rate_high_precision_spot_check(self, spc6, ham15):
        # mixed ensemble, one point, recomputed at 40 digits from scratch
        m = mixture_of((spc6, "1/2"), (ham15, "1/2"))
        spec = VnRegularEnsemble(mixture=m, q=3)
        got = growth_rate(spec, 0.1)
        with mp.workdps(40):
            types = [
                (mp.mpf(1) / 2 / 6, spc6.wef.coeffs),
                (mp.mpf(1) / 2 / 15, ham15.wef.coeffs),
            ]

            def a_val(cs, z):
                return mp.fsum(c * z ** u for u, c in enumerate(cs) if c)

            def z_ap(cs, z):
                return mp.fsum(u * c * z ** u for u, c in enumerate(cs) if c and u)

            def f(z):
                return mp.fsum(w * z_ap(cs, z) / a_val(cs, z) for w, cs in types)

            lo, hi = mp.mpf("1e-25"), mp.mpf("1e25")
            for _ in range(220):
                mid = mp.sqrt(lo * hi)
                if f(mid) < mp.mpf("0.1"):
                    lo = mid
                else:
                    hi = mid
            z = mp.sqrt(lo * hi)
            a = mp.mpf("0.1")
            h = -a * mp.log(a) - (1 - a) * mp.log(1 - a)
            ref = (1 - 3) * h - 3 * a * mp.log(z) + 3 * mp.fsum(
                w * mp.log(a_val(cs, z)) for w, cs in types
            )
        assert got == pytest.approx(float(ref), abs=1e-12)


def mp_growth_curve(types, q):
    """alpha(t) and G(t) at mpmath precision; types are (rho_i/s_i, WEF coeffs)."""

    def at(t):
        z = mp.exp(t)
        alpha = tilt = mp.mpf(0)
        for w, cs in types:
            a_val = mp.fsum(c * z ** u for u, c in enumerate(cs) if c)
            z_ap = mp.fsum(u * c * z ** u for u, c in enumerate(cs) if c and u)
            alpha += w * z_ap / a_val
            tilt += w * mp.log(a_val)
        h = -alpha * mp.log(alpha) - (1 - alpha) * mp.log(1 - alpha)
        return alpha, (1 - q) * h - q * alpha * t + q * tilt

    return at


def mp_weights(m):
    return [(mp.mpf(r.numerator) / r.denominator / t.s, t.wef.coeffs)
            for t, r in zip(m.types, m.rho)]


def mp_first_root(m, q, t_lo=-6, t_hi=0):
    """Relative weight at the first sign change of G(t) on a 1/4 grid in t,
    bisected at 40 digits."""
    with mp.workdps(40):
        at = mp_growth_curve(mp_weights(m), q)
        lo = mp.mpf(t_lo)
        assert at(lo)[1] < 0
        hi = lo + mp.mpf(1) / 4
        while at(hi)[1] < 0:
            lo, hi = hi, hi + mp.mpf(1) / 4
            assert hi <= t_hi
        for _ in range(80):
            mid = (lo + hi) / 2
            if at(mid)[1] < 0:
                lo = mid
            else:
                hi = mid
        return float(at(lo)[0])


class TestTiltParametrization:
    @given(
        st.sampled_from([("spc3", "spc6"), ("spc3", "ham7"), ("spc3", "ham15"),
                         ("spc6", "ham7"), ("spc6", "ham15"), ("ham7", "ham15")]),
        st.integers(1, 9),
        st.sampled_from([2, 3]),
        st.floats(-8, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_alpha_and_growth_match_mpmath(self, request, names, tenths, q, t):
        types = [request.getfixturevalue(n) for n in names]
        m = mixture_of((types[0], Fraction(tenths, 10)), (types[1], Fraction(10 - tenths, 10)))
        alpha, g, dg, _ = _growth_curve(_weights(m), q, np.array([t]))
        with mp.workdps(40):
            at = mp_growth_curve(mp_weights(m), q)
            ref_alpha, ref_g = at(mp.mpf(t))
            ref_dg = mp.diff(lambda x: at(x)[1], mp.mpf(t))
        assert alpha[0] == pytest.approx(float(ref_alpha), rel=1e-12)
        assert g[0] == pytest.approx(float(ref_g), rel=1e-10, abs=1e-12)
        # the slope sums E[u^2] - E[u]^2, which cancels as alpha nears its limit
        assert dg[0] == pytest.approx(float(ref_dg), rel=1e-5, abs=1e-12)


class TestRootCertification:
    @pytest.mark.parametrize(
        "key,types,rho,q",
        [
            ("q3_spc6", ["spc6"], [1], 3),
            ("q2_ham15", ["ham15"], [1], 2),
            ("q2_ham7", ["ham7"], [1], 2),
            ("q3_spc6_ham15", ["spc6", "ham15"], ["1/2", "1/2"], 3),
        ],
    )
    def test_oracle_roots_to_1e9(self, key, types, rho, q, request):
        resolved = [request.getfixturevalue(t) for t in types]
        curve = find_critical_ratio(
            VnRegularEnsemble(mixture=CnMixture.of(resolved, rho), q=q)
        )
        assert curve.root_located
        assert abs(curve.critical_ratio - ORACLE_ROOTS[key]) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_weight2_density_near_one(self, ham7, k):
        # with rho_spc2 -> 1 the ensemble tends to a cycle code, whose growth
        # rate is 0 everywhere: the whole curve is O(1 - density), and at
        # k = 16 it is rounding noise near alpha = 0
        rho = 1 - Fraction(1, 10 ** k)
        m = mixture_of((CheckNodeType.spc(2), rho), (ham7, 1 - rho))
        curve = find_critical_ratio(VnRegularEnsemble(mixture=m, q=2))
        if k <= 6:
            assert curve.verdict == VERDICT_EXISTS and curve.root_located
            assert abs(curve.critical_ratio - mp_first_root(m, 2)) <= 1e-6
        else:
            assert not (curve.root_located and curve.critical_ratio < 0.1)

    def test_diagnostics(self, gallager_3_6, ham7, spc3_mixture):
        curve = find_critical_ratio(gallager_3_6)
        lo, hi = curve.bracket
        assert lo <= curve.critical_ratio <= hi
        assert 0 < hi - lo <= 2e-10
        assert abs(curve.residual) <= 1e-14
        assert curve.sign_changes >= 1
        saturated = find_critical_ratio(
            VnRegularEnsemble(mixture=CnMixture.of([ham7], [1]), q=3)
        )
        assert saturated.bracket is None and saturated.residual is None
        assert saturated.sign_changes == 0
        dense = find_critical_ratio(VnRegularEnsemble(mixture=spc3_mixture, q=2))
        assert dense.bracket is None and dense.residual is None


class TestBatchedRefinement:
    def test_each_element_freezes_where_it_would_stop_alone(self, monkeypatch, ham15):
        # the brackets and tolerances of A4's sweeps, refined in one call and
        # then one element at a time with the same f
        calls = []

        def recording(f, lo, hi, tol):
            brackets = _bracketed_newton(f, lo, hi, tol)
            calls.append((f, lo, hi, tol, brackets))
            return brackets

        monkeypatch.setattr(growth, "_bracketed_newton", recording)
        ham31, ham63 = CheckNodeType.hamming(31), CheckNodeType.hamming(63)
        for type_a, type_b in ((ham63, ham31), (ham31, ham15)):
            two_type_sweep(type_a, type_b, 2, [Fraction(i, 20) for i in range(21)])
        assert len(calls) == 2
        for f, lo, hi, tol, (batch_lo, batch_hi) in calls:
            assert len(set(tol.tolist())) == len(tol) == 21
            for k in range(len(tol)):
                alone = _bracketed_newton(lambda idx, x: f(idx + k, x),
                                          lo[k:k + 1], hi[k:k + 1], tol[k:k + 1])
                assert (alone[0][0], alone[1][0]) == (batch_lo[k], batch_hi[k])


def plain_type_curve(table, t):
    """The tilt kernel with one plain exp per cell, _SCAN_POINTS rows at a
    time: the reference for _type_curve's blocks and cutoff."""
    us, us2, logs = table
    out = np.empty((3, t.size))
    for k in range(0, t.size, _SCAN_POINTS):
        part = slice(k, k + _SCAN_POINTS)
        e = np.multiply.outer(t[part], us)
        e += logs
        top = np.maximum(e.max(axis=1), 0.0)
        e -= top[:, None]
        np.exp(e, out=e)
        rest = e.sum(axis=1) + np.expm1(-top)
        mean = np.vecdot(e, us) / (1.0 + rest)
        out[0, part] = top + np.log1p(rest)
        out[1, part] = mean
        out[2, part] = np.vecdot(e, us2) / (1.0 + rest) - mean * mean
    return out


class TestTypeCurveKernel:
    @given(
        st.integers(1, 1023),
        st.floats(0, 709),
        st.integers(0, 3),
        st.integers(-1, 1),
        st.tuples(st.floats(-700, 700), st.floats(-700, 700)),
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_exp_kernel(self, width, log_max, blocks, offset, t_range, seed):
        # a random WEF table of `width` nonzero weights up to 1023 with log
        # coefficients up to log_max, at a point count on either side of a
        # multiple of _type_curve's block size
        rng = np.random.default_rng(seed)
        us = np.sort(rng.choice(np.arange(1, 1024), width, replace=False)).astype(float)
        table = us, us * us, rng.uniform(0, log_max, width)
        rows = min(_SCAN_POINTS, gf2._WALK_BUFFER_BYTES // (8 * width))
        lo, hi = sorted(t_range)
        t = lo + (hi - lo) * rng.random(max(1, blocks * rows + offset))
        with mock.patch.object(growth, "_log_table", lambda cn: table):
            got = _type_curve(None, t)
        want = plain_type_curve(table, t)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_exp_is_positive_zero_below_cutoff(self):
        x = np.concatenate((np.linspace(_EXP_ZERO, _EXP_ZERO - 1, 100_001),
                            np.linspace(_EXP_ZERO, -1e4, 1_000_001), [-np.inf]))
        y = np.exp(x)
        assert not y.any() and not np.signbit(y).any()

    def test_wide_type_stays_within_a_block_budget(self):
        cn = CheckNodeType.hamming(1023)
        spec = VnRegularEnsemble(mixture=CnMixture.of([cn], [1]), q=2)
        growth._log_table(cn)  # the WEF is built outside the measurement
        tracemalloc.start()
        try:
            curve = find_critical_ratio(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.root_located
        assert peak < 2e6


CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "specs", "*.json"))
    + glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "specs",
                             "*.json")))


def vn_regular_corpus():
    """The VN-regular view of every spec file, and its CN types in file order."""
    views = [load_spec_file(p).vn_regular for p in CORPUS]
    views = [v for v in views if v is not None]
    types = list(dict.fromkeys(cn for v in views for cn in v.mixture.types))
    return views, types


def shared_grid(specs):
    """The t-grid _critical_ratios scans for a batch of scanned specs: from
    the lowest to the highest scan end, at least _SCAN_POINTS points across
    the narrowest span."""
    ends = np.array([_scan_ends(_weights(spec.mixture)) for spec in specs])
    first, last = ends[:, 0].min(), ends[:, 1].max()
    spans = (last - first) / (ends[:, 1] - ends[:, 0]).min()
    return np.linspace(first, last, math.ceil((_SCAN_POINTS - 1) * spans) + 1)


@pytest.fixture
def brackets(monkeypatch):
    """Every (lo, hi) in t that the root search hands to _bracketed_newton."""
    seen = []

    def recording(f, lo, hi, tol):
        seen.extend(zip(lo.tolist(), hi.tolist()))
        return _bracketed_newton(f, lo, hi, tol)

    monkeypatch.setattr(growth, "_bracketed_newton", recording)
    return seen


def assert_plain_brackets(specs, curves, got, batch=True):
    """The walk refined exactly the brackets of a plain scan of each spec:
    on the batch's shared grid, or with batch False on each spec's own."""
    assert all(curve.sign_changes == int(curve.root_located) for curve in curves)
    scanned = [(spec, curve) for spec, curve in zip(specs, curves)
               if curve.verdict != VERDICT_NOT_EXISTS]
    t = shared_grid([spec for spec, _ in scanned]) if batch and scanned else None
    want = []
    for spec, curve in scanned:
        bracket = plain_bracket(spec, t)
        assert curve.root_located == (bracket is not None)
        want += [bracket] if bracket else []
    assert got == want


class TestRootOnlyScan:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_corpus_roots_match_full_scan(self, brackets, q):
        views, _ = vn_regular_corpus()
        specs = [VnRegularEnsemble(mixture=view.mixture, q=q) for view in views]
        curves = [find_critical_ratio(spec) for spec in specs]
        assert_plain_brackets(specs, curves, brackets, batch=False)

    @pytest.mark.parametrize("copies", [3, 21])
    def test_batch_of_copies_matches_alone(self, copies):
        # copies share the one-spec grid but score it _SCAN_POINTS // copies
        # rows at a time: 733 (the last slice ends one row short of the span's
        # end) or 104
        views, _ = vn_regular_corpus()
        for view in views:
            spec = VnRegularEnsemble(mixture=view.mixture, q=3)
            alone = find_critical_ratio(spec)
            assert _critical_ratios([spec] * copies) == [alone] * copies

    def test_verdict_paths_match_full_scan(self, brackets, ham7):
        # located roots, a saturated ratio, and near-cycle codes whose growth
        # rate is rounding noise (no_sign_change_found), in one batch
        specs = [VnRegularEnsemble(mixture=CnMixture.of([ham7], [1]), q=3)]
        for k in range(2, 17):
            rho = 1 - Fraction(1, 10 ** k)
            specs.append(VnRegularEnsemble(
                mixture=mixture_of((CheckNodeType.spc(2), rho), (ham7, 1 - rho)), q=2))
        curves = _critical_ratios(specs)
        assert_plain_brackets(specs, curves, brackets)
        assert {c.verdict for c in curves} == {VERDICT_EXISTS, VERDICT_NO_SIGN_CHANGE}

    @pytest.mark.parametrize("q", [2, 3])
    def test_sweeps_match_full_scan(self, monkeypatch, brackets, q):
        _, types = vn_regular_corpus()
        search, batches = growth._critical_ratios, []

        def checked(specs):
            batches.append(len(specs))
            brackets.clear()
            curves = search(specs)
            assert_plain_brackets(specs, curves, brackets)
            return curves

        monkeypatch.setattr(growth, "_critical_ratios", checked)
        grid = [Fraction(i, 20) for i in range(21)]
        for type_a, type_b in itertools.combinations(types, 2):
            two_type_sweep(type_a, type_b, q, grid)
        assert batches == [21] * (len(types) * (len(types) - 1) // 2)

    def test_wide_root_reads_a_third_of_the_grid(self, monkeypatch):
        spec = VnRegularEnsemble(mixture=CnMixture.of([CheckNodeType.hamming(511)], [1]),
                                 q=2)
        kernel, rows = growth._type_curve, []

        def counting(cn, t):
            rows.append(t.size)
            return kernel(cn, t)

        monkeypatch.setattr(growth, "_type_curve", counting)
        # the root sits at row 380 of 2200; the count includes the refinement's
        assert find_critical_ratio(spec).root_located
        assert sum(rows) <= _SCAN_POINTS // 3
