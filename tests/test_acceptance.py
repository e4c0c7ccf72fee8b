"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import json
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from gldpc.bounds import (
    even_coef_convergence,
    min_distance_prob_bound,
    product_pow_coef,
)
from gldpc.cli import main as cli_main
from gldpc.ensemble import (
    CheckNodeType,
    CnMixture,
    UnstructuredEnsemble,
    VnRegularEnsemble,
    validate_finite_instance,
)
from gldpc.growth import (
    VERDICT_EXISTS,
    find_critical_ratio,
    two_type_sweep,
)
from gldpc.polywef import Wef, macwilliams, wef_hamming
from gldpc.sampler import (
    estimate_dmin_stats,
    global_parity_rows,
    has_weight_one_codeword,
    min_distance,
    sample_unstructured,
    sample_vn_regular,
)

from conftest import is_codeword, spec_path


@contextlib.contextmanager
def criterion(ident, desc):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {ident} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {ident} PASS  {desc}  [{time.time() - t0:.1f}s]")


# --- shared small-instance machinery for the oracle criteria ----------------

def random_small_ensemble(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return (
            VnRegularEnsemble(mixture=CnMixture.of([CheckNodeType.spc(3)], [1]), q=2),
            rng.choice([3, 6, 9, 12, 15]),
        )
    if kind == 1:
        return (
            VnRegularEnsemble(
                mixture=CnMixture.of([CheckNodeType.spc(4)], [1]),
                q=rng.choice([2, 3]),
            ),
            rng.choice([4, 8, 12, 16]),
        )
    if kind == 2:
        return (
            UnstructuredEnsemble.of(
                CnMixture.of([CheckNodeType.spc(3)], [1]), {2: "1/2", 3: "1/2"}
            ),
            rng.choice([5, 10, 15]),
        )
    return (
        UnstructuredEnsemble.of(CnMixture.of([CheckNodeType.spc(2)], [1]), {2: 1}),
        rng.choice([4, 8, 12, 16]),
    )


def sample_any(spec, n, seed):
    if isinstance(spec, VnRegularEnsemble):
        return sample_vn_regular(validate_finite_instance(spec, n), seed)
    return sample_unstructured(validate_finite_instance(spec, n), seed)


def gray_scan_min_distance(code):
    """Full 2^n scan with incremental parity tracking (independent oracle)."""
    rows = global_parity_rows(code)
    bit_rows = [[] for _ in range(code.n)]
    for ri, row in enumerate(rows):
        for b in range(code.n):
            if (row >> b) & 1:
                bit_rows[b].append(ri)
    parity = [0] * len(rows)
    unsat = 0
    current = 0
    best = None
    for i in range(1, 1 << code.n):
        b = (i & -i).bit_length() - 1
        current ^= 1 << b
        for ri in bit_rows[b]:
            parity[ri] ^= 1
            unsat += 1 if parity[ri] else -1
        if unsat == 0:
            w = current.bit_count()
            if best is None or w < best:
                best = w
    return math.inf if best is None else best


# --- criteria ---------------------------------------------------------------


def test_a1_wef_goldens():
    with criterion("A1", "exact WEF goldens and dual-transform cross checks"):
        t0 = time.time()
        h7 = wef_hamming(7)
        assert h7.coeffs == (1, 0, 0, 7, 7, 0, 0, 1)
        # exhaustive enumeration of the (7,4) code
        hist = [0] * 8
        rows = CheckNodeType.hamming(7).parity
        for v in range(1 << 7):
            if all((r & v).bit_count() % 2 == 0 for r in rows):
                hist[v.bit_count()] += 1
        assert h7.coeffs == tuple(hist)
        for s in (7, 15, 31, 63):
            coeffs = [0] * (s + 1)
            coeffs[0] = 1
            coeffs[(s + 1) // 2] = s
            simplex = Wef(coeffs)
            hs = wef_hamming(s)
            assert macwilliams(simplex) == hs
            assert sum(hs.coeffs) == 1 << hs.dim
        assert time.time() - t0 < 1.0


def test_a2_existence_verdict_panel():
    with criterion("A2", "root existence equals the weight-2 density condition"):
        spc3 = CheckNodeType.spc(3)
        spc6 = CheckNodeType.spc(6)
        ham7 = CheckNodeType.hamming(7)
        ham15 = CheckNodeType.hamming(15)
        panel = [
            CnMixture.of([spc3], [1]),
            CnMixture.of([spc6], [1]),
            CnMixture.of([ham7], [1]),
            CnMixture.of([ham15], [1]),
            CnMixture.of([spc3, ham7], ["1/2", "1/2"]),
        ]
        for mixture in panel:
            # independent exact density from the WEF weight-2 counts
            density = 2 * sum(
                (r * t.wef.coeffs[2] / t.s
                 for t, r in zip(mixture.types, mixture.rho) if t.r == 2),
                Fraction(0),
            )
            curve = find_critical_ratio(VnRegularEnsemble(mixture=mixture, q=2))
            assert (curve.verdict == VERDICT_EXISTS) == (density < 1)
            curve3 = find_critical_ratio(VnRegularEnsemble(mixture=mixture, q=3))
            assert curve3.verdict == VERDICT_EXISTS


def test_a3_classic_3_6_root_vs_dense_grid_oracle(gallager_3_6):
    with criterion("A3", "regular (3,6) root against the extended-precision grid"):
        t0 = time.time()
        got = find_critical_ratio(gallager_3_6).critical_ratio

        with mp.workdps(25):
            s, q = 6, 3

            def a_val(z):
                return ((1 + z) ** s + (1 - z) ** s) / 2

            def f(z):
                zap = z * s * ((1 + z) ** (s - 1) - (1 - z) ** (s - 1)) / 2
                return zap / a_val(z) / s

            def g(alpha):
                lo, hi = mp.mpf("1e-20"), mp.mpf("1e20")
                for _ in range(140):
                    mid = mp.sqrt(lo * hi)
                    if f(mid) < alpha:
                        lo = mid
                    else:
                        hi = mid
                z = mp.sqrt(lo * hi)
                h = -alpha * mp.log(alpha) - (1 - alpha) * mp.log(1 - alpha)
                return (1 - q) * h - q * alpha * mp.log(z) \
                    + (q / mp.mpf(s)) * mp.log(a_val(z))

            # coarse 1e-4 grid to bracket, then the 1e-6 grid inside
            bracket = None
            prev = None
            for i in range(1, 500):
                alpha = mp.mpf(i) / 10000
                val = g(alpha)
                if prev is not None and prev < 0 <= val:
                    bracket = (alpha - mp.mpf(1) / 10000, alpha)
                    break
                prev = val
            assert bracket is not None
            lo, hi = bracket
            steps = int((hi - lo) * 1_000_000)
            prev = g(lo)
            oracle = None
            for i in range(1, steps + 1):
                alpha = lo + mp.mpf(i) / 1_000_000
                val = g(alpha)
                if prev < 0 <= val:
                    oracle = float(alpha - mp.mpf(1) / 2_000_000)
                    break
                prev = val
            assert oracle is not None

        assert abs(got - oracle) <= 1e-5
        assert abs(got - 0.023) <= 1e-3
        assert time.time() - t0 < 10.0


def test_a4_two_type_hamming_sweeps():
    with criterion("A4", "two-type Hamming sweeps: exact endpoint rates, smooth curve"):
        ham63 = CheckNodeType.hamming(63)
        ham31 = CheckNodeType.hamming(31)
        ham15 = CheckNodeType.hamming(15)
        grid = [Fraction(i, 20) for i in range(21)]
        cases = [
            (ham63, ham31, Fraction(1, 1) - Fraction(12, 63), Fraction(21, 31)),
            (ham31, ham15, Fraction(21, 31), Fraction(7, 15)),
        ]
        for type_a, type_b, rate_a, rate_b in cases:
            points = two_type_sweep(type_a, type_b, 2, grid)
            assert len(points) == 21
            assert abs(points[0].rate - float(rate_b)) <= 1e-12
            assert abs(points[-1].rate - float(rate_a)) <= 1e-12
            assert all(p.verdict == VERDICT_EXISTS for p in points)
            ratios = [p.critical_ratio for p in points]
            jumps = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
            # continuity: no jump spikes past 10x the median of its grid
            # neighbors (a smooth curve passes, a discontinuity does not)
            for i, jump in enumerate(jumps):
                window = [jumps[k] for k in range(max(0, i - 2), min(len(jumps), i + 3))
                          if k != i]
                window.sort()
                local_median = window[len(window) // 2]
                assert jump <= 10 * local_median


def test_a5_coefficient_convergence(alldeg2_spc3):
    with criterion("A5", "exact product coefficients approach the Poisson limit"):
        t0 = time.time()
        rows1 = even_coef_convergence(alldeg2_spc3, 1, [3, 30, 300, 3000, 30000])
        assert all(r.ratio == 1.0 for r in rows1)
        rows2 = even_coef_convergence(alldeg2_spc3, 2, [30, 300, 3000, 30000])
        for r in rows2:
            assert r.ratio == (r.cn_total - 1) / r.cn_total
        # mixed two-type example with cubic and quartic noise terms
        a = (1, 0, 3, 1)
        b = (1, 0, 2, 0, 1)
        for g1, g2 in ((Fraction(1, 2), Fraction(1, 2)),
                       (Fraction(3, 10), Fraction(7, 10))):
            for m in (100, 1000, 100000):
                c1, c2 = int(g1 * m), int(g2 * m)
                half = 3 * c1 + 2 * c2
                for j in (1, 2, 3):
                    exact = product_pow_coef([a, b], [c1, c2], 2 * j)
                    limit = half ** j / math.factorial(j)
                    assert abs(exact / limit - 1.0) <= 5.0 / m
        assert time.time() - t0 < 30.0


def test_a6_weight_one_monte_carlo(alldeg2_spc3):
    with criterion("A6", "weight-1 codeword frequency matches the analytic limit"):
        t0 = time.time()
        stats = estimate_dmin_stats(alldeg2_spc3, 300, 2000, 1 / 300, 12345)
        lo, hi = stats.wilson_ci_eq_one
        target = 1 - math.exp(-1)
        assert lo <= target <= hi
        assert time.time() - t0 < 60.0


def test_a7_union_bound_monte_carlo(bound_mix_ensemble):
    with criterion("A7", "observed small-distance rate stays under the union bound"):
        ub = min_distance_prob_bound(bound_mix_ensemble)
        assert ub.value == pytest.approx(0.020620726159657596, abs=1e-12)
        stats = estimate_dmin_stats(bound_mix_ensemble, 147, 2000, 0.02, 2024)
        measurable = stats.trials - stats.count_k_over_limit
        frac = stats.count_le_threshold / measurable
        sigma = math.sqrt(ub.value * (1 - ub.value) / measurable)
        assert frac <= ub.value + 3 * sigma


def test_a8_oracle_equivalences():
    with criterion("A8", "exhaustive-scan, local-vs-global, and unit-distance oracles"):
        rng = random.Random(20240809)
        # exact minimum distance against a full 2^n scan, 200 instances
        for _ in range(200):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            assert min_distance(code) == gray_scan_min_distance(code)
        # local CN checks against the stacked parity matrix, 1000 pairs
        pairs = 0
        while pairs < 1000:
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            rows = global_parity_rows(code)
            for _ in range(20):
                v = rng.randrange(1 << n)
                glob = all((row & v).bit_count() % 2 == 0 for row in rows)
                assert is_codeword(code, v) == glob
                pairs += 1
        # unit-distance indicator against the exact minimum distance
        for _ in range(1000):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            assert has_weight_one_codeword(code) == (min_distance(code) == 1)


def test_a9_cli_determinism(tmp_path):
    with criterion("A9", "sampling CLI is byte-identical across runs"):
        spec = spec_path("alldeg2_spc3.json")
        blobs = []
        for i in range(4):
            out = tmp_path / f"out{i}.json"
            code = cli_main([
                "sample", spec, "--n", "300", "--trials", "100",
                "--alpha", "0.01", "--seed", "31415", "--out", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        assert len(set(blobs)) == 1
        record = json.loads(blobs[0])
        assert record["trials"] == 100 and record["n"] == 300
