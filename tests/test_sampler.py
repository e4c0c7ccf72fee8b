import math
import random

import pytest

from gldpc import gf2
from gldpc.ensemble import (
    CheckNodeType,
    CnMixture,
    UnstructuredEnsemble,
    VnRegularEnsemble,
    validate_finite_instance,
)
from gldpc.gf2 import DimensionLimitError
from gldpc.sampler import (
    DEFAULT_K_LIMIT,
    SampledCode,
    _run_trial,
    estimate_dmin_stats,
    global_parity_rows,
    has_weight_one_codeword,
    min_distance,
    sample_unstructured,
    sample_vn_regular,
    wilson_interval,
)

from conftest import dot_parity, is_codeword, vn_degrees


def make_code(types, cns, n):
    return SampledCode(n=n, types=tuple(types), cns=tuple(cns))


def random_small_ensemble(rng):
    """A feasible little ensemble and block length, for oracle sweeps."""
    kind = rng.randrange(3)
    if kind == 0:
        spec = VnRegularEnsemble(
            mixture=CnMixture.of([CheckNodeType.spc(3)], [1]), q=2
        )
        n = rng.choice([3, 6, 9, 12, 15])
    elif kind == 1:
        spec = VnRegularEnsemble(
            mixture=CnMixture.of([CheckNodeType.spc(4)], [1]), q=rng.choice([2, 3])
        )
        n = rng.choice([4, 8, 12, 16])
    else:
        spec = UnstructuredEnsemble.of(
            CnMixture.of([CheckNodeType.spc(3)], [1]), {2: "1/2", 3: "1/2"}
        )
        n = rng.choice([5, 10, 15])
    return spec, n


def sample_any(spec, n, seed):
    if isinstance(spec, VnRegularEnsemble):
        return sample_vn_regular(validate_finite_instance(spec, n), seed)
    return sample_unstructured(validate_finite_instance(spec, n), seed)


def full_scan_min_distance(code):
    """Independent oracle: walk all 2^n vectors against the stacked checks."""
    rows = []
    for t, sockets in code.cns:
        for local_row in code.types[t].parity:
            row = 0
            for p, v in enumerate(sockets):
                if (local_row >> p) & 1:
                    row ^= 1 << v
            rows.append(row)
    best = None
    for v in range(1, 1 << code.n):
        if all((row & v).bit_count() % 2 == 0 for row in rows):
            w = v.bit_count()
            if best is None or w < best:
                best = w
    return math.inf if best is None else best


class TestVnRegularSampling:
    def test_minimal_instance_structure(self, spc3_mixture):
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        code = sample_vn_regular(validate_finite_instance(spec, 3), 42)
        assert len(code.cns) == 2
        assert sorted(code.cns[0][1]) == [0, 1, 2]
        assert sorted(code.cns[1][1]) == [0, 1, 2]
        assert min_distance(code) == 2

    def test_vn_degrees_equal_q(self, spc3, ham7):
        m = CnMixture.of([spc3, ham7], ["3/10", "7/10"])
        spec = VnRegularEnsemble(mixture=m, q=3)
        code = sample_vn_regular(validate_finite_instance(spec, 10), 5)
        assert vn_degrees(code) == (3,) * 10

    def test_layer_counts_match_plan(self, spc3, ham7):
        m = CnMixture.of([spc3, ham7], ["3/10", "7/10"])
        spec = VnRegularEnsemble(mixture=m, q=3)
        plan = validate_finite_instance(spec, 20)
        code = sample_vn_regular(plan, 5)
        for t, count in enumerate(plan.cn_counts):
            assert sum(1 for tt, _ in code.cns if tt == t) == count

    def test_determinism_and_seed_sensitivity(self, spc3_mixture):
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        plan = validate_finite_instance(spec, 9)
        a = sample_vn_regular(plan, 123)
        b = sample_vn_regular(plan, 123)
        c = sample_vn_regular(plan, 124)
        assert a == b
        assert a != c

    def test_rejects_an_unstructured_plan(self, alldeg2_spc3):
        # used to fail as TypeError on None * q
        with pytest.raises(ValueError, match="needs a VN-regular plan"):
            sample_vn_regular(validate_finite_instance(alldeg2_spc3, 3), 1)

    def test_infeasible_length_rejected(self, spc3_mixture):
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        with pytest.raises(ValueError):
            estimate_dmin_stats(spec, 4, 1, 0.5, 0)


class TestUnstructuredSampling:
    def test_minimal_instance_structure(self, alldeg2_spc3):
        code = sample_any(alldeg2_spc3, 3, 7)
        assert len(code.cns) == 2
        assert vn_degrees(code) == (2, 2, 2)

    def test_realized_degree_fractions_exact(self, bound_mix_ensemble):
        plan = validate_finite_instance(bound_mix_ensemble, 147)
        code = sample_unstructured(plan, 99)
        hist = {}
        for d in vn_degrees(code):
            hist[d] = hist.get(d, 0) + 1
        assert hist == dict(plan.vn_degree_counts)
        for t, count in enumerate(plan.cn_counts):
            assert sum(1 for tt, _ in code.cns if tt == t) == count

    def test_determinism(self, alldeg2_spc3):
        plan = validate_finite_instance(alldeg2_spc3, 30)
        assert sample_unstructured(plan, 7) == sample_unstructured(plan, 7)

    def test_rejects_a_vn_regular_plan(self, spc3_mixture):
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        with pytest.raises(ValueError, match="needs an unstructured plan"):
            sample_unstructured(validate_finite_instance(spec, 3), 1)


class TestSampledCode:
    def test_socket_count_checked(self, spc3):
        with pytest.raises(ValueError, match="expected 3"):
            make_code([spc3], [(0, (0, 1))], 3)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_socket_range_checked(self, spc3, bad):
        # socket -1 used to wrap to the last VN and socket n raised IndexError
        with pytest.raises(ValueError, match=r"CN 1 has socket .* range 0\.\.2"):
            make_code([spc3], [(0, (0, 1, 2)), (0, (0, bad, 1))], 3)


class TestCodewordChecks:
    def test_zero_vector_always_codeword(self, alldeg2_spc3):
        code = sample_any(alldeg2_spc3, 30, 1)
        assert is_codeword(code, [0] * 30)

    def test_minimal_even_weight_word(self, spc3_mixture):
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        code = sample_vn_regular(validate_finite_instance(spec, 3), 42)
        assert is_codeword(code, [1, 1, 0])
        assert not is_codeword(code, [1, 0, 0])

    def test_local_vs_global_agreement(self):
        rng = random.Random(2024)
        for _ in range(60):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            rows = global_parity_rows(code)
            # the columns are the same matrix, transposed
            assert code.columns == tuple(
                sum(((row >> v) & 1) << i for i, row in enumerate(rows)) for v in range(n))
            for _ in range(10):
                v = rng.randrange(1 << n)
                local = is_codeword(code, v)
                glob = all(dot_parity(row, v) == 0 for row in rows)
                assert local == glob

    def test_vector_length_checked(self, alldeg2_spc3):
        code = sample_any(alldeg2_spc3, 3, 7)
        with pytest.raises(ValueError):
            is_codeword(code, [0, 1])

    def test_int_vector_range_checked(self, alldeg2_spc3):
        code = sample_any(alldeg2_spc3, 3, 7)
        is_codeword(code, 0b111)  # the largest word of length 3 is accepted
        for v in (-1, 1 << 3, 1 << 40):
            with pytest.raises(ValueError):
                is_codeword(code, v)


class TestMinDistance:
    def test_single_hamming_cn(self, ham7):
        code = make_code([ham7], [(0, tuple(range(7)))], 7)
        assert min_distance(code) == 3

    def test_zero_code_is_infinite(self, spc3):
        # three SPC(3) CNs with doubled sockets pin every VN to zero
        cns = [(0, (0, 0, 1)), (0, (1, 1, 2)), (0, (2, 2, 0))]
        code = make_code([spc3], cns, 3)
        assert min_distance(code) == math.inf

    def test_dimension_refusal_reports_k(self, alldeg2_spc3):
        code = sample_any(alldeg2_spc3, 300, 5)
        with pytest.raises(DimensionLimitError) as err:
            min_distance(code)
        assert err.value.dim > DEFAULT_K_LIMIT

    def test_refused_from_the_rank(self, gallager_3_6, monkeypatch):
        # (3,6) at n=600 has k near 300: refused before any basis vector is built
        def no_back_substitution(*args):
            raise AssertionError("echelon_nullspace ran on a code over the cap")

        monkeypatch.setattr(gf2, "echelon_nullspace", no_back_substitution)
        code = sample_any(gallager_3_6, 600, 3)
        with pytest.raises(DimensionLimitError) as err:
            min_distance(code)
        assert err.value.dim == code.n - gf2.rank(code.parity_rows, code.n)
        assert err.value.limit == DEFAULT_K_LIMIT

    def test_agrees_with_full_scan(self):
        rng = random.Random(7)
        for _ in range(40):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            assert min_distance(code) == full_scan_min_distance(code)


class TestWeightOne:
    def test_double_socket_on_spc(self, spc3):
        code = make_code([spc3], [(0, (0, 0, 1))], 3)
        assert has_weight_one_codeword(code)
        assert is_codeword(code, [1, 0, 0])

    def test_vn_without_sockets(self, spc3):
        # VN 3 touches no CN, so the unit vector on it is a codeword
        code = make_code([spc3], [(0, (0, 1, 2))], 4)
        assert vn_degrees(code) == (1, 1, 1, 0)
        assert is_codeword(code, [0, 0, 0, 1])
        assert min_distance(code) == 1
        assert has_weight_one_codeword(code)

    def test_distinct_cns_block_weight_one(self, spc3_mixture):
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        code = sample_vn_regular(validate_finite_instance(spec, 3), 42)
        assert not has_weight_one_codeword(code)

    def test_equivalent_to_unit_distance(self):
        rng = random.Random(11)
        multi_edges = 0
        for _ in range(80):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            one, dmin = has_weight_one_codeword(code), min_distance(code)
            assert one == (dmin == 1)
            # thresholds <= 2 are read from the columns; dmin >= 1 makes le
            # False below 1
            for d in (-1, 0, 1, 2):
                assert _run_trial(code, d) == (one, dmin <= d)
            multi_edges += any(len(set(s)) < len(s) for _, s in code.cns)
        assert multi_edges


class TestStats:
    def test_rejects_zero_trials(self, alldeg2_spc3):
        with pytest.raises(ValueError):
            estimate_dmin_stats(alldeg2_spc3, 3, 0, 0.1, 1)

    def test_single_trial_counts(self, alldeg2_spc3):
        stats = estimate_dmin_stats(alldeg2_spc3, 3, 1, 1 / 3, 5)
        assert stats.count_eq_one in (0, 1)
        assert stats.count_le_threshold in (0, 1)

    def test_no_degree_two_means_no_unit_distance(self, spc3_mixture):
        spec = UnstructuredEnsemble.of(spc3_mixture, {3: 1})
        stats = estimate_dmin_stats(spec, 30, 200, 1 / 30, 17)
        assert stats.count_eq_one == 0

    def test_threshold_below_one_counts_nothing(self, alldeg2_spc3):
        stats = estimate_dmin_stats(alldeg2_spc3, 30, 50, 1e-9, 3)
        assert stats.count_le_threshold == 0 and stats.threshold_d == 0

    def test_irregular_spec_weight_one_frequency(self, spc3, ham7):
        # mixed degrees and mixed CN types: empirical weight-1 rate matches
        # the analytic limit (1 - exp(-0.25) here) within the 95% interval
        from gldpc.bounds import prob_min_distance_one

        mix = CnMixture.of([spc3, ham7], ["1/2", "1/2"])
        spec = UnstructuredEnsemble.of(mix, {2: "1/2", 3: "1/2"})
        target = prob_min_distance_one(spec)
        stats = estimate_dmin_stats(spec, 525, 1500, 1 / 525, 777)
        lo, hi = stats.wilson_ci_eq_one
        assert lo <= target <= hi

    def test_parity_rows_built_once_per_trial(self, ham7, monkeypatch):
        import gldpc.sampler

        built = []
        build = gldpc.sampler.global_parity_rows
        monkeypatch.setattr(gldpc.sampler, "global_parity_rows",
                            lambda code: built.append(code) or build(code))
        spec = VnRegularEnsemble(mixture=CnMixture.of([ham7], [1]), q=2)
        stats = estimate_dmin_stats(spec, 14, 6, 0.5, 11)
        # no weight-1 word and nothing over the limit: every trial reached min_distance
        assert stats.count_eq_one == 0 and stats.count_k_over_limit == 0
        assert len(built) == 6

    def test_small_threshold_does_no_elimination(self, bound_mix_ensemble, monkeypatch):
        import gldpc.sampler

        def refuse(*args):
            raise AssertionError("a threshold <= 2 built the rows or eliminated")

        for owner, name in ((gldpc.sampler, "global_parity_rows"),
                            (gldpc.sampler, "min_distance"), (gf2, "row_reduce")):
            monkeypatch.setattr(owner, name, refuse)
        stats = estimate_dmin_stats(bound_mix_ensemble, 147, 200, 0.02, 2024)
        assert stats.threshold_d == 2 and stats.count_k_over_limit == 0

    def test_small_threshold_never_undecided(self, gallager_3_6):
        # k is about 60 > DEFAULT_K_LIMIT, but d = 2 is read from the columns
        stats = estimate_dmin_stats(gallager_3_6, 120, 4, 0.02, 1)
        assert stats.threshold_d == 2 and stats.count_k_over_limit == 0
        assert stats.count_eq_one <= stats.count_le_threshold <= stats.trials

    def test_one_plan_per_call(self, ham7, monkeypatch):
        import gldpc.sampler

        plans = []
        plan = gldpc.sampler.validate_finite_instance
        monkeypatch.setattr(gldpc.sampler, "validate_finite_instance",
                            lambda spec, n: plans.append(n) or plan(spec, n))
        spec = VnRegularEnsemble(mixture=CnMixture.of([ham7], [1]), q=2)
        estimate_dmin_stats(spec, 14, 6, 0.5, 11)
        assert plans == [14]

    def test_empirical_union_bound(self, bound_mix_ensemble):
        from gldpc.bounds import min_distance_prob_bound

        ub = min_distance_prob_bound(bound_mix_ensemble)
        stats = estimate_dmin_stats(bound_mix_ensemble, 147, 400, 0.02, 2024)
        measurable = stats.trials - stats.count_k_over_limit
        frac = stats.count_le_threshold / measurable
        sigma = math.sqrt(ub.value * (1 - ub.value) / measurable)
        assert frac <= ub.value + 3 * sigma


class TestWilson:
    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_bounds_within_unit_interval(self):
        for count, total in [(0, 10), (10, 10), (3, 7), (500, 2000)]:
            lo, hi = wilson_interval(count, total)
            assert 0.0 <= lo <= count / total <= hi <= 1.0

    def test_interval_narrows_with_samples(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1
