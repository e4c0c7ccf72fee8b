import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from gldpc.specfile import load_spec_file

from conftest import dot_parity, is_codeword, spec_path, trial_seed, vn_degrees


def make_code(types, cns, n):
    return SampledCode.from_cns(n, types, cns)


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


def walk_min_distance(code):
    """Oracle: least nonzero weight of the span walk's histogram."""
    basis = gf2.nullspace_basis(code.columns(range(code.n)), DEFAULT_K_LIMIT)
    hist = gf2.span_weight_histogram(basis, code.n)
    return next((w for w in range(1, code.n + 1) if hist[w]), math.inf)


def transposed(rows, n):
    """Column v of the stacked rows as a bitmask over them, for each v < n: the
    form of `SampledCode.columns`."""
    return [sum(((row >> v) & 1) << i for i, row in enumerate(rows)) for v in range(n)]


def check_columns(code):
    """The exact columns are the stacked rows, transposed."""
    assert code.columns(range(code.n)) == transposed(global_parity_rows(code), code.n)


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


# SHA-256 of the int64 little-endian socket VNs of each trial in turn (CN
# order), taken from an earlier release that stored each CN as a tuple of VNs
GOLDEN_SOCKETS = {
    ("bound_mix", 147, 200):
        "d8fb9b85bebc2e34a62aa9363464e9f3f242393ac662683455221960d7b36c59",
    ("hamming7_q2", 140, 4):
        "ac3926b5a9027f3bb64e0322daa2f1dae3dd211d5316fbd0e30a21ba295671e3",
}


@pytest.mark.parametrize("name,n,trials", sorted(GOLDEN_SOCKETS))
def test_draws_match_golden_sockets(name, n, trials):
    sf = load_spec_file(spec_path(f"{name}.json"))
    spec = sf.vn_regular or sf.unstructured
    digest = hashlib.sha256()
    for i in range(trials):
        code = sample_any(spec, n, trial_seed(5, i))
        digest.update(code.sockets.astype("<i8").tobytes())
    assert digest.hexdigest() == GOLDEN_SOCKETS[name, n, trials]


def test_batch_draws_match_golden_sockets(monkeypatch):
    """The socket tables `estimate_dmin_stats` screens, chunk by chunk, hash to the
    same golden digests as the one-trial draws above."""
    import gldpc.sampler

    tables, sketches = [], gldpc.sampler._sketches

    def spy(layout, n, sockets):
        tables.append(sockets.astype("<i8").tobytes())
        return sketches(layout, n, sockets)

    monkeypatch.setattr(gldpc.sampler, "_sketches", spy)
    for (name, n, trials), golden in sorted(GOLDEN_SOCKETS.items()):
        sf = load_spec_file(spec_path(f"{name}.json"))
        tables.clear()
        estimate_dmin_stats(sf.vn_regular or sf.unstructured, n, trials, 0.0, 5)
        assert len(tables) > (name == "bound_mix")  # bound_mix spans several chunks
        assert hashlib.sha256(b"".join(tables)).hexdigest() == golden


BASE_SEEDS = st.integers(0, 2**256 - 1)


class TestTrialSeeds:
    """The vectorised seeding equals numpy's two-level SeedSequence spawn chain."""

    @given(base=BASE_SEEDS, first=st.integers(0, 2**32 - 1), count=st.integers(1, 40))
    @example(base=0, first=0, count=1)
    @example(base=2**32 - 1, first=2**32 - 3, count=3)
    @example(base=2**32, first=7, count=2)
    @example(base=2**64, first=0, count=12)
    @example(base=2**128 + 1, first=2**31, count=5)
    @example(base=10**4299, first=2**32 - 2, count=2)  # the longest --seed: 447 words
    @settings(max_examples=60, deadline=None)
    def test_words_match_numpy(self, base, first, count):
        from gldpc.sampler import _seed_words

        count = min(count, 2**32 - first)
        want = [np.random.SeedSequence(trial_seed(base, i)).generate_state(4, np.uint64)
                for i in range(first, first + count)]
        assert np.array_equal(_seed_words(base, first, count), want)

    @given(words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12),
           wide=st.integers(0, 11), column=st.lists(st.integers(0, 2**32 - 1), min_size=1,
                                                    max_size=6),
           n_words=st.integers(1, 12))
    @example(words=[5], wide=0, column=[0, 1, 2**32 - 1], n_words=1)
    @example(words=[0] * 12, wide=11, column=[7, 2**31], n_words=12)
    @example(words=[1, 2, 3, 4, 5], wide=2, column=[9, 8, 7, 6], n_words=8)
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_numpy(self, words, wide, column, n_words):
        """`_state(_pool(...))` is SeedSequence(words).generate_state: entropy word
        wide % len(words) takes each value of column in turn, one per trial, and the
        other words are one-element arrays broadcast against it."""
        from gldpc.sampler import _pool, _state

        wide %= len(words)
        rows = [np.array([w], np.uint32) for w in words]
        rows[wide] = np.array(column, np.uint32)
        got = _state(_pool(rows), n_words)
        assert got.shape == (n_words, len(column)) and got.dtype == np.uint32
        for trial, value in enumerate(column):
            entropy = np.array(words[:wide] + [value] + words[wide + 1:], np.uint32)
            want = np.random.SeedSequence(entropy).generate_state(n_words, np.uint32)
            assert np.array_equal(got[:, trial], want)

    @given(base=BASE_SEEDS, block=st.integers(1, 6), trials=st.integers(1, 20))
    @example(base=0, block=4, trials=9)
    @example(base=2**128 + 1, block=3, trials=3)
    @settings(max_examples=40, deadline=None)
    def test_generators_cross_seed_blocks(self, base, block, trials):
        from unittest import mock

        import gldpc.sampler

        with mock.patch.object(gldpc.sampler, "_SEED_BLOCK", block):
            got = [rng.bit_generator.state for rng in gldpc.sampler._trial_rngs(base, trials)]
        assert got == [np.random.default_rng(trial_seed(base, i)).bit_generator.state
                       for i in range(trials)]

    def test_trials_past_one_spawn_word_refused(self, bound_mix_ensemble, monkeypatch):
        import gldpc.sampler

        monkeypatch.setattr(gldpc.sampler, "validate_finite_instance", None)  # no plan, no draw
        with pytest.raises(ValueError, match=r"at most 2\*\*32"):
            estimate_dmin_stats(bound_mix_ensemble, 147, 2**32 + 1, 0.02, 1)

    def test_import_leaves_numpy_random_unloaded(self):
        """Only a command that draws pays for numpy.random's import (part of setup time)."""
        import os
        import subprocess
        import sys

        import gldpc

        src = os.path.dirname(os.path.dirname(gldpc.__file__))
        code = "import sys, gldpc.cli; sys.exit('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_negative_seed_refused(self, bound_mix_ensemble):
        with pytest.raises(ValueError, match="non-negative"):
            estimate_dmin_stats(bound_mix_ensemble, 147, 3, 0.02, -1)


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
            assert code.columns(range(n)) == transposed(rows, n)
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

    def test_refused_from_the_rank(self, gallager_3_6):
        # (3,6) at n=600 has k near 300: refused with dim the bound n - rows,
        # which is at most n - rank
        code = sample_any(gallager_3_6, 600, 3)
        rows = global_parity_rows(code)
        with pytest.raises(DimensionLimitError) as err:
            min_distance(code)
        assert err.value.dim == code.n - len(rows) == 300
        assert DEFAULT_K_LIMIT < err.value.dim <= code.n - gf2.rank(rows, code.n)
        assert err.value.limit == DEFAULT_K_LIMIT

    def test_refused_by_the_rank_within_the_row_bound(self, spc3_mixture):
        # SPC-3, q = 2, n = 84: 56 rows leave k >= 28, the limit, but the two
        # layers' rows each sum to the all-ones word, so the rank is below 56
        spec = VnRegularEnsemble(mixture=spc3_mixture, q=2)
        code = sample_any(spec, 84, 1)
        rows = global_parity_rows(code)
        assert code.n - len(rows) == DEFAULT_K_LIMIT
        with pytest.raises(DimensionLimitError) as err:
            min_distance(code)
        assert err.value.dim == code.n - gf2.rank(rows, code.n) > DEFAULT_K_LIMIT

    def test_agrees_with_full_scan(self):
        rng = random.Random(7)
        for _ in range(40):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            assert min_distance(code) == full_scan_min_distance(code)

    def test_thresholds_above_two_agree_with_full_scan(self):
        rng = random.Random(17)
        for _ in range(40):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            dmin = full_scan_min_distance(code)
            for d in range(3, n + 1):
                assert _run_trial(code, d) == (dmin == 1, dmin <= d)

    def test_bounded_query_splits_few_sets(self, monkeypatch):
        # at most D: D + 1 disjoint information sets already prove d > D
        spec = load_spec_file(spec_path("hamming7_q2.json")).vn_regular
        split, information_sets = [], gf2._information_sets
        monkeypatch.setattr(gf2, "_information_sets",
                            lambda *args: split.append(len(information_sets(*args)[0]))
                            or information_sets(*args))
        bounded, trial = [], []
        for i in range(4):
            code = sample_any(spec, 140, trial_seed(5, i))
            d = min_distance(code)
            assert (min_distance(code, 2) <= 2) == (d <= 2)
            bounded.append(split.pop())
            # a sample trial passes its threshold down
            assert _run_trial(code, 3) == (False, d <= 3)
            trial.append(split.pop())
        assert max(bounded) <= 3 < max(split)
        assert max(trial) <= 4

    def test_hamming7_draws_match_the_walk(self):
        # trials of the seed-5 golden record and on: k = 20, six or fewer sets
        spec = load_spec_file(spec_path("hamming7_q2.json")).vn_regular
        dists = []
        for i in range(40):
            code = sample_any(spec, 140, trial_seed(5, i))
            basis = gf2.nullspace_basis(code.columns(range(code.n)), DEFAULT_K_LIMIT)
            assert len(basis) == 20
            dists.append(min_distance(code))
            assert dists[-1] == walk_min_distance(code)
        assert sum(d <= 25 for d in dists[:4]) == 2
        assert min(dists) <= 25 < max(dists)

    def test_hamming7_never_walks(self, monkeypatch):
        spec = load_spec_file(spec_path("hamming7_q2.json")).vn_regular
        codes = [sample_any(spec, 140, trial_seed(5, i)) for i in range(10)]
        expected = [walk_min_distance(code) for code in codes]

        def refuse(*args):
            raise AssertionError("min_distance walked the span")

        monkeypatch.setattr(gf2, "span_weight_histogram", refuse)
        assert [min_distance(code) for code in codes] == expected

    def test_hamming15_at_the_dimension_limit(self):
        # k = 28: the walk takes 2^28 words, the search those of weights 1 and 2
        spec = load_spec_file(spec_path("hamming15_q2.json")).vn_regular
        code = sample_any(spec, 60, trial_seed(1, 0))
        basis = gf2.nullspace_basis(code.columns(range(code.n)), DEFAULT_K_LIMIT)
        assert len(basis) == DEFAULT_K_LIMIT == 28
        assert min_distance(code) == walk_min_distance(code) == 3

    def test_memory_at_the_dimension_limit(self):
        spec = load_spec_file(spec_path("hamming15_q2.json")).vn_regular
        for i in range(4):
            code = sample_any(spec, 60, trial_seed(1, i))
            tracemalloc.start()
            try:
                d = min_distance(code)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert d == 3
            assert peak <= 2 * gf2._WALK_BUFFER_BYTES


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
            # a sketch that clears nothing leaves the exact columns to decide
            blind = SampledCode(code.n, code.layout, code.sockets)
            blind.__dict__["sketch"] = np.zeros(code.n, np.int64)
            assert has_weight_one_codeword(blind) == one
            # weight 1 and thresholds <= 2 are read from the columns, above 2
            # from them first; dmin >= 1 makes le False below 1
            for d in (-1, 0, 1, 2, 3, 4):
                assert _run_trial(code, d) == (one, dmin <= d)
                assert _run_trial(blind, d) == (one, dmin <= d)
            multi_edges += any(len(set(s)) < len(s) for _, s in code.cns)
        assert multi_edges


def check_column_test(code, dmin):
    """_run_trial at thresholds <= 2 against the minimum distance dmin, once
    with the code's sketch and once with a sketch that clears nothing, so the
    exact columns decide every case."""
    blind = SampledCode(code.n, code.layout, code.sockets)
    blind.__dict__["sketch"] = np.zeros(code.n, np.int64)
    for d in (-1, 0, 1, 2):
        assert _run_trial(code, d) == (dmin == 1, dmin <= d)
        assert _run_trial(blind, d) == (dmin == 1, dmin <= d)


class TestColumnTest:
    """Thresholds <= 2 read from the sketch and exact columns, against an
    exhaustive scan."""

    def test_agrees_with_full_scan(self):
        rng = random.Random(515)
        for _ in range(120):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            check_column_test(code, full_scan_min_distance(code))

    @pytest.mark.parametrize("cns,n,dmin", [
        # VN 0 twice on one SPC: its equal local columns cancel to a zero column
        ([(0, (0, 0, 1)), (0, (1, 2, 2))], 3, 1),
        # VN 0 three times on one SPC does not cancel; VNs 1 and 2 share a column
        ([(0, (0, 0, 0)), (0, (1, 2, 0))], 3, 2),
        # three times, and nothing else: no nonzero codeword
        ([(0, (0, 0, 0))], 1, math.inf),
        # twice more on the other CN: VN 0 cancels there, so its column is CN 0's
        ([(0, (0, 0, 0)), (0, (0, 0, 1))], 2, math.inf),
    ])
    def test_repeated_sockets(self, spc3, cns, n, dmin):
        code = make_code([spc3], cns, n)
        assert full_scan_min_distance(code) == dmin
        check_columns(code)
        check_column_test(code, dmin)

    @pytest.mark.parametrize("cns,n", [
        # seven VNs in one check, each with its own local column
        ([(0, tuple(range(7)))], 7),
        # VN 0 on the first two sockets reads the XOR of their distinct columns,
        # which may equal the column of another socket
        ([(0, (0, 0, 1, 2, 3, 4, 5))], 6),
    ])
    def test_unequal_local_columns(self, ham7, cns, n):
        code = make_code([ham7], cns, n)
        check_columns(code)
        check_column_test(code, full_scan_min_distance(code))

    def test_types_with_more_rows_than_a_check(self):
        # a length-70 repetition code has 69 parity rows, more than a word
        rep70 = CheckNodeType.explicit([1 | 1 << i for i in range(1, 70)], 70)
        spc3 = CheckNodeType.spc(3)
        rng = random.Random(70)
        for _ in range(30):
            n = rng.randrange(2, 9)
            cns = [(0, tuple(rng.randrange(n) for _ in range(70))),
                   (1, tuple(rng.randrange(n) for _ in range(3)))]
            code = make_code([rep70, spc3], cns, n)
            check_columns(code)
            check_column_test(code, full_scan_min_distance(code))

    def test_high_degree_vn_costs_its_sockets(self, spc3_mixture):
        # VN 2700 sits on 3600 of the 9000 sockets: with every VN checked
        # exactly, memory stays about linear in the edges (an (n, degree)
        # padded matrix would be about 80 MB here)
        spec = UnstructuredEnsemble.of(spc3_mixture, {2: "3/5", 3600: "2/5"})
        plan = validate_finite_instance(spec, 2701)
        assert plan.vn_degree_counts == ((2, 2700), (3600, 1))
        for seed in range(2):
            code = sample_unstructured(plan, seed)
            blind = SampledCode(code.n, code.layout, code.sockets)
            blind.__dict__["sketch"] = np.zeros(code.n, np.int64)
            tracemalloc.start()
            try:
                assert _run_trial(blind, 2) == _run_trial(code, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20
            # on SPC-3 each local column is 1, so the big VN's column holds
            # the CNs that see it an odd number of times
            seen = np.bincount(np.flatnonzero(code.sockets == 2700) // 3, minlength=3000)
            assert code.columns([2700]) == [sum(1 << c for c in np.flatnonzero(seen % 2).tolist())]

    def test_sketch_separates_exactly_the_distinct_columns(self):
        # a linear image: equal columns, and zero ones, have equal (zero)
        # images; with fixed 64-bit words no two distinct columns here collide
        rng = random.Random(64)
        for _ in range(60):
            spec, n = random_small_ensemble(rng)
            code = sample_any(spec, n, rng.randrange(2 ** 32))
            cols, image = transposed(global_parity_rows(code), n), code.sketch.tolist()
            for u in range(n):
                assert (cols[u] == 0) == (image[u] == 0)
                for v in range(u):
                    assert (cols[u] == cols[v]) == (image[u] == image[v])


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

    def test_decided_trial_reduces_its_columns_once(self, ham7, monkeypatch):
        import gldpc.sampler

        def refuse(*args):
            raise AssertionError("a trial built the rows or eliminated them")

        for owner, name in ((gldpc.sampler, "global_parity_rows"), (gf2, "row_reduce")):
            monkeypatch.setattr(owner, name, refuse)
        reduced, reduce = [], gf2.nullspace_basis

        def spy(cols, k):
            # min_distance passes an iterator, which frees each column as it is read
            cols = list(cols)
            reduced.append(len(cols))
            return reduce(cols, k)

        monkeypatch.setattr(gf2, "nullspace_basis", spy)
        spec = VnRegularEnsemble(mixture=CnMixture.of([ham7], [1]), q=2)
        stats = estimate_dmin_stats(spec, 14, 6, 0.5, 11)
        # no weight-1 word and nothing over the limit: every trial reached min_distance
        assert stats.count_eq_one == 0 and stats.count_k_over_limit == 0
        assert reduced == [14] * 6

    def test_small_threshold_does_no_elimination(self, bound_mix_ensemble, monkeypatch):
        import gldpc.sampler

        def refuse(*args):
            raise AssertionError("a threshold <= 2 built the rows or eliminated")

        for owner, name in ((gldpc.sampler, "global_parity_rows"),
                            (gldpc.sampler, "min_distance"), (gf2, "row_reduce"),
                            (gf2, "nullspace_basis")):
            monkeypatch.setattr(owner, name, refuse)
        stats = estimate_dmin_stats(bound_mix_ensemble, 147, 200, 0.02, 2024)
        assert stats.threshold_d == 2 and stats.count_k_over_limit == 0

    def test_over_limit_trial_builds_no_row(self, gallager_3_6, monkeypatch):
        # (3,6) at n = 600 has 300 rows, so k >= 300: refused from the layout
        import gldpc.sampler

        def refuse(*args):
            raise AssertionError("an over-limit trial built the rows or eliminated")

        for owner, name in ((gldpc.sampler, "global_parity_rows"), (gf2, "row_reduce"),
                            (gf2, "nullspace_basis")):
            monkeypatch.setattr(owner, name, refuse)
        stats = estimate_dmin_stats(gallager_3_6, 600, 5, 0.0227, 1)
        assert stats.threshold_d == 13 and stats.count_k_over_limit == 5

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


def trial_by_trial(spec, n, trials, threshold_d, seed):
    """Reference counts: each trial drawn by its sampler and run on its own."""
    results = [_run_trial(sample_any(spec, n, trial_seed(seed, i)), threshold_d)
               for i in range(trials)]
    return (sum(one for one, _ in results), sum(bool(le) for _, le in results),
            sum(le is None for _, le in results))


def batch_counts(spec, n, trials, threshold_d, seed):
    stats = estimate_dmin_stats(spec, n, trials, (threshold_d + 0.5) / n, seed)
    assert stats.threshold_d == threshold_d
    return stats.count_eq_one, stats.count_le_threshold, stats.count_k_over_limit


class TestBatchMatchesTrials:
    """The chunked screen counts exactly what each trial run on its own counts."""

    @pytest.mark.parametrize("threshold_d", [0, 1, 2, 3])
    @pytest.mark.parametrize("name,n", [("spc3_q2", 30), ("alldeg2_spc3", 30),
                                        ("bound_mix", 147)])
    def test_counts_equal(self, name, n, threshold_d):
        sf = load_spec_file(spec_path(f"{name}.json"))
        spec = sf.vn_regular or sf.unstructured
        trials = 300 if name == "bound_mix" else 60
        reference = trial_by_trial(spec, n, trials, threshold_d, 9)
        assert batch_counts(spec, n, trials, threshold_d, 9) == reference
        if name == "bound_mix" and threshold_d >= 1:
            assert reference[0] > 0  # weight-1 hits are screened in, not out

    def test_trials_span_chunks(self, bound_mix_ensemble, monkeypatch):
        import gldpc.sampler

        plan = validate_finite_instance(bound_mix_ensemble, 147)
        monkeypatch.setattr(gldpc.sampler, "_CHUNK_BYTES", 4 * (16 * plan.edges + 18 * 147))
        screened, sketches = [], gldpc.sampler._sketches

        def spy(layout, n, sockets):
            screened.append(len(sockets))
            return sketches(layout, n, sockets)

        monkeypatch.setattr(gldpc.sampler, "_sketches", spy)
        reference = trial_by_trial(bound_mix_ensemble, 147, 10, 2, 9)
        screened.clear()
        assert batch_counts(bound_mix_ensemble, 147, 10, 2, 9) == reference
        assert screened == [4, 4, 2]


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
