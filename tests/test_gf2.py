"""GF(2) elimination against brute force on small matrices, and against an
independent column-scanning elimination on sampled stacked matrices; the numpy
span walk against a bigint Gray-code walk."""

import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldpc import gf2
from gldpc.ensemble import (
    CheckNodeType,
    CnMixture,
    UnstructuredEnsemble,
    VnRegularEnsemble,
    validate_finite_instance,
)
from gldpc.polywef import wef_from_parity_matrix
from gldpc.sampler import (
    SampledCode,
    global_parity_rows,
    min_distance,
    sample_unstructured,
    sample_vn_regular,
)

from conftest import dot_parity


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    return rows, n


def span(rows):
    """Every XOR combination of `rows` (brute force)."""
    words = {0}
    for r in rows:
        words |= {w ^ r for w in words}
    return words


def transposed(rows, n, cols):
    """The given columns of `rows`, each as a bitmask over the rows."""
    return [sum(((row >> c) & 1) << i for i, row in enumerate(rows)) for c in cols]


def numpy_rank(rows, n):
    """Column-scanning Gaussian elimination over a 0/1 array."""
    m = np.array([[(r >> c) & 1 for c in range(n)] for r in rows], dtype=np.uint8)
    rank = 0
    for c in range(n):
        hits = np.nonzero(m[rank:, c])[0]
        if hits.size == 0:
            continue
        p = rank + hits[0]
        m[[rank, p]] = m[[p, rank]]
        below = np.nonzero(m[:, c])[0]
        below = below[below != rank]
        m[below] ^= m[rank]
        rank += 1
        if rank == len(rows):
            break
    return rank


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_is_log2_of_row_space_size(mat):
    rows, n = mat
    size = len(span(rows))
    assert 1 << gf2.rank(rows, n) == size


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_row_reduce_is_an_echelon_basis(mat):
    rows, n = mat
    pivots, echelon = gf2.row_reduce(rows, n)
    assert pivots == sorted(set(pivots))
    assert len(echelon) == len(pivots)
    assert [r.bit_length() - 1 for r in echelon] == pivots
    assert span(echelon) == span(rows)


@st.composite
def column_matrices(draw):
    """(columns, m): 1-10 columns over m rows, fewer or more rows than columns;
    a column may be zero, repeat an earlier one or be the XOR of two."""
    m = draw(st.integers(0, 12))
    cols = []
    for _ in range(draw(st.integers(1, 10))):
        pick = st.sampled_from(cols) if cols else st.nothing()
        cols.append(draw(st.one_of(st.integers(0, (1 << m) - 1), st.just(0), pick,
                                   st.tuples(pick, pick).map(lambda ab: ab[0] ^ ab[1]))))
    return cols, m


@settings(max_examples=300, deadline=None)
@given(column_matrices())
def test_nullspace_basis_from_columns(mat):
    cols, m = mat
    n, rows = len(cols), transposed(cols, m, range(m))
    k = n - gf2.rank(rows, n)
    basis = gf2.nullspace_basis(cols, n)
    assert len(basis) == k
    for v in basis:
        word = 0
        for c in range(n):
            word ^= cols[c] if v >> c & 1 else 0
        assert v and word == 0
    assert len(span(basis)) == 1 << k
    # the columns that reduce to 0 are those in the span of the earlier columns;
    # each basis vector holds exactly one of them
    zeroed = sum(1 << c for c in range(n) if cols[c] in span(cols[:c]))
    assert zeroed.bit_count() == k
    assert all((v & zeroed).bit_count() == 1 for v in basis)
    if k:
        with pytest.raises(gf2.DimensionLimitError) as err:
            gf2.nullspace_basis(cols, k - 1)
        assert (err.value.dim, err.value.limit) == (k, k - 1)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128])
def test_transpose_matches_bit_by_bit(n):
    rng = random.Random(n)
    for k in (0, 1, 7, 8, 9, 64, 65):
        rows = [rng.getrandbits(n) for _ in range(k)]
        if rows:
            rows[-1] |= 1 << (n - 1)
        assert gf2.transpose(rows, n) == transposed(rows, n, range(n))
    assert gf2.transpose([], n) == [0] * n


@settings(max_examples=300, deadline=None)
@given(matrices(), st.integers(1, 6))
def test_information_sets_are_disjoint_and_systematic(mat, max_sets):
    rows, n = mat
    r = gf2.rank(rows, n)
    sets, gens = gf2._information_sets(rows, n, max_sets)
    assert len(sets) == len(gens) <= max_sets
    if not r:
        assert sets == []
        return
    assert sets and len(sets[0]) == r
    taken = [c for s in sets for c in s]
    assert len(taken) == len(set(taken)) and all(0 <= c < n for c in taken)
    for s, g in zip(sets, gens):
        # row i is the only row with a one in column s[i]
        assert len(g) == r and transposed(g, n, s) == [1 << i for i in range(r)]
        assert span(g) == span(rows)
    if len(sets) < max_sets:
        # splitting stopped because the columns left over hold no further set
        unused = sorted(set(range(n)).difference(*sets))
        assert gf2.rank(transposed(rows, n, unused), len(rows)) < r
    # a null-space basis is systematic on its top bits and keeps them as set 1
    basis = gf2.nullspace_basis(transposed(rows, n, range(n)), n)
    if basis:
        sets, gens = gf2._information_sets(basis, n, max_sets)
        assert sets[0] == [v.bit_length() - 1 for v in basis] and gens[0] == basis


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_dimension_cap_is_inclusive(mat):
    rows, n = mat
    cols = transposed(rows, n, range(n))
    k = n - gf2.rank(rows, n)
    assert len(gf2.nullspace_basis(cols, k)) == k
    with pytest.raises(gf2.DimensionLimitError) as err:
        gf2.nullspace_basis(cols, k - 1)
    assert (err.value.dim, err.value.limit) == (k, k - 1)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_wef_matches_brute_force(mat):
    # both routes: direct enumeration when k <= rank, MacWilliams otherwise
    rows, n = mat
    hist = [0] * (n + 1)
    for v in range(1 << n):
        if all(dot_parity(r, v) == 0 for r in rows):
            hist[v.bit_count()] += 1
    assert wef_from_parity_matrix(rows, n).coeffs == tuple(hist)


def _stacked(kind, seed):
    spc3, spc6 = CheckNodeType.spc(3), CheckNodeType.spc(6)
    ham7 = CheckNodeType.hamming(7)
    if kind == "bound_mix":
        spec = UnstructuredEnsemble.of(CnMixture.of([spc3, ham7], ["1/5", "4/5"]),
                                       {2: "1/10", 3: "9/10"})
        code = sample_unstructured(validate_finite_instance(spec, 147), seed)
    else:
        spec = VnRegularEnsemble(mixture=CnMixture.of([spc6], [1]), q=3)
        code = sample_vn_regular(validate_finite_instance(spec, 600), seed)
    return global_parity_rows(code), code.n


@pytest.mark.parametrize("kind,seed", [("bound_mix", s) for s in range(6)]
                         + [("spc6_q3", s) for s in range(2)])
def test_rank_of_sampled_stacked_matrices(kind, seed):
    rows, n = _stacked(kind, seed)
    r = gf2.rank(rows, n)
    assert r == numpy_rank(rows, n)
    basis = gf2.nullspace_basis(transposed(rows, n, range(n)), n)
    assert len(basis) == n - r
    assert all(dot_parity(row, v) == 0 for row in rows for v in basis)


def gray_span_weight_histogram(basis, n_cols):
    """Oracle: weight histogram of all 2^k combinations of `basis`, one
    Python-bigint XOR per word in Gray-code order."""
    hist = [0] * (n_cols + 1)
    hist[0] = 1
    word = 0
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        hist[word.bit_count()] += 1
    return hist


@st.composite
def spanning_rows(draw):
    """Up to 16 rows over a column count at or near a 64-bit word boundary;
    a row may be zero or repeat an earlier one."""
    n = draw(st.sampled_from([1, 63, 64, 65, 128, 129, 140]))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        rows.append(draw(st.one_of(st.integers(0, (1 << n) - 1), st.just(0),
                                   st.sampled_from(rows) if rows else st.nothing())))
    return rows, n


@functools.lru_cache(maxsize=None)
def _spc(s):
    return CheckNodeType.spc(s)


def code_from_rows(rows, n):
    """A code whose stacked parity rows are `rows`: one SPC check per row, on
    the row's support padded to length n + 1 or n + 2 with pairs of VN 0."""
    cns = []
    for r in rows:
        support = tuple(v for v in range(n) if (r >> v) & 1)
        t = (n + 1 - len(support)) & 1
        cns.append((t, support + (0,) * (n + 1 + t - len(support))))
    return SampledCode.from_cns(n, (_spc(n + 1), _spc(n + 2)), cns)


@settings(max_examples=150, deadline=None)
@given(spanning_rows())
def test_span_histogram_matches_gray_walk(mat):
    rows, n = mat
    assert gf2.span_weight_histogram(rows, n) == gray_span_weight_histogram(rows, n)


@settings(max_examples=60, deadline=None)
@given(spanning_rows())
def test_min_distance_matches_gray_walk(mat):
    # a code whose null space is the span of `rows`
    rows, n = mat
    parity = gf2.nullspace_basis(transposed(rows, n, range(n)), n)
    code = code_from_rows(parity, n)
    assert global_parity_rows(code) == parity
    hist = gray_span_weight_histogram(rows, n)
    expected = next((w for w in range(1, n + 1) if hist[w]), math.inf)
    assert min_distance(code) == expected


@pytest.mark.parametrize("budget", [64, 1000, 1 << 12])
def test_span_histogram_with_many_chunks(monkeypatch, budget):
    # a small budget leaves a low table of a few rows and many Gray-walked chunks
    monkeypatch.setattr(gf2, "_WALK_BUFFER_BYTES", budget)
    rng = random.Random(budget)
    for n in (1, 64, 65, 140):
        rows = [rng.getrandbits(n) for _ in range(12)] + [0]
        rows.append(rows[3])
        assert gf2.span_weight_histogram(rows, n) == gray_span_weight_histogram(rows, n)


@pytest.mark.parametrize("k,n", [(20, 140), (12, 3000)])
def test_span_walk_memory_within_budget(k, n):
    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(k)]
    tracemalloc.start()
    try:
        hist = gf2.span_weight_histogram(rows, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist == gray_span_weight_histogram(rows, n)
    assert peak <= 2 * gf2._WALK_BUFFER_BYTES


def test_subset_tables_in_colex_order():
    # unit rows, so a subset's XOR is its own mask: set 0 in word 0, set 1 in word 1;
    # levels 0 to 2 fit keep (1 + 9 + 36 subsets), level 3 does not, and chunks of 5
    # cut the kept levels
    k, cap = 9, 5
    rows = np.zeros((2, 2, k), np.uint64)
    for i in range(k):
        rows[0, 0, i], rows[1, 1, i] = 1 << i, 1 << (k + i)
    tables = gf2._Subsets(rows, cap, 1 + k + math.comb(k, 2))
    for w in range(k + 1):
        for r in range(k + 1):
            chunks = list(tables.words(w, None if r == k else r))
            assert all(c.shape[:2] == (2, 2) and 0 < c.shape[2] <= cap for c in chunks)
            words = np.concatenate(chunks, axis=2) if chunks else np.zeros((2, 2, 0), np.uint64)
            assert not words[1, 0].any() and not words[0, 1].any()
            assert np.array_equal(words[1, 1], words[0, 0] << np.uint64(k))
            colex = sorted(itertools.combinations(range(r), w), key=lambda c: c[::-1])
            assert words[0, 0].tolist() == [sum(1 << i for i in c) for c in colex]
    assert len(tables.levels) == 3


def least_weight(hist):
    return next((w for w in range(1, len(hist)) if hist[w]), math.inf)


@settings(max_examples=150, deadline=None)
@given(spanning_rows())
def test_min_weight_matches_gray_walk(mat):
    rows, n = mat
    assert gf2.min_weight(rows, n) == least_weight(gray_span_weight_histogram(rows, n))


@settings(max_examples=30, deadline=None)
@given(spanning_rows())
def test_bounded_min_weight_decides_the_threshold(mat):
    rows, n = mat
    d = least_weight(gray_span_weight_histogram(rows, n))
    for at_most in range(n + 1):
        assert (gf2.min_weight(rows, n, at_most) <= at_most) == (d <= at_most)


@pytest.mark.parametrize("k,n", [(6, 140), (10, 100), (4, 129)])
def test_bounded_min_weight_hands_over_to_the_walk(monkeypatch, k, n):
    # few rows and many columns: an undecided query reaches the walk
    walks, walk = [], gf2.span_weight_histogram

    def spy(basis, n_cols):
        walks.append(len(basis))
        return walk(basis, n_cols)

    monkeypatch.setattr(gf2, "span_weight_histogram", spy)
    rng = random.Random(k * n)
    for _ in range(3):
        rows = [rng.getrandbits(n) for _ in range(k)]
        d = least_weight(gray_span_weight_histogram(rows, n))
        for at_most in range(n + 1):
            assert (gf2.min_weight(rows, n, at_most) <= at_most) == (d <= at_most)
    assert walks


@pytest.mark.parametrize("n", [1, 5, 64, 140])
def test_min_weight_of_no_and_one_row(n):
    rng = random.Random(n)
    rowsets = [[], [0, 0]]
    for row in [1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) | 1 for _ in range(5)]:
        rowsets += [[row], [row, row, 0]]
    for rows in rowsets:
        assert gf2.min_weight(rows, n) == least_weight(gray_span_weight_histogram(rows, n))


@pytest.mark.parametrize("k,n", [(6, 7), (10, 15), (12, 20), (16, 31), (20, 39)])
def test_min_weight_with_one_information_set(k, n):
    # fewer than 2k columns leave room for a single information set
    rng = random.Random(k * n)
    for _ in range(5):
        rows = [rng.getrandbits(n) for _ in range(k)]
        assert len(gf2._information_sets(rows, n, 99)[0]) == 1
        assert gf2.min_weight(rows, n) == least_weight(gf2.span_weight_histogram(rows, n))


@pytest.mark.parametrize("blocks,low_rank", [(1, 0), (1, 3), (2, 2), (3, 5)])
def test_min_weight_with_rank_deficient_leftover(blocks, low_rank):
    # rows [I | U_1 .. U_{blocks-1} | L]: unit upper-triangular U_j, and a block L
    # of rank low_rank < k; the columns left out of every set have rank < k
    k, rng = 8, random.Random(blocks * 10 + low_rank)
    mixers = [rng.getrandbits(2 * k) for _ in range(low_rank)]
    n = blocks * k + 2 * k
    for _ in range(10):
        rows = []
        for i in range(k):
            row = 1 << i
            for j in range(1, blocks):
                row |= ((1 << i) | rng.getrandbits(k) >> (i + 1) << (i + 1)) << (j * k)
            left = 0
            for mixer in mixers:
                left ^= mixer if rng.getrandbits(1) else 0
            rows.append(row | left << (blocks * k))
        sets, _ = gf2._information_sets(rows, n, 99)
        unused = set(range(n)).difference(*sets)
        assert gf2.rank(transposed(rows, n, sorted(unused)), len(rows)) < k
        assert gf2.min_weight(rows, n) == least_weight(gf2.span_weight_histogram(rows, n))


@pytest.mark.parametrize("k,n", [(6, 140), (10, 100), (4, 1000), (20, 2000)])
def test_min_weight_hands_over_to_the_walk(monkeypatch, k, n):
    # many sets of few rows: the next weight would cost more than walking 2^k words
    calls, popcounted = [], []
    walk, popcount = gf2.span_weight_histogram, np.bitwise_count

    def spy(basis, n_cols):
        calls.append(sum(popcounted))
        return walk(basis, n_cols)

    def counting(words, **kwargs):
        popcounted.append(words.size)
        return popcount(words, **kwargs)

    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(k)]
    expected = least_weight(walk(rows, n))
    monkeypatch.setattr(gf2, "span_weight_histogram", spy)
    monkeypatch.setattr(np, "bitwise_count", counting)
    assert gf2.min_weight(rows, n) == expected
    # the search popcounted at most 2^k / _SEARCH_WORD_COST words before the walk
    assert len(calls) == 1 and 0 < calls[0]
    assert calls[0] <= (1 << k) // gf2._SEARCH_WORD_COST * -(-(n - k) // 64)


@pytest.mark.parametrize("budget", [64, 1000, 1 << 12])
def test_min_weight_with_small_buffers(monkeypatch, budget):
    # small buffers keep no subset table past the rows and cut many chunks
    monkeypatch.setattr(gf2, "_WALK_BUFFER_BYTES", budget)
    rng = random.Random(budget)
    for k, n in ((12, 30), (14, 64), (10, 140)):
        for _ in range(3):
            rows = [rng.getrandbits(n) for _ in range(k)]
            assert gf2.min_weight(rows, n) == least_weight(gray_span_weight_histogram(rows, n))


@pytest.mark.parametrize("k,n", [(28, 56), (12, 3000)])
def test_min_weight_memory_within_budget(k, n):
    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(k)]
    tracemalloc.start()
    try:
        d = gf2.min_weight(rows, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if k <= 20:
        assert d == least_weight(gf2.span_weight_histogram(rows, n))
    assert peak <= 4 * gf2._WALK_BUFFER_BYTES
