"""GF(2) elimination against brute force on small matrices, and against an
independent column-scanning elimination on sampled stacked matrices."""

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
)
from gldpc.polywef import wef_from_parity_matrix
from gldpc.sampler import global_parity_rows, sample_unstructured, sample_vn_regular


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


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_basis_is_complete(mat):
    rows, n = mat
    basis = gf2.nullspace_basis(rows, n)
    assert len(basis) == n - gf2.rank(rows, n)
    assert all(gf2.dot_parity(r, v) == 0 for r in rows for v in basis)
    assert len(span(basis)) == 1 << len(basis)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_wef_matches_brute_force(mat):
    # both routes: direct enumeration when k <= rank, MacWilliams otherwise
    rows, n = mat
    hist = [0] * (n + 1)
    for v in range(1 << n):
        if all(gf2.dot_parity(r, v) == 0 for r in rows):
            hist[v.bit_count()] += 1
    assert wef_from_parity_matrix(rows, n).coeffs == tuple(hist)


def _stacked(kind, seed):
    spc3, spc6 = CheckNodeType.spc(3), CheckNodeType.spc(6)
    ham7 = CheckNodeType.hamming(7)
    if kind == "bound_mix":
        spec = UnstructuredEnsemble.of(CnMixture.of([spc3, ham7], ["1/5", "4/5"]),
                                       {2: "1/10", 3: "9/10"})
        code = sample_unstructured(spec, 147, seed)
    else:
        spec = VnRegularEnsemble(mixture=CnMixture.of([spc6], [1]), q=3)
        code = sample_vn_regular(spec, 600, seed)
    return global_parity_rows(code), code.n


@pytest.mark.parametrize("kind,seed", [("bound_mix", s) for s in range(6)]
                         + [("spc6_q3", s) for s in range(2)])
def test_rank_of_sampled_stacked_matrices(kind, seed):
    rows, n = _stacked(kind, seed)
    r = gf2.rank(rows, n)
    assert r == numpy_rank(rows, n)
    basis = gf2.nullspace_basis(rows, n)
    assert len(basis) == n - r
    assert all(gf2.dot_parity(row, v) == 0 for row in rows for v in basis)
