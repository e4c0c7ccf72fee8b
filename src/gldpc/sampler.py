"""Finite code instances sampled from either ensemble, with exact checks.

Sampling is deterministic given a non-negative integer seed, so Monte Carlo
aggregates are identical across runs. One code drawn from seed s uses numpy's
PCG64 seeded by SeedSequence(s). Trial i of an `estimate_dmin_stats` run from
base seed b uses PCG64 seeded by SeedSequence(t), where t is the uint64 that
SeedSequence(b, spawn_key=(i,)) generates: numpy's spawn chain, two levels deep.
`_seed_words` computes that chain's PCG64 words for a block of trials at once,
bit for bit as numpy does: one uint32 array kernel of numpy's entropy mixing
(`_pool`) and state generation (`_state`), whose columns are trials, runs both
levels.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import gf2
from .ensemble import (
    CnLayout,
    InstancePlan,
    UnstructuredEnsemble,
    VnRegularEnsemble,
    validate_finite_instance,
)
from .gf2 import DimensionLimitError

VN_REGULAR = "vn_regular"
UNSTRUCTURED = "unstructured"

#: Largest code dimension min_distance will enumerate exhaustively.
DEFAULT_K_LIMIT = 28
#: Most edges a sampled code may have, refused before any draw: a large q or lambda
#: degree at small n is otherwise unbounded. A trial's draw and column test cost about
#: linear in the edges (2-vCPU VM, SPC-3 at n = 3, d <= 2: 0.003 s and 40 MB at 90 000
#: edges, 0.04 s and 89 MB at 10^6; with every column checked exactly, 0.05 s and 49 MB
#: at 90 000); 90 000 is (3,6) at the largest --n, 30 000.
MAX_EDGES = 90_000
#: Bytes a chunk of `estimate_dmin_stats` trials may take: per trial, a row of
#: sockets and its offset copy in `_sketches` (16 bytes a socket) and a row of column
#: images, its sorted copy and two masks (18 bytes a VN).
_CHUNK_BYTES = gf2._WALK_BUFFER_BYTES
#: Trials `_seed_words` seeds in one pass: at most 128 bytes a trial (its four
#: output words, four pool words and their temporaries), within _CHUNK_BYTES.
_SEED_BLOCK = _CHUNK_BYTES // 128
#: Most trials in one run: each trial's spawn key is one uint32 word.
_MAX_TRIALS = 1 << 32


@dataclass(frozen=True, eq=False)
class SampledCode:
    """One Tanner-graph instance: the VN on each edge socket, in CN order.

    layout says which CN owns which sockets. A CN may see one VN on several
    sockets (multi-edges are legal in both ensembles, and weight-1 codewords
    exist precisely because of them).
    """

    n: int
    layout: CnLayout
    sockets: np.ndarray

    def __post_init__(self):
        starts = self.layout.starts
        if self.sockets.shape != (starts[-1],):
            raise ValueError(f"{self.sockets.size} sockets, but the CNs have {starts[-1]}")
        if self.sockets.size and (self.sockets.min() < 0 or self.sockets.max() >= self.n):
            bad = np.flatnonzero((self.sockets < 0) | (self.sockets >= self.n))[0]
            i = int(np.searchsorted(starts, bad, "right")) - 1
            cn = self.sockets[starts[i]:starts[i + 1]]
            lo, hi = int(cn.min()), int(cn.max())
            raise ValueError(f"CN {i} has socket {lo if lo < 0 else hi}, outside "
                             f"the VN range 0..{self.n - 1}")
        self.sockets.flags.writeable = False

    @classmethod
    def from_cns(cls, n: int, types: Sequence,
                 cns: Sequence[Tuple[int, Sequence[int]]]) -> "SampledCode":
        """The code whose CNs, in order, are (type index, socket VNs) pairs."""
        types = tuple(types)
        for t, sockets in cns:
            if len(sockets) != types[t].s:
                raise ValueError(
                    f"type-{t} CN has {len(sockets)} sockets, expected {types[t].s}")
        layout = CnLayout(types, np.array([t for t, _ in cns], dtype=np.int64))
        return cls(n, layout, np.array([v for _, s in cns for v in s], dtype=np.int64))

    @property
    def types(self) -> Tuple:
        return self.layout.types

    @property
    def cns(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """(type index, socket VNs) of each CN, in order; see from_cns."""
        vns, starts = self.sockets.tolist(), self.layout.starts.tolist()
        return tuple((t, tuple(vns[a:b]))
                     for t, a, b in zip(self.layout.cn_type.tolist(), starts, starts[1:]))

    def __eq__(self, other):
        if not isinstance(other, SampledCode):
            return NotImplemented
        return (self.n, self.types, self.cns) == (other.n, other.types, other.cns)

    def columns(self, vns: Sequence[int]) -> List[int]:
        """The given VNs' columns of the stacked parity-check matrix, exactly.

        A column is an int over the stacked rows (local row i of CN c is bit
        `_row_starts(layout)[c] + i`): the XOR of the VN's sockets' local columns,
        so a VN seen twice on one SPC cancels, as over GF(2). A zero column is
        0, and equal columns are equal ints. Only the given VNs' sockets are read.
        """
        vns = np.asarray(vns, dtype=np.int64).tolist()
        if not vns:
            return []
        wanted = np.zeros(self.n, bool)
        wanted[vns] = True
        socket = np.flatnonzero(wanted[self.sockets])
        starts = self.layout.starts
        cn = np.searchsorted(starts, socket, "right") - 1
        local = [t.columns for t in self.types]
        cols = dict.fromkeys(vns, 0)
        for v, t, p, row in zip(self.sockets[socket].tolist(), self.layout.cn_type[cn].tolist(),
                                (socket - starts[cn]).tolist(),
                                _row_starts(self.layout)[cn].tolist()):
            cols[v] ^= local[t][p] << row
        return [cols[v] for v in vns]

    @functools.cached_property
    def sketch(self) -> np.ndarray:
        """Each VN's column image (see `_sketches`)."""
        return _sketches(self.layout, self.n, self.sockets[None])[0]


@functools.lru_cache(maxsize=8)
def _row_starts(layout: CnLayout) -> np.ndarray:
    """Each CN's first row in the stacked matrix, then the row count (`starts` for rows)."""
    rows = np.array([len(t.parity) for t in layout.types])[layout.cn_type]
    return np.concatenate(([0], np.cumsum(rows)))


@functools.lru_cache(maxsize=8)
def _socket_images(layout: CnLayout) -> np.ndarray:
    """A 64-bit linear image of each socket's column of the stacked matrix.

    Each stacked parity row gets a fixed pseudo-random word, and a socket's
    image is the XOR of the words of the rows its local column meets. The
    XOR of a VN's socket images is then the image of its column, linear
    over GF(2): a zero or repeated column has a zero or repeated image,
    while the converse fails only on a 64-bit collision.
    """
    first_row = _row_starts(layout)
    words = np.frombuffer(np.random.default_rng(0).bytes(8 * int(first_row[-1])), np.int64)
    images = np.zeros(layout.starts[-1], np.int64)
    for t, ctype in enumerate(layout.types):
        cns = np.flatnonzero(layout.cn_type == t)
        image = np.zeros((cns.size, ctype.s), np.int64)
        for i, row in enumerate(ctype.parity):
            image[:, [p for p in range(ctype.s) if row >> p & 1]] ^= \
                words[first_row[cns] + i, None]
        images[layout.starts[cns, None] + np.arange(ctype.s)] = image
    return images


def _sketches(layout: CnLayout, n: int, sockets: np.ndarray) -> np.ndarray:
    """The column images of the codes whose socket VNs are the rows of sockets, one
    row of n per code: a VN's image is the XOR of its sockets' (`_socket_images`).

    The scatter goes through the table's 1-D view, each row's sockets offset to
    its row: faster than a (row, VN) tuple index, most of all on a one-row table.
    """
    table = np.zeros((len(sockets), n), np.int64)
    np.bitwise_xor.at(table.reshape(-1), sockets + np.arange(0, table.size, n)[:, None],
                      _socket_images(layout))
    return table


# numpy's SeedSequence (numpy/random/bit_generator.pyx). Its k-th hash step, in
# mix_entropy with the A constants and in generate_state with the B constants, takes a
# word w to xorshift((w ^ C_k) * C_(k+1)), with C_k = INIT * MULT^k mod 2^32 and
# xorshift(x) = x ^ x >> 16; mix(x, y) = xorshift(MIX_L * x - MIX_R * y).
_MASK = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715


def _xorshift(words: np.ndarray) -> np.ndarray:
    words ^= words >> 16
    return words


@functools.lru_cache(maxsize=512)
def _constants(init: int, mult: int, steps: Tuple[int, ...]) -> np.ndarray:
    """The xor (C_k) and multiplier (C_(k+1)) columns of hash steps k in steps, read
    only. The steps depend on the word count alone, so calls share them; 512 holds
    those of the longest seed the CLI parses (447 words)."""
    consts = np.array([[[init * pow(mult, k + i, 1 << 32) & _MASK] for k in steps]
                       for i in (0, 1)], np.uint32)
    consts.flags.writeable = False
    return consts


def _hash(words: np.ndarray, init: int, mult: int, steps: Tuple[int, ...]) -> np.ndarray:
    """Hash step steps[r] of row r of words; a single row takes every step."""
    xor, times = _constants(init, mult, steps)
    words = words ^ xor
    words *= times
    return _xorshift(words)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_L * x - _MIX_R * y)


def _pool(words: Sequence[np.ndarray]) -> np.ndarray:
    """mix_entropy of the entropy words: the four pool words, one row each, whose
    columns are trials. Each word is a uint32 array of trials, and a one-element
    word broadcasts against the others.
    """
    words = list(words) + [np.zeros(1, np.uint32)] * (4 - len(words))
    pool = _hash(np.stack(np.broadcast_arrays(*words[:4])), _INIT_A, _MULT_A, (0, 1, 2, 3))
    k = 4
    for src in range(4):
        # word src's hash steps into the other words, in order; row src takes a
        # spare step and then gets its own word back
        mixed = _mix(pool, _hash(pool[src], _INIT_A, _MULT_A,
                                 tuple(k + dst - (dst > src) for dst in range(4))))
        mixed[src] = pool[src]
        pool, k = mixed, k + 3
    for word in words[4:]:
        pool = _mix(pool, _hash(word, _INIT_A, _MULT_A, tuple(range(k, k + 4))))
        k += 4
    return pool


def _state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """generate_state(n_words, uint32) of each column of pool: the pool words in turn."""
    return _hash(pool.take(np.arange(n_words) % 4, 0), _INIT_B, _MULT_B,
                 tuple(range(n_words)))


@functools.lru_cache(maxsize=1)
def _words_seed() -> type:
    """A seed sequence type that hands PCG64 one trial's `_seed_words` row, built on
    first use: importing numpy.random takes about 10-15 ms (2-vCPU VM) that a
    command drawing no code should not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def _seed_words(base: int, first: int, count: int) -> np.ndarray:
    """The PCG64 seed words of trials first .. first + count - 1 from base seed
    base, one row of four uint64 each: SeedSequence(t).generate_state(4, uint64)
    for t = SeedSequence(base, spawn_key=(i,)).generate_state(1, uint64)[0].

    Both levels are `_pool` then `_state`. The first level's entropy is base's
    32-bit words, little-endian and zero-padded to four (as numpy pads before a
    spawn key), then i; the second's is t's two words (a t below 2^32 has one,
    but its missing high word hashes as the zero that `_pool` pads with). Needs
    first + count <= _MAX_TRIALS.
    """
    base = operator.index(base)
    if base < 0:
        raise ValueError(f"seed must be a non-negative integer, got {base}")
    words = [base >> s & _MASK for s in range(0, max(base.bit_length(), 1), 32)]
    words = list(np.array(words + [0] * (4 - len(words)), np.uint32)[:, None])
    t = _state(_pool(words + [np.arange(first, first + count, dtype=np.uint32)]), 2)
    state = _state(_pool(t), 8)
    # each trial's eight words as four little-endian uint64
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


def _trial_rngs(base: int, trials: int) -> Iterator[np.random.Generator]:
    """Each trial's generator in turn, its words seeded a block at a time."""
    words_type = _words_seed()
    for first in range(0, trials, _SEED_BLOCK):
        for words in _seed_words(base, first, min(_SEED_BLOCK, trials - first)):
            yield np.random.Generator(np.random.PCG64(words_type(words)))


def _draw(plan: InstancePlan, rng: np.random.Generator, sockets: np.ndarray) -> None:
    """Write one draw of rng's socket VNs, in CN order, into sockets (plan.edges long).

    A VN-regular code keeps its first layer of `plan.socket_vns` in VN order and
    shuffles each further layer; an unstructured code shuffles them all.
    """
    sockets[:] = plan.socket_vns
    if isinstance(plan.spec, VnRegularEnsemble):
        for layer in sockets.reshape(plan.spec.q, plan.n)[1:]:
            rng.shuffle(layer)
    else:
        rng.shuffle(sockets)


def _sample(plan: InstancePlan, rng_seed: int) -> SampledCode:
    sockets = np.empty(plan.edges, np.int64)
    _draw(plan, np.random.default_rng(rng_seed), sockets)
    return SampledCode(plan.n, plan.layout, sockets)


def sample_vn_regular(plan: InstancePlan, rng_seed: int) -> SampledCode:
    """Draw one code: a block-diagonal CN layer plus q-1 column permutations.

    Layer 1 attaches CNs to consecutive VN indices in type order; each
    further layer applies an independent uniform permutation of the VNs.
    """
    if not isinstance(plan.spec, VnRegularEnsemble):
        raise ValueError(f"sample_vn_regular needs a VN-regular plan, got "
                         f"{type(plan.spec).__name__}")
    return _sample(plan, rng_seed)


def sample_unstructured(plan: InstancePlan, rng_seed: int) -> SampledCode:
    """Draw one configuration-model code: a uniform matching of edge sockets."""
    if not isinstance(plan.spec, UnstructuredEnsemble):
        raise ValueError(f"sample_unstructured needs an unstructured plan, got "
                         f"{type(plan.spec).__name__}")
    return _sample(plan, rng_seed)


def global_parity_rows(code: SampledCode) -> List[int]:
    """Rows of the stacked parity-check matrix over the N VN columns.

    A VN hitting two local positions of the same row cancels over GF(2).
    """
    layout = code.layout
    supports = [[[p for p in range(t.s) if row >> p & 1] for row in t.parity]
                for t in layout.types]
    vns = code.sockets.tolist()
    rows = []
    for t, start in zip(layout.cn_type.tolist(), layout.starts.tolist()):
        for support in supports[t]:
            row = 0
            for p in support:
                row ^= 1 << vns[start + p]
            rows.append(row)
    return rows


def min_distance(code: SampledCode, at_most: Optional[int] = None) -> Union[int, float]:
    """Exact minimum distance: the least nonzero weight of the null space, by
    `gf2.min_weight` (Brouwer–Zimmermann over disjoint information sets, which
    hands over to the full span walk once its cost would pass one walk's, so
    that a large span never takes much more than two walks' time).

    With at_most, the search stops once d <= at_most is settled: the result
    is <= at_most exactly when the minimum distance is (see `gf2.min_weight`).
    Returns math.inf for the zero code. Refuses (DimensionLimitError) a code
    dimension over DEFAULT_K_LIMIT: first from k >= n - (stacked rows), read
    from the layout before any column is built (the error's dim is then that
    lower bound), then from the rank of the n exact columns, which one pass
    of `gf2.nullspace_basis` reduces to the null space; no row is built. The
    pass pops the columns as it reads them, so none outlives its reduction.
    """
    k_least = code.n - int(_row_starts(code.layout)[-1])
    if k_least > DEFAULT_K_LIMIT:
        raise DimensionLimitError(k_least, DEFAULT_K_LIMIT, "codeword enumeration")
    cols = code.columns(range(code.n - 1, -1, -1))
    basis = gf2.nullspace_basis((cols.pop() for _ in range(code.n)), DEFAULT_K_LIMIT)
    return gf2.min_weight(basis, code.n, at_most)


def has_weight_one_codeword(code: SampledCode) -> bool:
    """True iff some column of the stacked parity-check matrix is zero: its VN
    touches no CN, or every CN row sees it an even number of times.

    Only the VNs whose column sketch is zero have their exact columns built,
    so no parity row is built.
    """
    return 0 in code.columns(np.flatnonzero(_suspects(code.sketch[None], False)))


def wilson_interval(count: int, total: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial fraction."""
    if total == 0:
        return (0.0, 1.0)
    p, z = count / total, 1.959963984540054  # two-sided 95% normal quantile
    z2 = z * z
    denom = 1 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z2 / (4 * total * total)) / denom
    lo = 0.0 if count == 0 else max(0.0, center - half)
    hi = 1.0 if count == total else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class DminStats:
    """Monte Carlo counts of small-minimum-distance events.

    count_le_threshold counts min distance <= floor(threshold_alpha * n). A
    threshold <= 2 is decided exactly from the parity-check columns whatever the
    code dimension. Above that, a trial with a weight-1 codeword counts as <=
    the threshold; any other whose dimension exceeded the enumeration limit
    (from n minus its stacked rows, or else from the rank of its columns) is in
    count_k_over_limit and excluded from that fraction's denominator.
    """

    trials: int
    n: int
    threshold_alpha: float
    threshold_d: int
    count_eq_one: int
    count_le_threshold: int
    count_k_over_limit: int
    wilson_ci_eq_one: Tuple[float, float]
    wilson_ci_le_threshold: Tuple[float, float]
    seed: int


def _suspects(table: np.ndarray, shared: bool) -> np.ndarray:
    """Marks, in each row of column images (see `_sketches`), the VNs whose image
    is zero or, if shared, equal to another VN's in that row: by linearity, every
    VN with a zero or repeated column is marked."""
    marked = table == 0
    if shared:
        ordered = np.sort(table, axis=1)
        same = ordered[:, 1:] == ordered[:, :-1]
        for r in np.flatnonzero(same.any(axis=1)):
            marked[r] |= np.isin(table[r], ordered[r, 1:][same[r]])
    return marked


def _run_trial(code: SampledCode, threshold_d: int) -> Tuple[bool, Optional[bool]]:
    """(weight-1 found, min distance <= threshold or None if over limit) of one
    code on its own: `_decide` on the suspects of its own sketch."""
    return _decide(code, np.flatnonzero(_suspects(code.sketch[None], threshold_d == 2)),
                   threshold_d)


def _decide(code: SampledCode, suspects: np.ndarray,
            threshold_d: int) -> Tuple[bool, Optional[bool]]:
    """`_run_trial`, given the code's suspect VNs (`_suspects` at threshold_d).

    Weight 1, and a threshold <= 2, are read from the columns: a weight-1
    codeword is a zero column and a weight-2 one a repeated column. The column
    sketch clears most codes; only the VNs with a zero image (or, at threshold
    2, a shared one) have their exact columns built and compared, once.

    A larger threshold without a weight-1 hit then asks `min_distance` whether
    d <= threshold, which refuses a code whose row count already puts k over
    the limit before building any column, and stops its search as soon as the
    answer is settled.
    """
    cols = code.columns(suspects)
    one = 0 in cols
    if threshold_d <= 2 or one:
        return one, threshold_d >= 1 and one or threshold_d == 2 and len(set(cols)) < len(cols)
    try:
        return one, min_distance(code, threshold_d) <= threshold_d
    except DimensionLimitError:
        return one, None


def estimate_dmin_stats(spec: Union[VnRegularEnsemble, UnstructuredEnsemble], n: int,
                        trials: int, alpha_threshold: float, rng_seed: int) -> DminStats:
    """Sample `trials` codes and count weight-1 / small-distance events.

    Per-trial seeds derive from rng_seed, so results are identical across
    runs. Trials go in chunks that fit _CHUNK_BYTES (at least one trial each):
    each trial is drawn into a row of the chunk's socket table, and one sketch
    table and one suspect rule screen the whole chunk. At a threshold <= 2 only
    the rows with a suspect VN become a `SampledCode` for `_decide`, since any
    other is (False, False); above 2 every row does.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be at most 2**32 (a one-word spawn key each), "
                         f"got {trials}")
    plan = validate_finite_instance(spec, n)
    if plan.edges > MAX_EDGES:
        raise ValueError(f"n = {n} gives {plan.edges} edges, more than the cap of {MAX_EDGES}")
    threshold_d = math.floor(alpha_threshold * n)
    chunk = max(1, _CHUNK_BYTES // (16 * plan.edges + 18 * n))
    rngs, results = _trial_rngs(rng_seed, trials), []
    for first in range(0, trials, chunk):
        sockets = np.empty((min(chunk, trials - first), plan.edges), np.int64)
        for row, rng in zip(sockets, rngs):
            _draw(plan, rng, row)
        marks = _suspects(_sketches(plan.layout, n, sockets), threshold_d == 2)
        results += [_decide(SampledCode(n, plan.layout, sockets[r]), np.flatnonzero(marks[r]),
                            threshold_d)
                    for r in np.flatnonzero(marks.any(axis=1) | (threshold_d > 2))]
    eq_one = sum(1 for one, _ in results if one)
    over = sum(1 for _, le in results if le is None)
    le_count = sum(1 for _, le in results if le)
    measurable = trials - over
    return DminStats(
        trials=trials,
        n=n,
        threshold_alpha=alpha_threshold,
        threshold_d=threshold_d,
        count_eq_one=eq_one,
        count_le_threshold=le_count,
        count_k_over_limit=over,
        wilson_ci_eq_one=wilson_interval(eq_one, trials),
        wilson_ci_le_threshold=wilson_interval(le_count, measurable),
        seed=rng_seed,
    )
