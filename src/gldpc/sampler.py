"""Finite code instances sampled from either ensemble, with exact checks.

Sampling is deterministic given a 64-bit seed (numpy PCG64 seeded through
SeedSequence; each trial's seed is derived from the base seed with its own
spawn key, so Monte Carlo aggregates are identical across runs).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import gf2
from .ensemble import (
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
#: degree at small n is otherwise unbounded. A trial's draw costs about linear in the
#: edges (2-vCPU VM, SPC-3 at n = 3: 0.13 s and 40 MB at 90 000 edges, 2.1 s and 91 MB
#: at 10^6); 90 000 is (3,6) at the largest --n, 30 000.
MAX_EDGES = 90_000


@dataclass(frozen=True)
class SampledCode:
    """One Tanner-graph instance: per-CN ordered socket lists over VN indices.

    Socket lists may repeat a VN (multi-edges are legal in both ensembles,
    and weight-1 codewords exist precisely because of them).
    """

    n: int
    types: Tuple  # CheckNodeType per type index
    cns: Tuple[Tuple[int, Tuple[int, ...]], ...]

    def __post_init__(self):
        sizes = [t.s for t in self.types]
        for i, (t, sockets) in enumerate(self.cns):
            if len(sockets) != sizes[t]:
                raise ValueError(
                    f"type-{t} CN has {len(sockets)} sockets, expected {sizes[t]}"
                )
            lo, hi = min(sockets), max(sockets)
            if lo < 0 or hi >= self.n:
                raise ValueError(f"CN {i} has socket {lo if lo < 0 else hi}, outside "
                                 f"the VN range 0..{self.n - 1}")

    @functools.cached_property
    def parity_rows(self) -> Tuple[int, ...]:
        """The stacked parity-check rows (`global_parity_rows`), built once."""
        return tuple(global_parity_rows(self))

    @functools.cached_property
    def columns(self) -> Tuple[int, ...]:
        """The stacked parity-check matrix's columns, one bitmask per VN over the
        rows of `parity_rows`, built from the socket lists with one XOR per socket.
        """
        layout = [(ctype.columns, len(ctype.parity)) for ctype in self.types]
        cols = [0] * self.n
        offset = 0
        for t, sockets in self.cns:
            patterns, n_rows = layout[t]
            for v, pattern in zip(sockets, patterns):
                cols[v] ^= pattern << offset
            offset += n_rows
        return tuple(cols)


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _trial_seed(base_seed: int, trial: int) -> int:
    child = np.random.SeedSequence(base_seed, spawn_key=(trial,))
    return int(child.generate_state(1, np.uint64)[0])


def _slice(types: Tuple, n: int, sockets: List[int], counts: Sequence[int]) -> SampledCode:
    """Cut `sockets` into consecutive CNs: counts[i] CNs of type i mod len(types)."""
    cns: List[Tuple[int, Tuple[int, ...]]] = []
    pos = 0
    for i, count in enumerate(counts):
        t = i % len(types)
        s = types[t].s
        for _ in range(count):
            cns.append((t, tuple(sockets[pos:pos + s])))
            pos += s
    return SampledCode(n=n, types=types, cns=tuple(cns))


def sample_vn_regular(plan: InstancePlan, rng_seed: int) -> SampledCode:
    """Draw one code: a block-diagonal CN layer plus q-1 column permutations.

    Layer 1 attaches CNs to consecutive VN indices in type order; each
    further layer applies an independent uniform permutation of the VNs.
    """
    spec = plan.spec
    if not isinstance(spec, VnRegularEnsemble):
        raise ValueError(f"sample_vn_regular needs a VN-regular plan, got "
                         f"{type(spec).__name__}")
    rng = _rng_for(rng_seed)
    sockets = list(range(plan.n))
    for _ in range(spec.q - 1):
        sockets += rng.permutation(plan.n).tolist()
    per_layer = [c // spec.q for c in plan.cn_counts]
    return _slice(spec.mixture.types, plan.n, sockets, per_layer * spec.q)


def sample_unstructured(plan: InstancePlan, rng_seed: int) -> SampledCode:
    """Draw one configuration-model code: a uniform matching of edge sockets."""
    spec = plan.spec
    if not isinstance(spec, UnstructuredEnsemble):
        raise ValueError(f"sample_unstructured needs an unstructured plan, got "
                         f"{type(spec).__name__}")
    rng = _rng_for(rng_seed)
    degrees = [d for d, count in plan.vn_degree_counts for _ in range(count)]
    matched = rng.permutation(np.repeat(np.arange(plan.n), degrees)).tolist()
    return _slice(spec.mixture.types, plan.n, matched, plan.cn_counts)


def global_parity_rows(code: SampledCode) -> List[int]:
    """Rows of the stacked parity-check matrix over the N VN columns.

    A VN hitting two local positions of the same row cancels over GF(2).
    """
    rows = []
    for t, sockets in code.cns:
        for local_row in code.types[t].parity:
            row = 0
            for p, v in enumerate(sockets):
                if (local_row >> p) & 1:
                    row ^= 1 << v
            rows.append(row)
    return rows


def min_distance(code: SampledCode) -> Union[int, float]:
    """Exact minimum distance: least nonzero weight in `gf2.span_weight_histogram`.

    Returns math.inf for the zero code; refuses (DimensionLimitError) when
    the code dimension exceeds DEFAULT_K_LIMIT, before the null space is built.
    """
    basis = gf2.nullspace_basis(code.parity_rows, code.n, DEFAULT_K_LIMIT)
    if not basis:
        return math.inf
    hist = gf2.span_weight_histogram(basis, code.n)
    return next(w for w in range(1, code.n + 1) if hist[w])


def has_weight_one_codeword(code: SampledCode) -> bool:
    """True iff some column of the stacked parity-check matrix is zero: its VN
    touches no CN, or every CN row sees it an even number of times.
    """
    covered = 0
    for row in code.parity_rows:
        covered |= row
    return covered != (1 << code.n) - 1


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
    code dimension; above that, trials whose dimension exceeded the enumeration
    limit are reported in count_k_over_limit and excluded from that fraction's
    denominator.
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


def _run_trial(code: SampledCode, threshold_d: int) -> Tuple[bool, Optional[bool]]:
    """(weight-1 found, min distance <= threshold or None if over limit).

    A threshold <= 2 is read from the columns: a weight-1 codeword is a zero
    column and a weight-2 one a repeated column, so no row is built or reduced.
    """
    if threshold_d <= 2:
        cols = code.columns
        one = 0 in cols
        if threshold_d < 1:
            return one, False
        return one, one or (threshold_d == 2 and len(set(cols)) < len(cols))
    one = has_weight_one_codeword(code)
    if one:
        return one, True
    try:
        return one, min_distance(code) <= threshold_d
    except DimensionLimitError:
        return one, None


def estimate_dmin_stats(spec: Union[VnRegularEnsemble, UnstructuredEnsemble], n: int,
                        trials: int, alpha_threshold: float, rng_seed: int) -> DminStats:
    """Sample `trials` codes and count weight-1 / small-distance events.

    Per-trial seeds derive from rng_seed, so results are identical across
    runs.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    plan = validate_finite_instance(spec, n)
    if plan.edges > MAX_EDGES:
        raise ValueError(f"n = {n} gives {plan.edges} edges, more than the cap of {MAX_EDGES}")
    draw = sample_vn_regular if isinstance(spec, VnRegularEnsemble) else sample_unstructured
    threshold_d = math.floor(alpha_threshold * n)
    results = [_run_trial(draw(plan, _trial_seed(rng_seed, i)), threshold_d)
               for i in range(trials)]
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
