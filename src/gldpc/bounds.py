"""Small-weight codeword analysis for the unstructured ensemble.

Exact coefficients of products of WEF powers, their large-size Poisson-type
limits, the limiting probability of a weight-1 codeword, the union bound on
sublinear minimum distance, and the finite-length probability bound for the
VN-regular ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import growth
from .ensemble import (
    CnMixture,
    UnstructuredEnsemble,
    VnRegularEnsemble,
    degree_two_edge_fraction,
    validate_finite_instance,
    weight_two_density,
)
from .polywef import poly_mul, poly_pow


def product_pow_coef(polys: Sequence[Sequence[int]], counts: Sequence[int],
                     degree: int) -> int:
    """Exact coefficient of x**degree in prod_t polys[t] ** counts[t].

    Every intermediate product is truncated at `degree`, so counts in the
    millions stay cheap.
    """
    if len(polys) != len(counts):
        raise ValueError("polys and counts must have equal length")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    acc: Tuple[int, ...] = (1,)
    for p, c in zip(polys, counts):
        acc = poly_mul(acc, poly_pow(p, c, trunc=degree), trunc=degree)
    return acc[degree] if degree < len(acc) else 0


def even_coef_exact(cn_counts: Sequence[int], mixture: CnMixture, j: int) -> int:
    """Exact number of ways to satisfy all CNs with total local weight 2j."""
    if j < 1:
        raise ValueError(f"j must be positive, got {j}")
    return product_pow_coef(
        [t.wef.coeffs for t in mixture.types], list(cn_counts), 2 * j
    )


def even_coef_limit(edges: int, density: float, j: int) -> float:
    """Large-size limit (edges * density / 2)**j / j! of the 2j coefficient;
    ValueError when it lies beyond the float range."""
    if j < 1:
        raise ValueError(f"j must be positive, got {j}")
    if edges <= 0:
        raise ValueError("edge count must be positive")
    if density < 0:
        raise ValueError("weight-2 density cannot be negative")
    if density == 0:  # the limit is 0 at any size, even past the float range
        return 0.0
    try:
        half = edges * (density / 2.0)  # float(edges) or this product may overflow
        if half == math.inf:
            raise OverflowError
        try:
            return half ** j / math.factorial(j)
        except OverflowError:  # half**j or j! left the float range; the limit may not
            return math.exp(j * math.log(half) - math.lgamma(j + 1))
    except OverflowError:
        raise ValueError(f"the limit of the weight-{2 * j} coefficient (j={j}) at "
                         f"{edges} edges exceeds the float range") from None


@dataclass(frozen=True)
class CoefConvergence:
    """One row of the exact-vs-limit coefficient table."""

    n: int
    cn_total: int
    edges: int
    j: int
    exact_coef: int
    limit_value: float
    ratio: float


def even_coef_convergence(
    spec: UnstructuredEnsemble, j: int, n_list: Sequence[int]
) -> List[CoefConvergence]:
    """Exact coefficient, its limit, and their ratio for each block length.

    The ratio approaches 1 from either side as the instance grows; it is
    NaN when the limit is zero (no minimum-distance-2 CN types).
    """
    density = weight_two_density(spec.mixture)
    rows = []
    for n in n_list:
        plan = validate_finite_instance(spec, n)
        limit = even_coef_limit(plan.edges, density, j)
        exact = even_coef_exact(plan.cn_counts, spec.mixture, j)
        try:  # exact may pass the float range where the ratio does not
            ratio = float(exact / Fraction(limit)) if limit > 0 else math.nan
        except OverflowError:
            raise ValueError(f"the exact/limit ratio for j={j} at {plan.edges} edges "
                             "exceeds the float range") from None
        rows.append(
            CoefConvergence(
                n=n,
                cn_total=plan.cn_total,
                edges=plan.edges,
                j=j,
                exact_coef=exact,
                limit_value=limit,
                ratio=ratio,
            )
        )
    return rows


def prob_min_distance_one(spec: UnstructuredEnsemble) -> float:
    """Limiting probability that a sampled code has a weight-1 codeword.

    1 - exp(-lambda'(0) * density / 2); zero when either factor vanishes.
    """
    x = degree_two_edge_fraction(spec) * weight_two_density(spec.mixture)
    return -math.expm1(-x / 2.0)


@dataclass(frozen=True)
class UnionBound:
    """Union bound on Pr(min distance <= critical ratio * n).

    vacuous is True when lambda'(0) * density >= 1, where the underlying
    series diverges and the bound carries no information; value is None
    in that case.
    """

    value: Optional[float]
    vacuous: bool
    product: float


def min_distance_prob_bound(spec: UnstructuredEnsemble) -> UnionBound:
    """Closed form 1/sqrt(1 - lambda'(0) * density) - 1, or a vacuous tag."""
    x = degree_two_edge_fraction(spec) * weight_two_density(spec.mixture)
    if x >= 1.0:
        return UnionBound(value=None, vacuous=True, product=x)
    return UnionBound(value=1.0 / math.sqrt(1.0 - x) - 1.0, vacuous=False, product=x)


def finite_length_log_terms(
    spec: VnRegularEnsemble, n: int, d0: int
) -> List[Tuple[int, float]]:
    """Log of each weight-d term of the finite-length probability bound.

    Weights whose relative value reaches the tilt domain limit contribute
    nothing (their bound exponent diverges to -inf) and are omitted.
    """
    if not 1 <= d0 < n:
        raise ValueError(f"need 1 <= d0 < n, got d0={d0}, n={n}")
    validate_finite_instance(spec, n)
    limit = growth.edge_weight_limit(spec.mixture)
    q = spec.q
    ds = [d for d in range(1, d0 + 1) if d / n < limit]
    if not ds:
        return []
    alphas = np.array([d / n for d in ds])
    g = growth.growth_rate_grid(spec, alphas)
    slack = math.log(d0) + 0.5 * (q - 1) * np.log(8.0 * n * alphas * (1.0 - alphas))
    return list(zip(ds, (n * g + slack).tolist()))


def finite_length_prob_bound(spec: VnRegularEnsemble, n: int, d0: int) -> float:
    """Upper bound on Pr(min distance <= d0) at block length n, clamped to 1.

    max over d of exp(n * growth_rate(d/n) + log(d0 * (8 n a (1-a))^((q-1)/2))),
    evaluated in the log domain.
    """
    terms = finite_length_log_terms(spec, n, d0)
    if not terms:
        return 0.0
    top = max(t for _, t in terms)
    return 1.0 if top >= 0 else math.exp(top)
