"""Growth rate of the ensemble-average weight spectrum and its first root.

All logs are natural (nats per symbol). The growth curve is parametrized by
the log-tilt t = log z: the relative weight alpha(t), its slope and the
growth rate G(t) are all explicit in t. WEF sums are evaluated in the log
domain, so astronomically large coefficients and tilts beyond 1e300 stay
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ensemble import (
    CheckNodeType,
    CnMixture,
    VnRegularEnsemble,
    design_rate,
    to_fraction,
    weight_two_density_exact,
)

VERDICT_EXISTS = "exists"
VERDICT_NOT_EXISTS = "not_exists_degree2_weight2_density_ge_1"
VERDICT_NO_SIGN_CHANGE = "no_sign_change_found"

# Bracket for inverting alpha(t); exp(+-700) stays inside float range.
_LOG_Z_LO = -700.0
_LOG_Z_HI = 700.0
# Width in t at which an inverted tilt counts as exact.
_TILT_TOL = 1e-13
# The scan starts and ends this close (in relative weight) to the domain ends.
_TAIL = 1e-9
# A scanned G counts as signed only beyond this many rounding units of the
# terms it is summed from.
_FLOOR_ULPS = 64
# Safety cap; safeguarded Newton needs far fewer steps.
_MAX_STEPS = 100
# find_critical_ratio's scan size, and its root bracket width in relative weight.
_SCAN_POINTS = 2200
_ROOT_TOL = 1e-10


@dataclass(frozen=True)
class GrowthCurve:
    """Sampled growth-rate curve plus the located critical weight ratio.

    critical_ratio is the smallest positive root of the growth rate when a
    sign change was located (root_located True). When the growth rate stays
    negative on the whole domain the ratio saturates at the domain end.

    Solver diagnostics: bracket is the final interval in relative weight
    around a located root and residual the growth rate at the reported
    ratio (both None when no root was located); sign_changes counts the
    sign changes of the scanned curve, ignoring values within rounding
    error of zero.
    """

    rel_weights: Tuple[float, ...]
    growth: Tuple[float, ...]
    critical_ratio: Optional[float]
    verdict: str
    root_located: bool
    bracket: Optional[Tuple[float, float]] = None
    residual: Optional[float] = None
    sign_changes: int = 0


@lru_cache(maxsize=128)
def _log_tables(m: CnMixture):
    """Per-type arrays over the nonzero weights u >= 1: u, u^2, log A_u, and
    the edge weight rho_t/s_t. A_0 = 1 is kept apart (see _tilt_curve)."""
    tables = []
    for cn, r in zip(m.types, m.rho):
        nonzero = [u for u, a in enumerate(cn.wef.coeffs) if a and u]
        us = np.array(nonzero, dtype=float)
        logs = np.array([math.log(cn.wef.coeffs[u]) for u in nonzero])
        tables.append((us, us * us, logs, float(r) / cn.s))
    return tables


def edge_weight_limit(m: CnMixture) -> float:
    """Supremum of the per-edge tilted weight: sum_t (rho_t/s_t) deg A_t."""
    return float(sum(r * t.wef.degree / t.s for t, r in zip(m.types, m.rho)))


def _tilt_curve(m: CnMixture, t: np.ndarray):
    """sum_i w_i log A_i(e^t), alpha(t) and alpha'(t) at an array of log-tilts.

    Sums run over the CN types i, with w_i = rho_i/s_i: alpha =
    sum_i w_i E_i[u] is the tilted mean weight per edge and alpha' =
    sum_i w_i Var_i(u), under the tilted law A_u e^(u t) / A(e^t). Each
    type uses one buffer e_u = exp(log A_u + u t - top) over its weights
    u >= 1; since A_0 = 1, A e^-top = 1 + rest with rest = sum e_u +
    expm1(-top), and log A = top + log1p(rest) stays accurate where log A
    is tiny.
    """
    log_a = np.zeros_like(t)
    alpha = np.zeros_like(t)
    slope = np.zeros_like(t)
    for us, us2, logs, w in _log_tables(m):
        e = np.multiply.outer(us, t)
        e += logs[:, None]
        top = np.maximum(e.max(axis=0), 0.0)
        e -= top
        np.exp(e, out=e)
        rest = e.sum(axis=0) + np.expm1(-top)
        mean = (us @ e) / (1.0 + rest)
        log_a += w * (top + np.log1p(rest))
        alpha += w * mean
        slope += w * ((us2 @ e) / (1.0 + rest) - mean * mean)
    return log_a, alpha, slope


def _growth_terms(q: int, alpha: np.ndarray, t: np.ndarray, log_a: np.ndarray):
    """The terms of G = (1-q) h(alpha) - q alpha t + q sum_i w_i log A_i(e^t)."""
    ent = -alpha * np.log(alpha) - (1 - alpha) * np.log1p(-alpha)
    return (1 - q) * ent, -q * alpha * t, q * log_a


def _growth_curve(spec: VnRegularEnsemble, t: np.ndarray):
    """alpha(t), G(t), dG/dt and the rounding-error floor of G at log-tilts t.

    dG/dt = [(1-q) log((1-alpha)/alpha) - q t] alpha'(t): the t-derivative
    of the tilt terms cancels because d/dt sum_i w_i log A_i(e^t) = alpha.
    """
    q = spec.q
    log_a, alpha, slope = _tilt_curve(spec.mixture, t)
    terms = _growth_terms(q, alpha, t, log_a)
    floor = _FLOOR_ULPS * np.finfo(float).eps * sum(np.abs(x) for x in terms)
    dg = ((1 - q) * (np.log1p(-alpha) - np.log(alpha)) - q * t) * slope
    return alpha, sum(terms), dg, floor


def _bracketed_newton(f, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Shrink brackets [lo, hi] around roots of f, elementwise.

    f maps an array of points to (value, slope), with value < 0 at lo and
    value >= 0 at hi. A Newton step that leaves its bracket, or is not
    shorter than half the previous step, is replaced by bisection. A Newton
    step shorter than tol/2 is lengthened to tol/2, so the next point lands
    just past the root and the bracket closes from both sides. Returns the
    brackets once each is at most tol wide or cannot be split further.
    """
    x = 0.5 * (lo + hi)
    last = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            value, slope = f(x)
            below = value < 0
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            mid = 0.5 * (lo + hi)
            if not np.any((hi - lo > tol) & (lo < mid) & (mid < hi)):
                break
            step = value / slope
            short = np.abs(step) < 0.5 * tol
            nxt = x - np.where(short, np.copysign(0.5 * tol, step), step)
            newton = (np.abs(step) < 0.5 * last) & (lo < nxt) & (nxt < hi)
            # only a bisection may follow a lengthened step, so a flat
            # stretch is not crossed tol/2 at a time
            last = np.where(newton, np.where(short, 0.0, np.abs(step)), np.abs(mid - x))
            x = np.where(newton, nxt, mid)
    return lo, hi


def tilted_edge_weight(m: CnMixture, z: float) -> float:
    """Mean local-codeword weight per edge at exponential tilt z.

    Strictly increasing in z, from 0 up to edge_weight_limit(m).
    """
    if z <= 0:
        raise ValueError(f"tilt must be positive, got {z}")
    return float(_tilt_curve(m, np.array([math.log(z)]))[1][0])


def _log_tilt_for(m: CnMixture, alpha: np.ndarray) -> np.ndarray:
    """Log-tilts t with alpha(t) = alpha, elementwise, by safeguarded Newton."""

    def f(t):
        _, a, slope = _tilt_curve(m, t)
        return a - alpha, slope

    lo, hi = _bracketed_newton(
        f, np.full(alpha.shape, _LOG_Z_LO), np.full(alpha.shape, _LOG_Z_HI), _TILT_TOL
    )
    return 0.5 * (lo + hi)


def tilt_for_edge_weight(m: CnMixture, alpha: float) -> float:
    """Inverse of tilted_edge_weight."""
    limit = edge_weight_limit(m)
    if not 0 < alpha < limit:
        raise ValueError(
            f"target weight fraction must lie in (0, {limit}), got {alpha}"
        )
    return math.exp(float(_log_tilt_for(m, np.array([alpha]))[0]))


def growth_rate_grid(spec: VnRegularEnsemble, alphas: Sequence[float]) -> np.ndarray:
    """Growth rate (nats per symbol) at each relative weight in (0, limit)."""
    m, q = spec.mixture, spec.q
    a = np.asarray(alphas, dtype=float)
    limit = edge_weight_limit(m)
    if a.size and (a.min() <= 0 or a.max() >= limit):
        raise ValueError(
            f"relative weights must lie in (0, {limit}), got range "
            f"[{a.min()}, {a.max()}]"
        )
    t = _log_tilt_for(m, a)
    return sum(_growth_terms(q, a, t, _tilt_curve(m, t)[0]))


def growth_rate(spec: VnRegularEnsemble, alpha: float) -> float:
    """Growth rate of the expected codeword count at relative weight alpha."""
    return float(growth_rate_grid(spec, [alpha])[0])


def _scan_ends(m: CnMixture) -> Tuple[float, float]:
    """Log-tilts where alpha is about _TAIL above 0 and _TAIL below its limit.

    In closed form from each type's lowest and highest nonzero WEF terms:
    alpha_t ~ w d A_d e^(d t) as t -> -inf, and limit_t - alpha_t ~
    w g (A_(D-g) / A_D) e^(-g t) as t -> +inf, where D is the top weight
    and g the gap below it (A_0 = 1 when D is the only nonzero weight).
    """
    lows, highs = [], []
    for us, _, logs, w in _log_tables(m):
        d = us[0]
        lows.append((math.log(_TAIL / (w * d)) - logs[0]) / d)
        below_u, below_log = (us[-2], logs[-2]) if len(us) > 1 else (0.0, 0.0)
        gap = us[-1] - below_u
        highs.append((math.log(w * gap / _TAIL) + below_log - logs[-1]) / gap)
    return min(lows), max(highs)


def find_critical_ratio(spec: VnRegularEnsemble) -> GrowthCurve:
    """Locate the smallest positive root of the growth rate.

    The curve is scanned on _SCAN_POINTS log-tilts, evenly
    spaced between the points where alpha is 1e-9 above zero and 1e-9 below
    its limit (even steps in t are log-spaced in alpha near both ends). A
    scanned value counts as signed only when it clears the rounding-error
    floor of the terms it is summed from; the root is bracketed by the last
    negative and first positive value and refined by safeguarded Newton in
    t until the bracket is about _ROOT_TOL wide in alpha. The reported ratio
    sits at the secant point of G across the final bracket.

    Existence is decided analytically: for VN degree q > 2 a positive
    critical ratio always exists; for q = 2 it exists exactly when the
    weight-2 density is below 1. When the growth rate is certified negative
    at every scanned point the ratio is reported as the domain limit with
    root_located False (the expected codeword count decays at every
    scanned relative weight). When no negative-to-positive change clears
    the floor otherwise, the verdict is no_sign_change_found and the ratio
    None.
    """
    m, q = spec.mixture, spec.q
    t = np.linspace(*_scan_ends(m), _SCAN_POINTS)
    alpha, g, _, floor = _growth_curve(spec, t)
    sign = np.where(g > floor, 1, np.where(g < -floor, -1, 0))
    signed = sign[sign != 0]
    scan = dict(
        rel_weights=tuple(alpha.tolist()),
        growth=tuple(g.tolist()),
        sign_changes=int(np.count_nonzero(signed[1:] != signed[:-1])),
    )

    if q == 2 and weight_two_density_exact(m) >= 1:
        return GrowthCurve(
            **scan, critical_ratio=None, verdict=VERDICT_NOT_EXISTS, root_located=False
        )

    if (sign < 0).all():
        return GrowthCurve(
            **scan,
            critical_ratio=edge_weight_limit(m),
            verdict=VERDICT_EXISTS,
            root_located=False,
        )
    positive = np.flatnonzero(sign > 0)
    before = np.flatnonzero(sign[:positive[0]]) if positive.size else positive
    if not before.size:
        # G is within rounding error of 0 wherever it could change sign, so
        # neither a root nor decay can be certified; report that, not a guess
        return GrowthCurve(
            **scan, critical_ratio=None, verdict=VERDICT_NO_SIGN_CHANGE, root_located=False
        )
    i, j = int(before[-1]), int(positive[0])

    # tolerance in t that makes the final bracket about _ROOT_TOL wide in alpha
    tol = _ROOT_TOL * (t[j] - t[i]) / (alpha[j] - alpha[i])
    lo, hi = _bracketed_newton(
        lambda x: _growth_curve(spec, x)[1:3], t[i:i + 1], t[j:j + 1], tol
    )
    # one point per call, as in the solver, so the end signs are the ones it saw
    (a_lo, g_lo), (a_hi, g_hi) = (_growth_curve(spec, x)[:2] for x in (lo, hi))
    root = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    a_root, g_root = _growth_curve(spec, root)[:2]
    return GrowthCurve(
        **scan,
        critical_ratio=float(a_root[0]),
        verdict=VERDICT_EXISTS,
        root_located=True,
        bracket=(float(a_lo[0]), float(a_hi[0])),
        residual=float(g_root[0]),
    )


@dataclass(frozen=True)
class SweepPoint:
    gamma1: float
    rho1: float
    rate: float
    critical_ratio: Optional[float]
    verdict: str
    delta_gv: Optional[float]


def _sweep_point(type_a: CheckNodeType, type_b: CheckNodeType, q: int,
                 gamma1: Fraction) -> SweepPoint:
    # node-perspective pair (gamma1, 1-gamma1) -> edge-perspective rho
    if gamma1 == 0:
        mixture = CnMixture(types=(type_b,), rho=(Fraction(1),))
        rho1 = Fraction(0)
    elif gamma1 == 1:
        mixture = CnMixture(types=(type_a,), rho=(Fraction(1),))
        rho1 = Fraction(1)
    else:
        weights = [gamma1 * type_a.s, (1 - gamma1) * type_b.s]
        total = weights[0] + weights[1]
        mixture = CnMixture(
            types=(type_a, type_b), rho=tuple(w / total for w in weights)
        )
        rho1 = weights[0] / total
    spec = VnRegularEnsemble(mixture=mixture, q=q)
    rate = design_rate(spec)
    curve = find_critical_ratio(spec)
    delta = gv_relative_distance(rate) if 0 < rate < 1 else None
    return SweepPoint(
        gamma1=float(gamma1),
        rho1=float(rho1),
        rate=rate,
        critical_ratio=curve.critical_ratio,
        verdict=curve.verdict,
        delta_gv=delta,
    )


def two_type_sweep(
    type_a: CheckNodeType,
    type_b: CheckNodeType,
    q: int,
    gamma_grid: Sequence[Fraction | float],
) -> List[SweepPoint]:
    """Rate / critical-ratio curve as the node fraction of type_a sweeps [0, 1].

    One point per grid value, in grid order.
    """
    grid = [to_fraction(g) for g in gamma_grid]
    if any(g < 0 or g > 1 for g in grid):
        raise ValueError("node-fraction grid values must lie in [0, 1]")
    return [_sweep_point(type_a, type_b, q, g) for g in grid]


def gv_relative_distance(rate: float) -> float:
    """Gilbert-Varshamov relative distance: solve rate = 1 - h2(delta).

    Uses base-2 entropy as is conventional for the GV curve; bisection
    stops at a bracket 1e-10 wide.
    """
    if not 0 < rate < 1:
        raise ValueError(f"rate must lie in (0, 1), got {rate}")

    def h2(x: float) -> float:
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    lo, hi = 0.0, 0.5
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if 1 - h2(mid) > rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
