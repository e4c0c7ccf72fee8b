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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
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
# Scan size per root (a shared scan is at least as fine across each root's
# span), which also caps the specs one batch holds, the points one tilt
# table block holds (blocks are sized by gf2._WALK_BUFFER_BYTES) and the
# (spec, point) cells one scoring slice holds; and the root bracket width
# in relative weight.
_SCAN_POINTS = 2200
_ROOT_TOL = 1e-10
# exp(x) is exactly +0.0 below log(2^-1075) = -745.133..., where even the
# smallest subnormal rounds away; the cutoff sits a margin below it.
_EXP_ZERO = -745.2


@dataclass(frozen=True)
class GrowthCurve:
    """The located critical weight ratio of a growth-rate curve.

    critical_ratio is the smallest positive root of the growth rate when a
    sign change was located (root_located True). When the growth rate stays
    negative on the whole domain the ratio saturates at the domain end.

    Solver diagnostics: bracket is the final interval in relative weight
    around a located root and residual the growth rate at the reported
    ratio (both None when no root was located); sign_changes counts the
    sign changes the scan saw up to its first positive point, ignoring
    values within rounding error of zero: 1 when a root is located, else 0.
    """

    critical_ratio: Optional[float]
    verdict: str
    root_located: bool
    bracket: Optional[Tuple[float, float]] = None
    residual: Optional[float] = None
    sign_changes: int = 0


@lru_cache(maxsize=128)
def _log_table(cn: CheckNodeType):
    """u, u^2 and log A_u over the nonzero weights u >= 1 of one CN type's WEF.

    A_0 = 1 is kept apart (see _type_curve).
    """
    nonzero = [u for u, a in enumerate(cn.wef.coeffs) if a and u]
    us = np.array(nonzero, dtype=float)
    return us, us * us, np.array([math.log(cn.wef.coeffs[u]) for u in nonzero])


def _weights(m: CnMixture) -> Dict[CheckNodeType, float]:
    """The edge weight w_i = rho_i/s_i of each distinct CN type of m.

    A type whose weight underflows to 0.0 is left out: it would add exactly
    0 to every tilt sum, and its scan ends would need log(0).
    """
    weights: Dict[CheckNodeType, float] = {}
    for cn, r in zip(m.types, m.rho):
        w = float(r) / cn.s
        if w:
            weights[cn] = weights.get(cn, 0.0) + w
    return weights


def edge_weight_limit(m: CnMixture) -> float:
    """Supremum of the per-edge tilted weight: sum_t (rho_t/s_t) deg A_t."""
    return float(sum(r * t.wef.degree / t.s for t, r in zip(m.types, m.rho)))


def _block_rows(weights: int) -> int:
    """Rows of a tilt table block over this many nonzero WEF weights: the
    float64 cells within gf2._WALK_BUFFER_BYTES, at least one row and at
    most _SCAN_POINTS."""
    return min(_SCAN_POINTS, max(1, gf2._WALK_BUFFER_BYTES // (8 * weights)))


def _type_curve(cn: CheckNodeType, t: np.ndarray) -> np.ndarray:
    """log A(e^t), E[u] and Var(u) of one CN type at an array of log-tilts.

    Rows 0, 1 and 2 of the result; the law is the tilted one, A_u e^(u t) /
    A(e^t). Each t gets its own row e_u = exp(log A_u + u t - top) over the
    weights u >= 1, summed along that row alone, so the values at one t are
    the same bits whatever other points share the call (a matrix product
    rounds by the shape of the whole array). Since A_0 = 1, A e^-top =
    1 + rest with rest = sum e_u + expm1(-top), and log A = top +
    log1p(rest) stays accurate where log A is tiny.

    Rows are built a block at a time, each block of float64 cells within
    gf2._WALK_BUFFER_BYTES (at least one row, at most _SCAN_POINTS), so a
    wide type never holds a whole scan's table. Cells below _EXP_ZERO are
    set to +0.0 instead of being exponentiated: exp rounds them to exactly
    that, and an underflowing exp is many times slower than a normal one.
    Subnormal terms are still exponentiated, and a NaN cell is never below
    the cutoff, so it still goes through exp.
    """
    us, us2, logs = _log_table(cn)
    rows = _block_rows(us.size)
    out = np.empty((3, t.size))
    for k in range(0, t.size, rows):
        part = slice(k, k + rows)
        e = np.multiply.outer(t[part], us)
        e += logs
        top = np.maximum(e.max(axis=1), 0.0)
        e -= top[:, None]
        dead = e < _EXP_ZERO
        np.exp(e, out=e, where=~dead)
        e[dead] = 0.0
        rest = e.sum(axis=1) + np.expm1(-top)
        mean = np.vecdot(e, us) / (1.0 + rest)
        out[0, part] = top + np.log1p(rest)
        out[1, part] = mean
        out[2, part] = np.vecdot(e, us2) / (1.0 + rest) - mean * mean
    return out


def _tilt_curve(weights: Dict[CheckNodeType, Any], t: np.ndarray) -> np.ndarray:
    """sum_i w_i log A_i(e^t), alpha(t) and alpha'(t) at an array of log-tilts.

    Sums run over the CN types i of weights, which maps each to w_i =
    rho_i/s_i, a scalar or one value per t: alpha = sum_i w_i E_i[u] is the
    tilted mean weight per edge and alpha' = sum_i w_i Var_i(u).
    """
    return sum(w * _type_curve(cn, t) for cn, w in weights.items())


def _growth_terms(q, alpha: np.ndarray, t: np.ndarray, log_a: np.ndarray):
    """G = (1-q) h(alpha) - q alpha t + q sum_i w_i log A_i(e^t), and its
    rounding-error floor: _FLOOR_ULPS rounding units of the terms it is
    summed from."""
    ent = -alpha * np.log(alpha) - (1 - alpha) * np.log1p(-alpha)
    terms = ((1 - q) * ent, -q * alpha * t, q * log_a)
    return sum(terms), _FLOOR_ULPS * np.finfo(float).eps * sum(np.abs(x) for x in terms)


def _growth_curve(weights: Dict[CheckNodeType, Any], q, t: np.ndarray):
    """alpha(t), G(t), dG/dt and the rounding-error floor of G at log-tilts t.

    weights is as for _tilt_curve, and the VN degree q a scalar or one value
    per t. dG/dt = [(1-q) log((1-alpha)/alpha) - q t] alpha'(t): the
    t-derivative of the tilt terms cancels because d/dt sum_i w_i
    log A_i(e^t) = alpha.
    """
    log_a, alpha, slope = _tilt_curve(weights, t)
    g, floor = _growth_terms(q, alpha, t, log_a)
    dg = ((1 - q) * (np.log1p(-alpha) - np.log(alpha)) - q * t) * slope
    return alpha, g, dg, floor


def _bracketed_newton(f, lo: np.ndarray, hi: np.ndarray, tol):
    """Shrink brackets [lo, hi] around roots of f, elementwise.

    f maps (indices, points) to (value, slope) of the elements at those
    indices, with value < 0 at lo and value >= 0 at hi. A Newton step that
    leaves its bracket, or is not shorter than half the previous step, is
    replaced by bisection. A Newton step shorter than tol/2 is lengthened to
    tol/2, so the next point lands just past the root and the bracket closes
    from both sides. tol is a scalar or one value per element. Each element
    freezes at the step where it would stop alone, once its bracket is at
    most tol wide or cannot be split further, and f is not evaluated for it
    again; so when f's value at a point does not depend on the other points,
    neither does an element's bracket. Returns the brackets.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    idx = np.arange(lo.size)
    a, b, tol = lo, hi, np.broadcast_to(tol, lo.shape)
    x = 0.5 * (a + b)
    last = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            value, slope = f(idx, x)
            below = value < 0
            a = np.where(below, x, a)
            b = np.where(below, b, x)
            lo[idx], hi[idx] = a, b
            mid = 0.5 * (a + b)
            go = (b - a > tol) & (a < mid) & (mid < b)
            if not go.all():
                if not go.any():
                    break
                idx, a, b, tol, x, mid, last, value, slope = (
                    v[go] for v in (idx, a, b, tol, x, mid, last, value, slope))
            step = value / slope
            short = np.abs(step) < 0.5 * tol
            nxt = x - np.where(short, np.copysign(0.5 * tol, step), step)
            newton = (np.abs(step) < 0.5 * last) & (a < nxt) & (nxt < b)
            # only a bisection may follow a lengthened step, so a flat
            # stretch is not crossed tol/2 at a time
            last = np.where(newton, np.where(short, 0.0, np.abs(step)), np.abs(mid - x))
            x = np.where(newton, nxt, mid)
    return lo, hi


def _log_tilt_for(m: CnMixture, alpha: np.ndarray) -> np.ndarray:
    """Log-tilts t with alpha(t) = alpha, elementwise, by safeguarded Newton."""
    weights = _weights(m)

    def f(idx, t):
        _, a, slope = _tilt_curve(weights, t)
        return a - alpha[idx], slope

    lo, hi = _bracketed_newton(
        f, np.full(alpha.shape, _LOG_Z_LO), np.full(alpha.shape, _LOG_Z_HI), _TILT_TOL
    )
    return 0.5 * (lo + hi)


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
    return _growth_terms(q, a, t, _tilt_curve(_weights(m), t)[0])[0]


def growth_rate(spec: VnRegularEnsemble, alpha: float) -> float:
    """Growth rate of the expected codeword count at relative weight alpha."""
    return float(growth_rate_grid(spec, [alpha])[0])


def _scan_ends(weights: Dict[CheckNodeType, float]) -> Tuple[float, float]:
    """Log-tilts where alpha is about _TAIL above 0 and _TAIL below its limit.

    In closed form from each type's lowest and highest nonzero WEF terms:
    alpha_t ~ w d A_d e^(d t) as t -> -inf, and limit_t - alpha_t ~
    w g (A_(D-g) / A_D) e^(-g t) as t -> +inf, where D is the top weight
    and g the gap below it (A_0 = 1 when D is the only nonzero weight).
    """
    lows, highs = [], []
    for cn, w in weights.items():
        us, _, logs = _log_table(cn)
        d = us[0]
        lows.append((math.log(_TAIL / (w * d)) - logs[0]) / d)
        below_u, below_log = (us[-2], logs[-2]) if len(us) > 1 else (0.0, 0.0)
        gap = us[-1] - below_u
        highs.append((math.log(w * gap / _TAIL) + below_log - logs[-1]) / gap)
    return min(lows), max(highs)


def _critical_ratios(specs: Sequence[VnRegularEnsemble]) -> List[GrowthCurve]:
    """find_critical_ratio of each spec, from one scan and one refinement.

    Each CN type's tilt curve is evaluated on one grid of evenly spaced
    log-tilts. The grid spans every spec's _scan_ends and is at least as
    fine as _SCAN_POINTS points across the narrowest span; each spec reads
    the points within its own span, with its own weights, rounding floor
    and VN degree. The grid is walked in increasing t, in blocks of
    _block_rows rows for all the batch's nonzero WEF weights together, so
    each type's table of exponents in a block is one _type_curve block.
    Each block is scored for all open specs at once, a slice of at most
    about _SCAN_POINTS (spec, point) cells at a time. A spec closes at its
    first positive point (or the end of its span), and the walk stops
    after the block in which the last spec closes. Every point is computed
    on its own, so neither the blocks nor the batch change a bit of any
    point.

    Then all brackets are refined in one call, each to its own tolerance,
    so callers pass at most _SCAN_POINTS specs to keep every other buffer
    within a scan's size; both ends of the final brackets are evaluated in
    one more call. Specs whose verdict is decided analytically are not
    scanned.
    """
    curves: List[Optional[GrowthCurve]] = [None] * len(specs)
    scanned = []
    for p, spec in enumerate(specs):
        if spec.q == 2 and weight_two_density_exact(spec.mixture) >= 1:
            curves[p] = GrowthCurve(critical_ratio=None, verdict=VERDICT_NOT_EXISTS,
                                    root_located=False)
        else:
            scanned.append(p)
    if not scanned:
        return curves
    # one row of CN-type weights per scanned spec, one column per CN type
    weights = [_weights(specs[p].mixture) for p in scanned]
    types = list(dict.fromkeys(cn for row in weights for cn in row))
    column = {cn: c for c, cn in enumerate(types)}
    w = np.zeros((len(scanned), len(types)))
    ends = np.empty((len(scanned), 2))
    for n, row in enumerate(weights):
        w[n, [column[cn] for cn in row]] = list(row.values())
        ends[n] = _scan_ends(row)
    first, last = ends[:, 0].min(), ends[:, 1].max()
    # the grid's span in narrowest spans, first, so a batch of one gets
    # exactly _SCAN_POINTS points
    spans = (last - first) / (ends[:, 1] - ends[:, 0]).min()
    t = np.linspace(first, last, math.ceil((_SCAN_POINTS - 1) * spans) + 1)
    # each spec's span is grid rows [lo, hi)
    lo, hi = np.searchsorted(t, ends[:, 0]), np.searchsorted(t, ends[:, 1], "right")
    q = np.array([specs[p].q for p in scanned])

    # per spec: grid rows of its first positive G and of the last negative G
    # before it (-1: none yet), alpha at both, and whether any G in its span
    # was not negative
    pos, neg = np.full(len(scanned), -1), np.full(len(scanned), -1)
    a_pos, a_neg = np.zeros(len(scanned)), np.zeros(len(scanned))
    not_neg = np.zeros(len(scanned), dtype=bool)
    open_ = np.arange(len(scanned))
    block = _block_rows(sum(_log_table(cn)[0].size for cn in types))
    for r0 in range(0, t.size, block):
        if not open_.size:
            break
        r1 = min(r0 + block, t.size)
        tables = [_type_curve(cn, t[r0:r1]) for cn in types]
        a = r0
        while a < r1 and open_.size:
            b = min(r1, a + max(1, _SCAN_POINTS // open_.size))
            o, r = open_, np.arange(a, b)
            inside = (lo[o, None] <= r) & (r < hi[o, None])
            wo = w[o]
            log_a, alpha = (sum(wo[:, c, None] * table[row, a - r0:b - r0]
                                for c, table in enumerate(tables)) for row in (0, 1))
            # a point outside a spec's span is not scored; 0.5 keeps its
            # entropy finite
            alpha = np.where(inside, alpha, 0.5)
            g, floor = _growth_terms(q[o, None], alpha, t[a:b], log_a)
            up, down = inside & (g > floor), inside & (g < -floor)
            # each spec's first positive row in this slice (b: none), and its
            # last negative row before that (-1: none)
            j = np.where(up.any(axis=1), a + up.argmax(axis=1), b)
            i = np.where(down & (r < j[:, None]), r, -1).max(axis=1)
            # an open spec has no positive row yet
            got = i >= 0
            neg[o[got]], a_neg[o[got]] = i[got], alpha[got, i[got] - a]
            got = j < b
            pos[o[got]], a_pos[o[got]] = j[got], alpha[got, j[got] - a]
            not_neg[o] |= (inside & ~down).any(axis=1)
            open_ = o[(hi[o] > b) & (pos[o] < 0)]
            a = b

    rows, brackets = [], []
    for n, p in enumerate(scanned):
        if pos[n] < 0 and not not_neg[n]:
            curves[p] = GrowthCurve(
                critical_ratio=edge_weight_limit(specs[p].mixture),
                verdict=VERDICT_EXISTS,
                root_located=False,
            )
            continue
        if pos[n] < 0 or neg[n] < 0:
            # G is within rounding error of 0 wherever it could change sign,
            # so neither a root nor decay can be certified; report that, not
            # a guess
            curves[p] = GrowthCurve(critical_ratio=None, verdict=VERDICT_NO_SIGN_CHANGE,
                                    root_located=False)
            continue
        i, j = neg[n], pos[n]
        # tolerance in t that makes the final bracket about _ROOT_TOL wide in alpha
        tol = _ROOT_TOL * (t[j] - t[i]) / (a_pos[n] - a_neg[n])
        rows.append(n)
        brackets.append((t[i], t[j], tol))
    if not rows:
        return curves

    wr, q = w[rows], q[rows]

    def at(x, idx=slice(None)):
        return _growth_curve({cn: wr[idx, c] for c, cn in enumerate(types)}, q[idx], x)

    lo, hi = _bracketed_newton(lambda idx, x: at(x, idx)[1:3], *np.array(brackets).T)
    # at's values do not depend on the batch: these are the ones the solver
    # saw, both ends in one call
    ends_a, ends_g = at(np.concatenate((lo, hi)), np.tile(np.arange(len(rows)), 2))[:2]
    (a_lo, a_hi), (g_lo, g_hi) = np.split(ends_a, 2), np.split(ends_g, 2)
    root = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    a_root, g_root = at(root)[:2]
    for m, n in enumerate(rows):
        curves[scanned[n]] = GrowthCurve(
            critical_ratio=float(a_root[m]),
            verdict=VERDICT_EXISTS,
            root_located=True,
            bracket=(float(a_lo[m]), float(a_hi[m])),
            residual=float(g_root[m]),
            sign_changes=1,
        )
    return curves


def find_critical_ratio(spec: VnRegularEnsemble) -> GrowthCurve:
    """Locate the smallest positive root of the growth rate.

    The curve is scanned on _SCAN_POINTS log-tilts, evenly spaced between
    the points where alpha is 1e-9 above zero and 1e-9 below its limit
    (even steps in t are log-spaced in alpha near both ends). A
    scanned value counts as signed only when it clears the rounding-error
    floor of the terms it is summed from; the root is bracketed by the last
    negative and first positive value and refined by safeguarded Newton in
    t until the bracket is about _ROOT_TOL wide in alpha. The reported ratio
    sits at the secant point of G across the final bracket.

    Existence is decided analytically: for VN degree q > 2 a positive
    critical ratio always exists; for q = 2 it exists exactly when the
    weight-2 density is below 1, and when it does not nothing is scanned.
    When the growth rate is certified negative at every scanned point the
    ratio is reported as the domain limit with root_located False (the
    expected codeword count decays at every scanned relative weight). When
    no negative-to-positive change clears the floor otherwise, the verdict
    is no_sign_change_found and the ratio None.

    The scan is walked in increasing t and stops after the block that holds
    the first positive value; this is _critical_ratios on a batch of one.
    """
    return _critical_ratios([spec])[0]


@dataclass(frozen=True)
class SweepPoint:
    gamma1: float
    rho1: float
    rate: float
    critical_ratio: Optional[float]
    verdict: str
    delta_gv: Optional[float]


def two_type_sweep(
    type_a: CheckNodeType,
    type_b: CheckNodeType,
    q: int,
    gamma_grid: Sequence[Fraction | float],
) -> List[SweepPoint]:
    """Rate / critical-ratio curve as the node fraction of type_a sweeps [0, 1].

    One point per grid value, in grid order. The critical ratios are found
    _SCAN_POINTS points at a time, each batch from one shared scan and one
    refinement (see _critical_ratios).
    """
    grid = [to_fraction(g) for g in gamma_grid]
    if any(g < 0 or g > 1 for g in grid):
        raise ValueError("node-fraction grid values must lie in [0, 1]")
    points = []
    for k in range(0, len(grid), _SCAN_POINTS):
        part = grid[k:k + _SCAN_POINTS]
        # node-perspective pair (gamma1, 1-gamma1) -> edge-perspective rho
        rho1s = [g * type_a.s / (g * type_a.s + (1 - g) * type_b.s) for g in part]
        specs = []
        for rho1 in rho1s:
            # a type with no edges is left out of the mixture
            types, rho = zip(*((cn, r) for cn, r in ((type_a, rho1), (type_b, 1 - rho1))
                               if r))
            specs.append(VnRegularEnsemble(mixture=CnMixture(types=types, rho=rho), q=q))
        for g, rho1, spec, curve in zip(part, rho1s, specs, _critical_ratios(specs)):
            rate = design_rate(spec)
            points.append(SweepPoint(
                gamma1=float(g),
                rho1=float(rho1),
                rate=rate,
                critical_ratio=curve.critical_ratio,
                verdict=curve.verdict,
                delta_gv=gv_relative_distance(rate) if 0 < rate < 1 else None,
            ))
    return points


def gv_relative_distance(rate: float) -> float:
    """Gilbert-Varshamov relative distance: solve rate = 1 - h2(delta).

    Uses base-2 entropy as is conventional for the GV curve. Bisection
    runs until the midpoint stops moving, that is until the bracket is two
    adjacent floats, since the value is printed to 12 significant digits.
    """
    if not 0 < rate < 1:
        raise ValueError(f"rate must lie in (0, 1), got {rate}")

    def h2(x: float) -> float:
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    lo, hi = 0.0, 0.5
    mid = 0.25
    while lo < mid < hi:
        if 1 - h2(mid) > rate:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
