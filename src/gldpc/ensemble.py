"""Ensemble specifications and their derived scalar parameters.

A check-node (CN) mixture assigns each edge of the Tanner graph to a local
code type; the variable-node (VN) side is either a uniform degree q
(VnRegularEnsemble) or an edge-perspective degree distribution lambda
(UnstructuredEnsemble). Edge fractions are stored as exact rationals so
finite-instance divisibility checks never suffer float noise.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from . import gf2, polywef
from .polywef import Wef

RationalLike = Union[int, str, float, Fraction]

SUM_TOL = 1e-12

#: Largest decimal exponent magnitude to_fraction accepts: Fraction expands
#: 10**exponent in full, so a string like '1e-999999999' would hang.
MAX_DECIMAL_EXPONENT = 1000

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")


def to_fraction(x: RationalLike) -> Fraction:
    """Exact rational from int, Fraction, 'num/den' or decimal string, or float.

    Floats go through repr, so 0.05 means 1/20 rather than its binary image.
    A decimal exponent beyond +-MAX_DECIMAL_EXPONENT raises ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        text = x.strip()
        m = _EXPONENT.search(text)
        digits = m.group(1).replace("_", "").lstrip("0") if m else ""
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or 0) > MAX_DECIMAL_EXPONENT):
            raise ValueError(f"decimal exponent in {text[:40]!r} exceeds the cap "
                             f"of {MAX_DECIMAL_EXPONENT}")
        return Fraction(text)
    raise TypeError(f"cannot interpret {x!r} as a rational")


class DivisibilityError(ValueError):
    """A finite instantiation requires a non-integer count."""

    def __init__(self, quantity: str, value: Fraction, nearest_n: int):
        self.quantity = quantity
        self.value = value
        self.nearest_n = nearest_n
        super().__init__(
            f"divisibility violation: {quantity} = {value} is not an integer; "
            f"nearest feasible block length is {nearest_n}"
        )


@dataclass(frozen=True)
class CheckNodeType:
    """A local code placed at check nodes, given by its parity-check matrix.

    The matrix rows are linearly independent int bitmasks over s columns; the
    WEF is derived from them once. Minimum distance must be at least 2 for use
    at a CN.
    """

    s: int
    parity: Tuple[int, ...]

    def __post_init__(self):
        bad = next((row for row in self.parity if not 0 <= row < 1 << self.s), None)
        if bad is not None:
            raise ValueError(f"parity row {bad} is not a bitmask over {self.s} columns")
        if self.wef.dim != self.s - len(self.parity):
            raise ValueError("parity matrix is rank deficient")
        if self.wef.min_dist is None or self.wef.min_dist < 2:
            raise ValueError(
                f"CN local code must have minimum distance >= 2, got {self.wef.min_dist}"
            )

    @functools.cached_property
    def wef(self) -> Wef:
        return polywef.wef_from_parity_matrix(self.parity, self.s)

    @functools.cached_property
    def columns(self) -> Tuple[int, ...]:
        """Column p of the parity matrix as a bitmask over its rows, for each p < s."""
        return tuple(gf2.transpose(self.parity, self.s))

    @property
    def k(self) -> int:
        return self.wef.dim

    @property
    def r(self) -> int:
        return self.wef.min_dist  # type: ignore[return-value]

    @classmethod
    def spc(cls, s: int) -> "CheckNodeType":
        return cls(s=s, parity=((1 << s) - 1,))

    @classmethod
    def hamming(cls, s: int) -> "CheckNodeType":
        """The length-s Hamming code: column j (1-based) of its parity-check matrix is
        j in binary, so s must be 2^m - 1 with m >= 2."""
        m = (s + 1).bit_length() - 1
        if s < 3 or (1 << m) != s + 1:
            raise ValueError(f"invalid Hamming length {s}: s + 1 must be a power of two")
        rows = []
        for i in range(m):
            r = 0
            for j in range(1, s + 1):
                if (j >> i) & 1:
                    r |= 1 << (j - 1)
            rows.append(r)
        return cls(s=s, parity=tuple(rows))

    @classmethod
    def explicit(cls, rows: Sequence[int], n_cols: int) -> "CheckNodeType":
        return cls(s=n_cols, parity=tuple(gf2.row_reduce(rows, n_cols)[1]))


def _normalized(fracs: Sequence[Fraction], name: str) -> Tuple[Fraction, ...]:
    """Positive fractions summing to 1 within SUM_TOL, divided by their exact sum."""
    if any(f <= 0 for f in fracs):
        raise ValueError(f"every {name} entry must be positive")
    total = sum(fracs, Fraction(0))
    if abs(float(total) - 1.0) > SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {SUM_TOL}, got {float(total)}")
    return tuple(f / total for f in fracs)


@dataclass(frozen=True)
class CnMixture:
    """CN types plus the fraction of edges attached to each type."""

    types: Tuple[CheckNodeType, ...]
    rho: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.types) != len(self.rho):
            raise ValueError("rho length must match the number of CN types")
        if not self.types:
            raise ValueError("mixture needs at least one CN type")
        object.__setattr__(self, "rho", _normalized(self.rho, "rho"))

    @classmethod
    def of(cls, types: Sequence[CheckNodeType],
           rho: Sequence[RationalLike]) -> "CnMixture":
        return cls(types=tuple(types), rho=tuple(to_fraction(r) for r in rho))


@dataclass(frozen=True)
class VnRegularEnsemble:
    """All VNs have degree q >= 2; CN layers are stacked column permutations."""

    mixture: CnMixture
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"VN degree must be >= 2, got {self.q}")


@dataclass(frozen=True)
class UnstructuredEnsemble:
    """Configuration-model ensemble with edge-perspective VN degrees lambda."""

    mixture: CnMixture
    lam: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self):
        degrees = [d for d, _ in self.lam]
        if not degrees:
            raise ValueError("lambda needs at least one degree")
        if any(d < 2 for d in degrees):
            raise ValueError("VN degrees below 2 are not supported")
        if len(set(degrees)) != len(degrees):
            raise ValueError("duplicate VN degree in lambda")
        fracs = _normalized([f for _, f in self.lam], "lambda")
        object.__setattr__(self, "lam", tuple(sorted(zip(degrees, fracs))))

    @classmethod
    def of(cls, mixture: CnMixture,
           lam: Dict[int, RationalLike]) -> "UnstructuredEnsemble":
        return cls(mixture=mixture,
                   lam=tuple((int(d), to_fraction(f)) for d, f in lam.items()))


def cns_per_edge_exact(m: CnMixture) -> Fraction:
    """Exact sum_t rho_t / s_t (the CN count per Tanner-graph edge)."""
    return sum((r / t.s for t, r in zip(m.types, m.rho)), Fraction(0))


def cns_per_edge(m: CnMixture) -> float:
    return float(cns_per_edge_exact(m))


def cn_type_fractions(m: CnMixture) -> Tuple[float, ...]:
    """Fraction of CNs of each type (node perspective of rho)."""
    total = cns_per_edge_exact(m)
    return tuple(float(r / (t.s * total)) for t, r in zip(m.types, m.rho))


def weight_two_density_exact(m: CnMixture) -> Fraction:
    return 2 * sum(
        (r * t.wef.coeffs[2] / t.s
         for t, r in zip(m.types, m.rho) if t.r == 2),
        Fraction(0),
    )


def weight_two_density(m: CnMixture) -> float:
    """Twice the number of weight-2 local codewords per edge.

    Zero when no CN type has minimum distance 2. Governs the low-weight
    codeword behavior of the ensemble; linear-growth of the minimum
    distance at VN degree 2 requires this to be below 1.
    """
    return float(weight_two_density_exact(m))


def design_rate(spec: VnRegularEnsemble) -> float:
    """Design rate 1 - q (1 - sum_t rho_t k_t / s_t); may be negative."""
    inner = sum((r * t.k / t.s for t, r in zip(spec.mixture.types, spec.mixture.rho)),
                Fraction(0))
    return float(1 - spec.q * (1 - inner))


def degree_two_edge_fraction(spec: UnstructuredEnsemble) -> float:
    """Fraction of edges attached to degree-2 VNs (lambda'(0))."""
    for d, f in spec.lam:
        if d == 2:
            return float(f)
    return 0.0


@dataclass(frozen=True, eq=False)
class CnLayout:
    """The check side of a finite code: the type of each CN, in socket order.

    CN i owns the types[cn_type[i]].s consecutive edge sockets from
    starts[i].
    """

    types: Tuple[CheckNodeType, ...]
    cn_type: np.ndarray

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """First socket of each CN, then the socket count."""
        sizes = np.array([t.s for t in self.types])[self.cn_type]
        return np.concatenate(([0], np.cumsum(sizes)))


@dataclass(frozen=True)
class InstancePlan:
    """Exact integer counts for one finite code of block length n drawn from spec.

    A VN-regular plan's cn_counts hold all q layers: each is a multiple of q.
    """

    spec: Union[VnRegularEnsemble, UnstructuredEnsemble]
    n: int
    cn_counts: Tuple[int, ...]
    vn_degree_counts: Tuple[Tuple[int, int], ...]

    @property
    def edges(self) -> int:
        return sum(d * count for d, count in self.vn_degree_counts)

    @property
    def cn_total(self) -> int:
        return sum(self.cn_counts)

    @functools.cached_property
    def layout(self) -> CnLayout:
        """The CNs of every code drawn from this plan: runs of each type in type
        order, one set of runs per layer of a VN-regular code."""
        runs = self.cn_counts
        if isinstance(self.spec, VnRegularEnsemble):
            runs = tuple(c // self.spec.q for c in runs) * self.spec.q
        types = self.spec.mixture.types
        return CnLayout(types, np.repeat(np.arange(len(runs)) % len(types), runs))

    @functools.cached_property
    def socket_vns(self) -> np.ndarray:
        """The VN on each edge socket before a draw shuffles them (read-only): each
        VN once per layer of a VN-regular code, else each VN once per edge, in VN order."""
        if isinstance(self.spec, VnRegularEnsemble):
            vns = np.tile(np.arange(self.n), self.spec.q)
        else:
            vns = np.repeat(np.arange(self.n), np.repeat(*zip(*self.vn_degree_counts)))
        vns.flags.writeable = False
        return vns


def validate_finite_instance(
    spec: Union[VnRegularEnsemble, UnstructuredEnsemble], n: int
) -> InstancePlan:
    """Exact integer counts for block length n, or DivisibilityError.

    Each count is n * c for an exact fraction c, and n is feasible exactly when
    every such product is an integer. The error names the first count that is
    not, and the smallest feasible block length at or above n.
    """
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    m = spec.mixture
    per_edge = [r / t.s for t, r in zip(m.types, m.rho)]
    if isinstance(spec, VnRegularEnsemble):
        rules = [(f"per-layer count of type-{i} CNs (n*rho_t/s_t)", c)
                 for i, c in enumerate(per_edge)]
    else:  # counts scale with edges = n / int(lambda)
        edges_per_vn = 1 / sum((f / d for d, f in spec.lam), Fraction(0))
        rules = [("edge count (n / int lambda)", edges_per_vn)]
        rules += [(f"count of degree-{d} VNs", f / d * edges_per_vn) for d, f in spec.lam]
        rules += [(f"count of type-{i} CNs (E*rho_t/s_t)", c * edges_per_vn)
                  for i, c in enumerate(per_edge)]
    unit = math.lcm(*(c.denominator for _, c in rules))
    counts = []
    for quantity, c in rules:
        count = n * c
        if count.denominator != 1:
            raise DivisibilityError(quantity, count, ((n + unit - 1) // unit) * unit)
        counts.append(int(count))
    if isinstance(spec, VnRegularEnsemble):
        return InstancePlan(spec=spec, n=n, cn_counts=tuple(c * spec.q for c in counts),
                            vn_degree_counts=((spec.q, n),))
    degrees = [d for d, _ in spec.lam]
    return InstancePlan(spec=spec, n=n, cn_counts=tuple(counts[1 + len(degrees):]),
                        vn_degree_counts=tuple(zip(degrees, counts[1:])))
