"""JSON ensemble-description files.

Schema (rationals are "num/den" strings, decimal strings, or numbers):

    {
      "cn_types": [
        {"kind": "spc", "s": 3},
        {"kind": "hamming", "s": 7},
        {"kind": "explicit", "s": 5, "parity": ["11010", "00111"]}
      ],
      "rho": ["1/5", "0.8"],
      "q": 2,                      # VN-regular view (optional)
      "lambda": {"2": "0.1", "3": "9/10"}   # unstructured view (optional)
    }

At least one of "q" / "lambda" must be present; a file may carry both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from . import gf2
from .ensemble import (
    CheckNodeType,
    CnMixture,
    UnstructuredEnsemble,
    VnRegularEnsemble,
    to_fraction,
)

#: Longest CN type a spec may declare, of any kind: a type's WEF costs bigint work
#: growing faster than s^2, so a huge "s" would hang (2-vCPU VM: spc 1023 takes
#: 0.003 s, spc 8000 0.07 s, spc 32000 1.0 s). At the cap, the 2200-point growth
#: scan of a Hamming-1023 type takes 14 ms and its root search peaks at 0.8 MB
#: of traced allocations (2-vCPU VM, numpy 2.4.6).
MAX_CN_LENGTH = 1023


class SpecFileError(ValueError):
    """Malformed ensemble description; the message names the bad field."""


@dataclass(frozen=True)
class SpecFile:
    """Parsed ensemble description: a CN mixture plus its one or two VN views,
    each built once at parse time (None when the spec omits that view)."""

    mixture: CnMixture
    vn_regular: Optional[VnRegularEnsemble]
    unstructured: Optional[UnstructuredEnsemble]


def _parse_cn_type(entry: Dict[str, Any], idx: int) -> CheckNodeType:
    where = f"cn_types[{idx}]"
    if not isinstance(entry, dict):
        raise SpecFileError(f"{where}: expected an object")
    kind = entry.get("kind")
    s = entry.get("s")
    if not isinstance(s, int) or not 2 <= s <= MAX_CN_LENGTH:
        raise SpecFileError(f"{where}.s: expected an integer length from 2 to the cap "
                            f"of {MAX_CN_LENGTH}, got {s!r}")
    if kind == "spc":
        return CheckNodeType.spc(s)
    if kind == "hamming":
        try:
            return CheckNodeType.hamming(s)
        except ValueError as exc:
            raise SpecFileError(f"{where}: {exc}") from exc
    if kind == "explicit":
        parity = entry.get("parity")
        if not isinstance(parity, list) or not parity:
            raise SpecFileError(f"{where}.parity: expected a list of bit strings")
        try:
            rows = gf2.matrix_from_rows(parity, s)
            return CheckNodeType.explicit(rows, s)
        except ValueError as exc:
            raise SpecFileError(f"{where}.parity: {exc}") from exc
    raise SpecFileError(
        f"{where}.kind: expected 'spc', 'hamming' or 'explicit', got {kind!r}"
    )


def parse_spec_dict(doc: Dict[str, Any]) -> SpecFile:
    if not isinstance(doc, dict):
        raise SpecFileError("top level: expected a JSON object")
    raw_types = doc.get("cn_types")
    if not isinstance(raw_types, list) or not raw_types:
        raise SpecFileError("cn_types: expected a non-empty list")
    types = [_parse_cn_type(e, i) for i, e in enumerate(raw_types)]
    raw_rho = doc.get("rho")
    if not isinstance(raw_rho, list) or len(raw_rho) != len(types):
        raise SpecFileError(
            f"rho: expected a list of {len(types)} fractions matching cn_types"
        )
    try:
        rho = [to_fraction(r) for r in raw_rho]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SpecFileError(f"rho: {exc}") from exc
    try:
        mixture = CnMixture.of(types, rho)
    except ValueError as exc:
        raise SpecFileError(f"rho: {exc}") from exc

    q, vn_regular, unstructured = doc.get("q"), None, None
    if q is not None:
        if not isinstance(q, int) or q < 2:
            raise SpecFileError(f"q: expected an integer >= 2, got {q!r}")
        vn_regular = VnRegularEnsemble(mixture=mixture, q=q)
    lam_raw = doc.get("lambda")
    if lam_raw is not None:
        if not isinstance(lam_raw, dict) or not lam_raw:
            raise SpecFileError("lambda: expected a non-empty object degree -> fraction")
        lam, keys = {}, {}
        for key, val in lam_raw.items():
            try:
                d = int(key)
            except ValueError as exc:
                raise SpecFileError(f"lambda key {key!r}: not an integer degree") from exc
            if d in keys:
                raise SpecFileError(f"lambda keys {keys[d]!r} and {key!r} both spell "
                                    f"degree {d}")
            keys[d] = key
            try:
                lam[d] = to_fraction(val)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise SpecFileError(f"lambda[{key}]: {exc}") from exc
        try:
            unstructured = UnstructuredEnsemble.of(mixture, lam)
        except ValueError as exc:
            raise SpecFileError(f"lambda: {exc}") from exc
    if vn_regular is None and unstructured is None:
        raise SpecFileError("spec needs 'q' and/or 'lambda'")
    return SpecFile(mixture=mixture, vn_regular=vn_regular, unstructured=unstructured)


def load_spec_file(path: str) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return parse_spec_dict(doc)
    except SpecFileError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc

