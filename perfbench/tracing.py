"""Spans around the public functions of each gldpc module, set from outside.

The tracer replaces a function on every gldpc module that holds it (callers
that imported it by name included) and puts it back on `uninstall`. Spans
are kept in memory as (id, name, start, end, parent, thread, info) and
written out once at the end. Counts are read from the wrapped calls'
arguments, return values and exceptions; the program itself is unchanged.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int, Optional[dict]]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# (module, attribute, observer of (args, kwargs, result) -> info).
# "Class.method" names a classmethod.
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("cli", "main", None),
    ("cli", "cmd_analyze", None),
    ("cli", "cmd_sweep", None),
    ("cli", "cmd_sample", None),
    ("cli", "cmd_coef_convergence", None),
    ("specfile", "load_spec_file", None),
    ("ensemble", "CheckNodeType.spc", None),
    ("ensemble", "CheckNodeType.hamming", None),
    ("ensemble", "CheckNodeType.explicit", None),
    ("ensemble", "validate_finite_instance", None),
    ("polywef", "wef_spc", None),
    ("polywef", "wef_hamming", None),
    ("polywef", "wef_from_parity_matrix", None),
    ("polywef", "macwilliams", None),
    ("polywef", "poly_pow", None),
    ("growth", "find_critical_ratio", None),
    ("growth", "growth_rate_grid",
     lambda a, kw, r: {"points": len(_arg(a, kw, 1, "alphas"))}),
    ("growth", "growth_rate", None),
    ("bounds", "even_coef_convergence", lambda a, kw, r: {"rows": len(r)}),
    ("bounds", "min_distance_prob_bound", None),
    ("bounds", "prob_min_distance_one", None),
    ("sampler", "sample_vn_regular", None),
    ("sampler", "sample_unstructured", None),
    ("sampler", "has_weight_one_codeword", lambda a, kw, r: {"hit": bool(r)}),
    ("sampler", "global_parity_rows", None),
    ("sampler", "min_distance", None),
    ("sampler", "estimate_dmin_stats",
     lambda a, kw, r: {"trials": _arg(a, kw, 2, "trials")}),
    ("gf2", "row_reduce",
     lambda a, kw, r: {"cells": len(_arg(a, kw, 0, "rows")) * _arg(a, kw, 1, "n_cols")}),
    ("gf2", "nullspace_basis", lambda a, kw, r: {"k": len(r)}),
    ("gf2", "rank", None),
]


class Tracer:
    """Per-thread span stacks; a worker thread's outermost span gets the
    innermost open span of the installing thread as its parent (the call
    that started the pool)."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stacks: Dict[int, List[int]] = {}
        self._main = threading.get_ident()
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and thread != self._main else None
            sid = next(self._ids)
            stack.append(sid)
            info = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    info = observe(args, kwargs, result)
                return result
            except BaseException as exc:
                info = {"raised": type(exc).__name__}
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, thread, info))
        return wrapper

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if k == "gldpc" or k.startswith("gldpc.")}
        for mod_name, attr, observe in TARGETS:
            owner = mods["gldpc." + mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, raw.__func__, observe))
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, observe)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread, info in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread,
                                     "info": info}) + "\n")


# --- per-layer metrics from the spans of one pass ------------------------------

SELF_TIME = {
    "cli.main": "cli.self_s",
    "cli.cmd_analyze": "cli.analyze_s",
    "cli.cmd_sweep": "cli.sweep_s",
    "cli.cmd_sample": "cli.sample_s",
    "cli.cmd_coef_convergence": "cli.coef_convergence_s",
    "specfile.load_spec_file": "specfile.load_s",
    "ensemble.CheckNodeType.spc": "ensemble.cn_type_s",
    "ensemble.CheckNodeType.hamming": "ensemble.cn_type_s",
    "ensemble.CheckNodeType.explicit": "ensemble.cn_type_s",
    "ensemble.validate_finite_instance": "ensemble.plan_s",
    "polywef.wef_spc": "polywef.wef_s",
    "polywef.wef_hamming": "polywef.wef_s",
    "polywef.wef_from_parity_matrix": "polywef.wef_s",
    "polywef.macwilliams": "polywef.macwilliams_s",
    "polywef.poly_pow": "polywef.poly_pow_s",
    "growth.find_critical_ratio": "growth.root_s",
    "growth.growth_rate": "growth.refine_s",
    "bounds.even_coef_convergence": "bounds.coef_s",
    "bounds.min_distance_prob_bound": "bounds.reference_s",
    "bounds.prob_min_distance_one": "bounds.reference_s",
    "sampler.sample_vn_regular": "sampler.draw_s",
    "sampler.sample_unstructured": "sampler.draw_s",
    "sampler.has_weight_one_codeword": "sampler.weight1_s",
    "sampler.global_parity_rows": "sampler.parity_rows_s",
    "sampler.min_distance": "sampler.walk_s",
    "sampler.estimate_dmin_stats": "sampler.orchestration_s",
    "gf2.row_reduce": "gf2.eliminate_s",
    "gf2.nullspace_basis": "gf2.nullspace_s",
    "gf2.rank": "gf2.rank_s",
}

COUNTS = (
    "specfile.loads", "ensemble.cn_types_built", "ensemble.plans", "polywef.wef_calls",
    "growth.roots", "growth.scan_points", "growth.refine_steps",
    "growth.refine_steps_per_root", "bounds.coef_rows",
    "sampler.trials", "sampler.decided", "sampler.undecided", "sampler.decided_frac",
    "sampler.weight1_hits", "sampler.k_max", "sampler.walk_words",
    "gf2.eliminations", "gf2.cells",
)

# Counts worked out from observed values rather than counted events.
COMPUTED = {
    "sampler.k_max": "max len(nullspace_basis(...)) under min_distance",
    "sampler.walk_words": "sum of 2^k - 1 over min_distance calls that enumerated",
    "gf2.cells": "sum of len(rows) * n_cols over row_reduce calls",
}


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Self time per layer and the layer counts for one pass's spans."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] in by_id:
            children[s[4]].append(s)
    out: Dict[str, float] = {m: 0.0 for m in SELF_TIME.values()}
    out["growth.scan_s"] = 0.0
    out.update({c: 0 for c in COUNTS})
    calls = defaultdict(int)
    for sid, name, start, end, parent, _, info in spans:
        info = info or {}
        self_s = (end - start) - _covered(
            [(c[2], c[3]) for c in children[sid]], start, end)
        parent_name = by_id[parent][1] if parent in by_id else None
        metric = SELF_TIME.get(name)
        if name == "growth.growth_rate_grid":
            metric = ("growth.refine_s" if parent_name == "growth.growth_rate"
                      else "growth.scan_s")
            if metric == "growth.scan_s":
                out["growth.scan_points"] += info.get("points", 0)
        out[metric] += self_s
        calls[name] += 1
        if name == "sampler.min_distance":
            if info.get("raised") == "DimensionLimitError":
                out["sampler.undecided"] += 1
            else:
                ks = [c[6]["k"] for c in children[sid]
                      if c[1] == "gf2.nullspace_basis" and "k" in (c[6] or {})]
                out["sampler.walk_words"] += sum((1 << k) - 1 for k in ks)
        if name == "gf2.nullspace_basis" and parent_name == "sampler.min_distance":
            out["sampler.k_max"] = max(out["sampler.k_max"], info.get("k", 0))
        out["sampler.trials"] += info.get("trials", 0)
        out["sampler.weight1_hits"] += int(info.get("hit", False))
        out["gf2.cells"] += info.get("cells", 0)
        out["bounds.coef_rows"] += info.get("rows", 0)
    out["specfile.loads"] = calls["specfile.load_spec_file"]
    out["ensemble.cn_types_built"] = sum(
        calls[n] for n in calls if n.startswith("ensemble.CheckNodeType."))
    out["ensemble.plans"] = calls["ensemble.validate_finite_instance"]
    out["polywef.wef_calls"] = sum(calls[n] for n in calls if n.startswith("polywef.wef_"))
    out["growth.roots"] = calls["growth.find_critical_ratio"]
    out["growth.refine_steps"] = calls["growth.growth_rate"]
    out["growth.refine_steps_per_root"] = (
        out["growth.refine_steps"] / out["growth.roots"] if out["growth.roots"] else 0.0)
    out["sampler.decided"] = out["sampler.trials"] - out["sampler.undecided"]
    out["sampler.decided_frac"] = (
        out["sampler.decided"] / out["sampler.trials"] if out["sampler.trials"] else 0.0)
    out["gf2.eliminations"] = calls["gf2.row_reduce"]
    out["trace.self_total_s"] = sum(v for k, v in out.items() if k.endswith("_s"))
    return out
