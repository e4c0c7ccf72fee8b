"""The benchmark tracer wraps gldpc functions by name; each name must resolve.

perfbench/tracing.py installs its spans from outside the package, so a
renamed or deleted function would only show up as a failing `--trace 1` run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Positional arguments the tracer's observers read, by index.
OBSERVED_ARGS = {
    ("growth", "growth_rate_grid"): {1: "alphas"},
    ("sampler", "estimate_dmin_stats"): {2: "trials"},
    ("gf2", "row_reduce"): {0: "rows", 1: "n_cols"},
}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.TARGETS]


@pytest.mark.parametrize("mod,attr", _targets())
def test_target_resolves(mod, attr):
    owner = importlib.import_module("gldpc." + mod)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert isinstance(getattr(owner, cls_name).__dict__[meth], classmethod)
        return
    fn = getattr(owner, attr)
    assert callable(fn)
    params = list(inspect.signature(fn).parameters)
    for index, name in OBSERVED_ARGS.get((mod, attr), {}).items():
        assert params[index] == name
