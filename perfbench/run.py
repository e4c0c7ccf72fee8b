"""Benchmark of the gldpc command line.

Run from the repository root:

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 38 --trace 0

A workload is a closed loop with one client: its CLI commands run one after
another through `gldpc.cli.main` in this process, and the whole list (a
pass) repeats for about --seconds (at least three times). Every output is
checked, and every repeat must print the same bytes as the first. With
--trace 0 the last line of standard output holds the end-to-end metrics; with
--trace 1 it holds per-layer self times and counts from a traced run, and the
spans are written to perfbench/out/. The line before it records the machine and the settings.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import CheckFailed, Command, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9  # at least this many set-up probes per run
SETUP_GAP_S = 2.5  # a probe runs after any command that ends this long after the last
MIN_PASSES = 3

# Import the package and load the workload's specs in a fresh interpreter;
# prints the seconds taken.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gldpc
for path in sys.argv[2:]:
    gldpc.load_spec_file(path)
print(time.perf_counter() - t0)
"""


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def setup_seconds(wl: Workload) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *wl.spec_paths],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_command(cli, cmd: Command):
    """(exit code, seconds, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a harness error
            rc = "uncaught " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def evaluate(cmd: Command, rc, out: str, reference) -> tuple:
    """(decided ops, undecided ops, error or None) for one command's result."""
    if rc != 0:
        return 0, 0, f"exit code {rc}"
    if reference is not None and out != reference:
        return 0, 0, "output bytes differ from the first repeat"
    try:
        decided, undecided = cmd.check(out)
    except CheckFailed as exc:
        return 0, 0, str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, 0, f"malformed output: {exc!r}"
    if decided + undecided != cmd.ops:
        return 0, 0, f"{decided + undecided} operations reported, expected {cmd.ops}"
    return decided, undecided, None


class Runner:
    """Runs passes of a workload and tallies operations across them."""

    def __init__(self, cli, wl: Workload):
        self.cli = cli
        self.wl = wl
        self.reference = {}  # argv -> output bytes of the first successful run
        self.errors = []

    def run_pass(self, between=None) -> dict:
        """One pass; `between()` is called after each command, off the clock."""
        res = {"times": [], "attempted": 0, "ok": 0, "undecided": 0, "failed": 0}
        for cmd in self.wl.commands:
            rc, elapsed, out, _ = run_command(self.cli, cmd)
            ok, undecided, error = evaluate(cmd, rc, out, self.reference.get(cmd.argv))
            if error is None and cmd.argv not in self.reference:
                self.reference[cmd.argv] = out
            if error is not None:
                self.fail(f"{cmd.label}: {error}")
            res["times"].append(elapsed)
            res["attempted"] += cmd.ops
            res["ok"] += ok
            res["undecided"] += undecided
            res["failed"] += 0 if error is None else cmd.ops
            if between is not None:
                between()
        return res

    def fail(self, error: str) -> None:
        self.errors.append(error)
        print(f"perfbench: FAILED {error}", file=sys.stderr)

    def check_trace_counts(self, res: dict, layer: dict) -> None:
        """Decided plus undecided trials equal the trials, with the undecided
        ones counted from a source the sample records do not share: the
        DimensionLimitErrors the tracer saw. A mismatch fails the pass."""
        trials, over = workloads.sample_totals(self.reference)
        if (layer["sampler.trials"], layer["sampler.undecided"]) != (trials, over):
            self.fail(f"traced pass: {layer['sampler.trials']} trials and "
                      f"{layer['sampler.undecided']} undecided, but the sample records "
                      f"report {trials} and {over}")
            res.update(ok=0, undecided=0, failed=res["attempted"])


def _total(passes, key) -> int:
    return sum(p[key] for p in passes)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def repeat(seconds: float, step, min_calls: int) -> None:
    """Call step() at least `min_calls` times, and again while the next call
    should end less than half a call past `seconds`."""
    deadline = time.perf_counter() + seconds
    calls, last = 0, 0.0
    while calls < min_calls or time.perf_counter() + last / 2 <= deadline:
        start = time.perf_counter()
        step()
        last = time.perf_counter() - start
        calls += 1


def end_to_end(cli, wl: Workload, seconds: float):
    runner = Runner(cli, wl)
    setup, passes = [], []
    last_probe = [float("-inf")]

    def probe():
        # Probes spread over the whole run sample more of the host's speed
        # spells than probes made back to back or once per pass.
        if time.perf_counter() - last_probe[0] >= SETUP_GAP_S:
            setup.append(setup_seconds(wl))
            last_probe[0] = time.perf_counter()

    probe()
    repeat(seconds, lambda: passes.append(runner.run_pass(probe)), MIN_PASSES)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(wl))
    # The host's speed changes by up to 1.8x for seconds to minutes at a time,
    # and how much of a run falls in slow spells drifts from run to run. Each
    # command counts at its fastest repeat, which tracks the host's fast state:
    # over ten-run sets its worst spread was 23%, against 43% for the median
    # (README.md, "Steadiness").
    per_cmd = [min(p["times"][i] for p in passes) for i in range(len(wl.commands))]
    run_s = sum(per_cmd)
    attempted = _total(passes, "attempted")
    ok = _total(passes, "ok")
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "run_s": _metric(run_s, "s"),
        "ops_per_s": _metric(ok / len(passes) / run_s, "1/s"),
        "ok_frac": _metric(ok / attempted, "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "setup_s_samples": setup,
        "pass_s": [sum(p["times"]) for p in passes],
        "command_s": [p["times"] for p in passes],
        "command_fastest_s": dict(zip((c.label for c in wl.commands), per_cmd)),
        "undecided": _total(passes, "undecided"),
    }
    return runner, passes, metrics, detail


def traced(cli, wl: Workload, seconds: float, spans_path: Path):
    """Untraced and traced passes in turn; per-layer medians over traced passes.

    Overhead compares the median traced pass with the median untraced one.
    """
    from tracing import COMPUTED, Tracer, layer_metrics

    runner = Runner(cli, wl)
    tracer = Tracer()
    plain, traced_passes, layers = [], [], []

    def step():
        plain.append(runner.run_pass())
        mark = len(tracer.spans)
        tracer.install()
        try:
            traced_passes.append(runner.run_pass())
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer.spans[mark:]))
        runner.check_trace_counts(traced_passes[-1], layers[-1])

    repeat(seconds, step, 1)
    tracer.write(spans_path)
    plain_s = statistics.median(sum(p["times"]) for p in plain)
    traced_s = statistics.median(sum(p["times"]) for p in traced_passes)
    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("_s") else (
            "ratio" if name.endswith("_frac") else "count")
        metrics[name] = _metric(statistics.median(m[name] for m in layers), unit)
    metrics["trace.overhead"] = _metric(traced_s / plain_s - 1, "ratio")
    detail = {
        "untraced_pass_s": [sum(p["times"]) for p in plain],
        "traced_pass_s": [sum(p["times"]) for p in traced_passes],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "computed_counts": COMPUTED,
    }
    return runner, plain + traced_passes, metrics, detail


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gldpc" / "__init__.py").is_file() or not workloads.TEST_SPECS.is_dir():
        print(f"perfbench: no gldpc sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from gldpc import cli

    wl = workloads.WORKLOADS[args.workload](args.seed)
    os.environ["GLDPC_THREADS"] = str(wl.threads)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        runner, passes, metrics, detail = traced(
            cli, wl, args.seconds, OUT_DIR / f"{stem}-spans.jsonl")
    else:
        runner, passes, metrics, detail = end_to_end(cli, wl, args.seconds)
    failed = _total(passes, "failed")
    result = {
        "correct": failed == 0,
        "attempted": _total(passes, "attempted"),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "gldpc_threads": wl.threads,
        "commands": [list(c.argv) for c in wl.commands],
        "machine": machine(),
        "passes": len(passes),
        "errors": runner.errors,
        "a7_test": workloads.union_bound_test(runner.reference),
        **detail,
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
