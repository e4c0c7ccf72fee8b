"""Self-check of the benchmark harness: wrong outputs must count as failures.

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs two passes of a few cheap commands, first as they are and then once
per fault injected into the CLI's output, its exit code or a traced pass's
counts, through the same Runner and checks that run.py uses. Exits 1 if the clean run fails or a
fault goes uncounted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import run
import workloads as wk

sys.path.insert(0, str(run.SRC))
from gldpc import cli  # noqa: E402

SPC6 = wk.TEST_SPECS / "spc6_q3.json"
MIXED = wk.TEST_SPECS / "mixed_spc3_hamming7_q2.json"
ALLDEG2 = wk.TEST_SPECS / "alldeg2_spc3.json"
BOUND_MIX = wk.TEST_SPECS / "bound_mix.json"

WORKLOAD = wk.Workload("selfcheck", 1, (
    wk.analyze_command(SPC6),
    wk.sweep_command(MIXED),
    wk.coef_command(ALLDEG2),
    wk.sample_command(BOUND_MIX, 147, 50, "0.02", 7, wk.A7_BOUND),
))


def _json_edit(edit):
    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, indent=2) + "\n"
    return corrupt


def _perturb_root(doc):
    doc["vn_regular"]["critical_ratio"]["value"] += 2 * wk.A3_TOL


def _too_many_small(doc):
    doc["count_le_threshold"] = doc["trials"] + 1


def _endpoint_rate(text):
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = f"{float(cells[2]) + 1e-11:.12g}"
    lines[1] = ",".join(cells)
    return "".join(lines)


def _coef_ratio(text):
    return re.sub(r"(\d)\n$", lambda m: str((int(m.group(1)) + 1) % 10) + "\n", text)


# (name, spec file the fault hits, corrupt(text) or None, exit code, passes hit);
# no spec file means the fault is in the trace, not in the CLI's output.
FAULTS = [
    ("perturbed (3,6) critical ratio", SPC6, _json_edit(_perturb_root), 0, (0, 1)),
    ("sweep endpoint rate off by 1e-11", MIXED, _endpoint_rate, 0, (0, 1)),
    ("A5 ratio off in the last digit", ALLDEG2, _coef_ratio, 0, (0, 1)),
    ("small-distance count above decided trials", BOUND_MIX,
     _json_edit(_too_many_small), 0, (0, 1)),
    ("second repeat prints other bytes", SPC6, lambda t: t + "\n", 0, (1,)),
    ("non-zero exit code", SPC6, None, 2, (0, 1)),
    ("traced undecided count differs from the records", None, None, 0, (0, 1)),
]


def faulty_cli(target: Path, corrupt, exit_code: int, hit_passes):
    """A stand-in for gldpc.cli whose main() breaks one command's result."""
    seen = {"passes": -1}

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        text = buf.getvalue()
        if argv[1] == str(target.relative_to(wk.ROOT)):
            seen["passes"] += 1
            if seen["passes"] in hit_passes:
                text = corrupt(text) if corrupt else text
                rc = exit_code or rc
        sys.stdout.write(text)
        return rc

    return SimpleNamespace(main=main)


def tally(fake, trace_offset: int = 0) -> dict:
    """Two passes. A non-zero trace_offset stands in for a traced pass whose
    tracer saw that many more undecided trials than the records report."""
    runner = run.Runner(fake, WORKLOAD)
    passes = []
    for _ in range(2):
        passes.append(runner.run_pass())
        if trace_offset:
            trials, over = wk.sample_totals(runner.reference)
            runner.check_trace_counts(passes[-1], {
                "sampler.trials": trials, "sampler.undecided": over + trace_offset})
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    return {"attempted": attempted, "failed": failed, "ok_frac": ok / attempted,
            "correct": failed == 0, "errors": runner.errors}


def main() -> int:
    os.chdir(wk.ROOT)
    clean = tally(cli)
    good = clean["correct"] and clean["ok_frac"] == 1.0
    print(f"clean run: failed {clean['failed']} of {clean['attempted']}, "
          f"ok_frac {clean['ok_frac']}: {'ok' if good else 'UNEXPECTED FAILURES'}")
    for name, target, corrupt, code, hit in FAULTS:
        with contextlib.redirect_stderr(io.StringIO()):
            got = (tally(cli, trace_offset=1) if target is None
                   else tally(faulty_cli(target, corrupt, code, hit)))
        caught = (not got["correct"] and got["failed"] > 0
                  and got["ok_frac"] < clean["ok_frac"])
        good = good and caught
        print(f"{name}: failed {got['failed']} of {got['attempted']}, ok_frac "
              f"{got['ok_frac']:.4f}: {'caught' if caught else 'PASSED SILENTLY'}"
              + (f" ({got['errors'][0]})" if got["errors"] else ""))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
