import glob
import json
import os
import time
import warnings
from fractions import Fraction

import pytest

from gldpc.cli import (MAX_COEF_N, MAX_GRID_POINTS, MAX_J, MAX_N, MAX_N_LIST,
                       MAX_TRIALS, _fmt, _parse_grid, main)
from gldpc.ensemble import (
    MAX_DECIMAL_EXPONENT,
    CheckNodeType,
    CnMixture,
    VnRegularEnsemble,
    design_rate,
)
from gldpc.growth import find_critical_ratio
from gldpc.sampler import MAX_EDGES
from gldpc.specfile import (
    MAX_CN_LENGTH,
    SpecFileError,
    load_spec_file,
    parse_spec_dict,
)

from conftest import SPEC_DIR, spec_path

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run(args):
    return main(args)


def run_fast(args, capsys):
    """Run a command that must exit 2 in under 1 s; return its stderr."""
    start = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - start < 1.0
    return capsys.readouterr().err


class TestSpecFiles:
    def test_corpus_analyzes(self, tmp_path):
        paths = sorted(glob.glob(os.path.join(SPEC_DIR, "*.json")))
        assert paths
        for i, path in enumerate(paths):
            out = tmp_path / f"report{i}.json"
            assert run(["analyze", path, "--out", str(out)]) == 0, path
            json.loads(out.read_text())

    def test_bad_rho_sum_names_constraint(self, tmp_path):
        doc = {"cn_types": [{"kind": "spc", "s": 3}], "rho": ["9/10"], "q": 2}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SpecFileError, match="sum to 1"):
            load_spec_file(str(p))

    def test_json_error_reports_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"cn_types": [}')
        with pytest.raises(SpecFileError, match="line 1"):
            load_spec_file(str(p))

    def test_unknown_kind(self, tmp_path):
        doc = {"cn_types": [{"kind": "bch", "s": 3}], "rho": ["1"], "q": 2}
        p = tmp_path / "kind.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SpecFileError, match="kind"):
            load_spec_file(str(p))

    def test_explicit_parity_parsed(self):
        spec = load_spec_file(spec_path("explicit_type.json"))
        (t,) = spec.mixture.types
        assert (t.s, t.k, t.r) == (4, 2, 2)
        assert t.wef.coeffs == (1, 0, 2, 0, 1)

    def test_views_built_on_the_shared_mixture(self):
        spec = load_spec_file(spec_path("dual_view.json"))
        assert spec.vn_regular.q == 2
        assert dict(spec.unstructured.lam) == {2: Fraction(1, 10), 3: Fraction(9, 10)}
        assert spec.vn_regular.mixture is spec.unstructured.mixture is spec.mixture
        single = load_spec_file(spec_path("spc3_q2.json"))
        assert single.unstructured is None and single.vn_regular.q == 2

    # the later key used to replace the earlier one: {"2": "1", "02": "1"} loaded
    # as lambda_2 = 1, and two halves failed as "must sum to 1 ... got 0.5"
    @pytest.mark.parametrize("first,second,val", [
        ("2", "02", "1"), ("2", "02", "1/2"), ("2", " 2", "1/2"), ("2", "+2", "1/2"),
        ("3", "03", "1/4"),
    ])
    def test_lambda_keys_spelling_one_degree_exit_2(self, tmp_path, capsys,
                                                    first, second, val):
        lam = {first: val, second: val}
        if first != "2":
            lam["2"] = "1/2"
        p = tmp_path / "dup.json"
        p.write_text(json.dumps({"cn_types": [{"kind": "spc", "s": 3}], "rho": ["1"],
                                 "lambda": lam}))
        err = run_fast(["analyze", str(p)], capsys)
        assert f"lambda keys {first!r} and {second!r} both spell degree {int(first)}" in err

    def test_needs_some_vn_view(self, tmp_path):
        doc = {"cn_types": [{"kind": "spc", "s": 3}], "rho": ["1"]}
        p = tmp_path / "noview.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SpecFileError, match="'q' and/or 'lambda'"):
            load_spec_file(str(p))


class TestParityRows:
    """Parity rows, given as bit strings or built for a Hamming type, are checked:
    a bad one exits 2 naming the field."""

    @pytest.mark.parametrize("entry,message", [
        ({"kind": "hamming", "s": 6},
         "cn_types[0]: invalid Hamming length 6: s + 1 must be a power of two"),
        ({"kind": "explicit", "s": 4, "parity": ["1021"]},
         "cn_types[0].parity: invalid bit character '2' in '1021'"),
        ({"kind": "explicit", "s": 4, "parity": ["101"]},
         "cn_types[0].parity: row '101' has length 3, expected 4"),
    ], ids=["hamming-length", "bit-character", "row-length"])
    def test_bad_type_exits_2(self, tmp_path, capsys, entry, message):
        p = tmp_path / "type.json"
        p.write_text(json.dumps({"cn_types": [entry], "rho": ["1"], "q": 2}))
        err = run_fast(["analyze", str(p)], capsys)
        assert f"error: {p}: {message}\n" == err

    @pytest.mark.parametrize("row", [3, [1, 1, 0, 0], [True, True, False, False]],
                             ids=["number", "array", "booleans"])
    def test_non_string_row_exits_2(self, tmp_path, capsys, row):
        # a number row used to end in a TypeError traceback; arrays were accepted
        p = tmp_path / "rows.json"
        p.write_text(json.dumps({"cn_types": [{"kind": "explicit", "s": 4,
                                               "parity": ["0011", row]}],
                                 "rho": ["1"], "q": 2}))
        err = run_fast(["analyze", str(p)], capsys)
        assert "cn_types[0].parity: row 1: expected a bit string" in err


class TestAnalyze:
    def test_degree2_dense_spec(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["analyze", spec_path("spc3_q2.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["weight2_density"]["value"] == 2.0
        assert report["vn_regular"]["verdict"].startswith("not_exists")
        assert report["vn_regular"]["critical_ratio"]["value"] is None

    def test_hamming15_rate(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["analyze", spec_path("hamming15_q2.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["vn_regular"]["design_rate"]["value"] - 7 / 15) < 1e-12
        assert report["vn_regular"]["verdict"] == "exists"

    def test_dual_view_reports_both(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["analyze", spec_path("dual_view.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "vn_regular" in report and "unstructured" in report
        ub = report["unstructured"]["min_distance_prob_bound"]
        assert not ub["vacuous"]
        assert abs(ub["value"] - 0.020620726159657596) < 1e-12

    def test_vacuous_bound_reported(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["analyze", spec_path("alldeg2_spc3.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        ub = report["unstructured"]["min_distance_prob_bound"]
        assert ub["vacuous"] and ub["value"] is None

    # reports written before the root search stopped its scan at the root
    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SPEC_DIR, "*.json"))),
                             ids=os.path.basename)
    def test_golden_reports(self, tmp_path, path):
        out = tmp_path / "report.json"
        assert run(["analyze", path, "--out", str(out)]) == 0
        name = os.path.splitext(os.path.basename(path))[0]
        with open(os.path.join(GOLDEN_DIR, f"analyze_{name}.json"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["analyze", str(tmp_path / "nope.json")]) == 3

    def test_invalid_spec_is_validation_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"cn_types": [{"kind": "spc", "s": 3}],
                                 "rho": ["9/10"], "q": 2}))
        assert run(["analyze", str(p)]) == 2


class TestSweep:
    def test_grid_row_count_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        spec = spec_path("mixed_spc3_hamming7_q2.json")
        assert run(["sweep", spec, "--gamma-grid", "0:1:0.05",
                    "--out", str(out1)]) == 0
        assert run(["sweep", spec, "--gamma-grid", "0:1:0.05",
                    "--out", str(out2)]) == 0
        rows = out1.read_text().strip().split("\n")
        assert rows[0] == "gamma1,rho1,design_rate,critical_ratio,verdict,delta_gv"
        assert len(rows) == 22
        assert out1.read_bytes() == out2.read_bytes()

    # the two Hamming-pair sweeps of the benchmark, written before the scan
    # stopped at the last root of the batch; the specs are not in tests/specs,
    # whose every file is analyzed
    @pytest.mark.parametrize("name,lengths", [("hamming63_31_q2", (63, 31)),
                                              ("hamming31_15_q2", (31, 15))])
    def test_golden_sweeps(self, tmp_path, name, lengths):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"cn_types": [{"kind": "hamming", "s": s} for s in lengths],
                                    "rho": ["1/2", "1/2"], "q": 2}))
        out = tmp_path / "s.csv"
        assert run(["sweep", str(spec), "--gamma-grid", "0:1:0.05", "--out", str(out)]) == 0
        with open(os.path.join(GOLDEN_DIR, f"sweep_{name}.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_single_type_spec_rejected(self, tmp_path):
        assert run(["sweep", spec_path("spc3_q2.json"),
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_endpoints_match_analyze(self, tmp_path):
        out = tmp_path / "s.csv"
        spec = spec_path("mixed_spc3_hamming7_q2.json")
        assert run(["sweep", spec, "--gamma-grid", "0:1:1", "--out", str(out)]) == 0
        header, first, last = out.read_text().strip().split("\n")
        # gamma1=0 leaves only the Hamming type; gamma1=1 only the SPC type
        assert first.split(",")[0] == "0"
        assert abs(float(first.split(",")[2]) - (1 - 2 * 3 / 7)) < 1e-12
        assert last.split(",")[4].startswith("not_exists")

    def test_underflowing_type_weight(self, tmp_path):
        # at gamma1 = 1e-330 the Hamming-63 edge weight rho_1/63 underflows to
        # 0.0; it used to reach log(0) in the scan ends and exit 2
        doc = {"cn_types": [{"kind": "hamming", "s": 63}, {"kind": "hamming", "s": 31}],
               "rho": ["1/2", "1/2"], "q": 2}
        spec = tmp_path / "h63_h31.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sweep", str(spec), "--gamma-grid", "1e-330:1e-330:1",
                        "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        # the point is solved as the Hamming-31 type alone
        alone = VnRegularEnsemble(mixture=CnMixture.of([CheckNodeType.hamming(31)], [1]), q=2)
        curve = find_critical_ratio(alone)
        expected = [_fmt(design_rate(alone)), _fmt(curve.critical_ratio), curve.verdict]
        assert len(rows) == 1
        assert rows[0].split(",")[2:5] == expected

    @pytest.mark.parametrize("grid,points,printed", [
        ("0:1e-330:1e-330", "0 and 1e-330", "0"),
        ("1:1.000000000001:1e-13", "1 and 1.0000000000001", "1"),
    ])
    def test_grid_points_printed_alike(self, tmp_path, capsys, grid, points, printed):
        # sweep prints gamma1 as a float: two rows it cannot tell apart are refused
        out = tmp_path / "x.csv"
        assert run(["sweep", spec_path("mixed_spc3_hamming7_q2.json"),
                    "--gamma-grid", grid, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"points {points} of {grid!r} both print as {printed}" in err
        assert not out.exists()

    def test_default_grid_prints_every_point_apart(self):
        grid = _parse_grid("0:1:0.05")
        assert len({_fmt(float(x)) for x in grid}) == len(grid) == 21

    @pytest.mark.parametrize("grid", ["0:1", "0:1:1e-9", "0:1e9:1"])
    def test_bad_grid(self, tmp_path, capsys, grid):
        # the two oversized grids are refused from their point count alone
        assert run(["sweep", spec_path("mixed_spc3_hamming7_q2.json"),
                    "--gamma-grid", grid, "--out", str(tmp_path / "x.csv")]) == 2
        assert "--gamma-grid" in capsys.readouterr().err

    def test_grid_cap_is_inclusive(self):
        assert len(_parse_grid("0:1:1/10000")) == MAX_GRID_POINTS
        with pytest.raises(SpecFileError, match=str(MAX_GRID_POINTS)):
            _parse_grid("0:1:1/10001")

    def test_zero_denominator_grid(self, tmp_path, capsys):
        assert run(["sweep", spec_path("mixed_spc3_hamming7_q2.json"),
                    "--gamma-grid", "0:1:1/0", "--out", str(tmp_path / "x.csv")]) == 2
        assert "--gamma-grid" in capsys.readouterr().err


class TestDecimalExponentCap:
    """A huge decimal exponent is refused before Fraction expands 10**exponent."""

    def test_gamma_grid(self, tmp_path, capsys):
        err = run_fast(["sweep", spec_path("mixed_spc3_hamming7_q2.json"),
                        "--gamma-grid", "0:1:1e-999999999",
                        "--out", str(tmp_path / "x.csv")], capsys)
        assert "--gamma-grid" in err and f"cap of {MAX_DECIMAL_EXPONENT}" in err

    @pytest.mark.parametrize("field,doc", [
        ("rho", {"rho": ["1e-99999999"], "q": 2}),
        ("lambda", {"rho": ["1"], "lambda": {"2": "1e-99999999"}}),
    ], ids=["rho", "lambda"])
    def test_spec_field(self, tmp_path, capsys, field, doc):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"cn_types": [{"kind": "spc", "s": 3}], **doc}))
        err = run_fast(["analyze", str(p)], capsys)
        assert field in err and f"cap of {MAX_DECIMAL_EXPONENT}" in err


class TestCnLengthCap:
    """A CN type longer than MAX_CN_LENGTH is refused before it is built."""

    @pytest.mark.parametrize("kind", ["spc", "hamming", "explicit"])
    @pytest.mark.parametrize("s", [MAX_CN_LENGTH + 1, 10**9])
    def test_over_cap_exits_2(self, tmp_path, capsys, kind, s):
        long_type = {"kind": kind, "s": s, "parity": ["1" * 8]}
        p = tmp_path / "long.json"
        p.write_text(json.dumps({"cn_types": [{"kind": "spc", "s": 3}, long_type],
                                 "rho": ["1/2", "1/2"], "q": 2}))
        err = run_fast(["analyze", str(p)], capsys)
        assert "cn_types[1].s" in err and f"cap of {MAX_CN_LENGTH}" in err

    def test_cap_is_inclusive(self):
        spec = parse_spec_dict({"cn_types": [{"kind": "hamming", "s": MAX_CN_LENGTH}],
                                "rho": ["1"], "q": 2})
        assert spec.mixture.types[0].s == MAX_CN_LENGTH == 1023


class TestSample:
    def test_byte_identical_runs(self, tmp_path):
        spec = spec_path("alldeg2_spc3.json")
        outputs = []
        for _ in range(3):
            out = tmp_path / f"s{len(outputs)}.json"
            assert run(["sample", spec, "--n", "30", "--trials", "50",
                        "--alpha", "0.034", "--seed", "7",
                        "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    # records written by an earlier release, whose sampler stored each CN as a
    # tuple of VNs: a change of representation must draw the same graphs. The
    # last three pin the exact-distance search: a word found at or below the
    # threshold, a lower bound above it, one information set and several
    @pytest.mark.parametrize("spec,n,trials,alpha", [
        ("bound_mix", "147", "200", "0.02"),
        ("hamming7_q2", "140", "4", "0.18"),
        ("hamming15_q2", "60", "4", "0.1"),
        ("mixed_spc3_hamming7_q2", "84", "4", "0.1"),
        ("explicit_type", "52", "4", "0.1"),
    ])
    def test_golden_records(self, tmp_path, spec, n, trials, alpha):
        out = tmp_path / "sample.json"
        assert run(["sample", spec_path(f"{spec}.json"), "--n", n, "--trials", trials,
                    "--alpha", alpha, "--seed", "5", "--out", str(out)]) == 0
        golden = os.path.join(GOLDEN_DIR, f"sample_{spec}.json")
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()

    # +-1e308 is finite, but alpha * n is not: it used to end in an OverflowError
    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan", "1e308", "-1e308"])
    def test_non_finite_alpha_rejected(self, tmp_path, capsys, alpha):
        err = run_fast(["sample", spec_path("alldeg2_spc3.json"), "--n", "30",
                        "--trials", "5", f"--alpha={alpha}", "--seed", "1",
                        "--out", str(tmp_path / "x.json")], capsys)
        assert "--alpha must make alpha * n finite" in err
        assert not (tmp_path / "x.json").exists()

    # a negative alpha used to print a negative threshold_d and a 0-count record
    @pytest.mark.parametrize("alpha", ["-0.5", "-1e-9"])
    def test_negative_alpha_rejected(self, tmp_path, capsys, alpha):
        err = run_fast(["sample", spec_path("bound_mix.json"), "--n", "147",
                        "--trials", "3", f"--alpha={alpha}", "--seed", "1",
                        "--out", str(tmp_path / "x.json")], capsys)
        assert f"--alpha must be non-negative, got {float(alpha)}" in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("flag,cap", [("--n", MAX_N), ("--trials", MAX_TRIALS)])
    def test_size_over_cap_exits_2(self, tmp_path, capsys, flag, cap):
        sizes = {"--n": "147", "--trials": "2", flag: str(cap + 1)}
        err = run_fast(["sample", spec_path("bound_mix.json"), "--n", sizes["--n"],
                        "--trials", sizes["--trials"], "--alpha", "0.02",
                        "--out", str(tmp_path / "x.json")], capsys)
        assert f"{flag}: {cap + 1} is more than the cap of {cap}" in err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # numpy's own refusal did not name the flag
        err = run_fast(["sample", spec_path("bound_mix.json"), "--n", "147", "--trials", "2",
                        "--alpha", "0.02", "--seed", "-1",
                        "--out", str(tmp_path / "x.json")], capsys)
        assert "--seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "x.json").exists()

    def test_size_caps_are_inclusive(self, tmp_path, capsys):
        # both caps pass; the run stops at the plan, since 147 does not divide MAX_N
        err = run_fast(["sample", spec_path("bound_mix.json"), "--n", str(MAX_N),
                        "--trials", str(MAX_TRIALS), "--alpha", "0.02",
                        "--out", str(tmp_path / "x.json")], capsys)
        assert "cap" not in err and "divisibility violation" in err

    @staticmethod
    def _one_degree_spec(tmp_path, view):
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({"cn_types": [{"kind": "spc", "s": 2}], "rho": ["1"],
                                 **view}))
        return str(p)

    @pytest.mark.parametrize("view,n,edges", [
        ({"q": MAX_EDGES // 2 + 1}, 2, MAX_EDGES + 2),
        ({"lambda": {str(MAX_EDGES // 10): "1"}}, 11, MAX_EDGES // 10 * 11),
    ], ids=["q", "lambda"])
    def test_edges_over_cap_exit_2(self, tmp_path, capsys, view, n, edges):
        # q and the lambda degrees have no cap of their own, so a small n could
        # still draw an unbounded code
        spec = self._one_degree_spec(tmp_path, view)
        err = run_fast(["sample", spec, "--n", str(n), "--trials", "1", "--alpha", "0.1",
                        "--out", str(tmp_path / "x.json")], capsys)
        assert f"n = {n} gives {edges} edges, more than the cap of {MAX_EDGES}" in err

    def test_edge_cap_is_inclusive(self, tmp_path):
        spec = self._one_degree_spec(tmp_path, {"lambda": {str(MAX_EDGES // 10): "1"}})
        out = tmp_path / "x.json"
        assert run(["sample", spec, "--n", "10", "--trials", "1", "--alpha", "0.1",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["trials"] == 1

    def test_divisibility_failure_suggests_length(self, tmp_path, capsys):
        assert run(["sample", spec_path("bound_mix.json"), "--n", "200",
                    "--trials", "5", "--alpha", "0.02", "--seed", "1",
                    "--out", str(tmp_path / "x.json")]) == 2
        assert "294" in capsys.readouterr().err

    def test_vn_regular_warns_above_critical_ratio(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run(["sample", spec_path("hamming15_q2.json"), "--n", "15",
                    "--trials", "5", "--alpha", "0.5", "--seed", "3",
                    "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["warnings"]
        assert "critical ratio" in capsys.readouterr().err

    def test_dual_view_needs_flag(self, tmp_path):
        assert run(["sample", spec_path("dual_view.json"), "--n", "147",
                    "--trials", "2", "--alpha", "0.02", "--seed", "1",
                    "--out", str(tmp_path / "x.json")]) == 2
        assert run(["sample", spec_path("dual_view.json"), "--n", "147",
                    "--trials", "2", "--alpha", "0.02", "--seed", "1",
                    "--ensemble", "unstructured",
                    "--out", str(tmp_path / "y.json")]) == 0

    def test_reference_values_included(self, tmp_path):
        out = tmp_path / "ref.json"
        assert run(["sample", spec_path("bound_mix.json"), "--n", "147",
                    "--trials", "10", "--alpha", "0.02", "--seed", "5",
                    "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        ref = record["reference"]
        assert abs(ref["prob_min_distance_one"] - 0.019801326693244702) < 1e-12
        assert abs(ref["min_distance_prob_bound"] - 0.020620726159657596) < 1e-12


class TestViewSelection:
    """Which VN view each command reads from a spec, and what it says on stderr."""

    SAMPLE = ["--n", "147", "--trials", "2", "--alpha", "0.02", "--seed", "1"]

    def test_sweep_needs_vn_regular_view(self, tmp_path, capsys):
        assert run(["sweep", spec_path("bound_mix.json"),
                    "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: spec has no 'q' field (VN-regular view)\n")

    def test_coef_convergence_needs_unstructured_view(self, tmp_path, capsys):
        assert run(["coef-convergence", spec_path("spc3_q2.json"), "--j", "1",
                    "--n-list", "3", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: spec has no 'lambda' field (unstructured view)\n")

    def test_sample_dual_view_without_flag(self, tmp_path, capsys):
        assert run(["sample", spec_path("dual_view.json"), *self.SAMPLE,
                    "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == (
            "error: spec has both 'q' and 'lambda'; pick one with "
            "--ensemble {vn-regular,unstructured}\n")

    @pytest.mark.parametrize("flag,spec,field", [
        ("vn-regular", "bound_mix.json", "'q' field (VN-regular view)"),
        ("unstructured", "spc3_q2.json", "'lambda' field (unstructured view)")])
    def test_sample_flag_needs_its_view(self, tmp_path, capsys, flag, spec, field):
        assert run(["sample", spec_path(spec), *self.SAMPLE, "--ensemble", flag,
                    "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == f"error: spec has no {field}\n"

    @pytest.mark.parametrize("argv,notice", [
        (["sweep", "--gamma-grid", "0:1:1"], "'lambda' block for sweep"),
        (["coef-convergence", "--j", "1", "--n-list", "147"],
         "'q' block for coef-convergence"),
        (["sample", *SAMPLE, "--ensemble", "unstructured"], "'q' block for sample"),
    ], ids=["sweep", "coef-convergence", "sample"])
    def test_dual_view_notice(self, tmp_path, capsys, argv, notice):
        command, *opts = argv
        assert run([command, spec_path("dual_view.json"), *opts,
                    "--out", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().err == f"notice: ignoring the spec's {notice}\n"

    def test_sample_vn_regular_notice_precedes_sampling(self, tmp_path, capsys):
        assert run(["sample", spec_path("dual_view.json"), "--n", "140", "--trials", "2",
                    "--alpha", "0.02", "--ensemble", "vn-regular",
                    "--out", str(tmp_path / "x.json")]) == 2
        notice, error = capsys.readouterr().err.splitlines()
        assert notice == "notice: ignoring the spec's 'lambda' block for sample"
        assert error.startswith("error: divisibility violation") and "210" in error


class TestCoefConvergence:
    def test_first_order_ratio_is_one(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["coef-convergence", spec_path("alldeg2_spc3.json"),
                    "--j", "1", "--n-list", "3,30,300",
                    "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "n,cn_total,edges,j,exact_coef,limit_value,ratio"
        assert all(r.split(",")[6] == "1" for r in rows[1:])

    def test_second_order_ratios_increase(self, tmp_path):
        out = tmp_path / "c2.csv"
        assert run(["coef-convergence", spec_path("alldeg2_spc3.json"),
                    "--j", "2", "--n-list", "30,300,3000",
                    "--out", str(out)]) == 0
        ratios = [float(r.split(",")[6])
                  for r in out.read_text().strip().split("\n")[1:]]
        assert ratios == sorted(ratios)
        assert all(r < 1 for r in ratios)
        # closed form (m-1)/m per row
        ms = [20, 200, 2000]
        for got, m in zip(ratios, ms):
            assert abs(got - (m - 1) / m) < 1e-11

    def test_rejects_zero_j(self, tmp_path):
        assert run(["coef-convergence", spec_path("alldeg2_spc3.json"),
                    "--j", "0", "--n-list", "3",
                    "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("j,n_list,message", [
        ("100", "30000", "j=100) at 60000 edges exceeds the float range"),
        ("200", "30", f"--j: 200 is more than the cap of {MAX_J}"),
        ("3000", "30000", f"--j: 3000 is more than the cap of {MAX_J}"),
    ])
    def test_large_j_exits_2(self, tmp_path, capsys, j, n_list, message):
        err = run_fast(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", j,
                        "--n-list", n_list, "--out", str(tmp_path / "x.csv")], capsys)
        assert message in err

    def test_n_list_cap_is_inclusive(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", "1",
                    "--n-list", ",".join(["3"] * MAX_N_LIST), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + MAX_N_LIST

    def test_long_n_list_exits_2_before_any_row(self, tmp_path, capsys, monkeypatch):
        import gldpc.cli

        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(gldpc.cli.bounds, "even_coef_convergence", no_rows)
        err = run_fast(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", str(MAX_J),
                        "--n-list", ",".join(["22947"] * (MAX_N_LIST + 1)),
                        "--out", str(tmp_path / "x.csv")], capsys)
        assert (f"--n-list: {MAX_N_LIST + 1} block lengths, more than the cap of "
                f"{MAX_N_LIST}") in err

    # a row's cost grows with log n, so one large entry alone could take many seconds
    @pytest.mark.parametrize("n", [MAX_COEF_N + 1, 3 * 10**400],
                             ids=["just-over", "edges-beyond-float"])
    def test_n_over_cap_exits_2_before_any_row(self, tmp_path, capsys, monkeypatch, n):
        import gldpc.cli

        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(gldpc.cli.bounds, "even_coef_convergence", no_rows)
        err = run_fast(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", "2",
                        "--n-list", f"30,{n}", "--out", str(tmp_path / "x.csv")], capsys)
        assert f"--n-list: {n} is more than the cap of {MAX_COEF_N}" in err

    # int() refuses an entry of more than 4300 digits, leading zeros included
    def test_n_past_int_digit_limit_exits_2_naming_cap(self, tmp_path, capsys,
                                                        monkeypatch):
        import gldpc.cli

        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(gldpc.cli.bounds, "even_coef_convergence", no_rows)
        n = "1" + "0" * 4300
        err = run_fast(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", "2",
                        "--n-list", f"30,{n}", "--out", str(tmp_path / "x.csv")], capsys)
        assert f"error: --n-list: {n} is more than the cap of {MAX_COEF_N}\n" == err

    def test_leading_zeros_past_int_digit_limit(self, tmp_path):
        short, padded = tmp_path / "short.csv", tmp_path / "padded.csv"
        for n, out in (("30", short), ("0" * 4300 + "30", padded)):
            assert run(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", "2",
                        "--n-list", n, "--out", str(out)]) == 0
        assert padded.read_text() == short.read_text()

    @pytest.mark.parametrize("n_list", ["", ",", ",,"])
    def test_empty_n_list_exits_2_before_any_row(self, tmp_path, capsys, monkeypatch,
                                                  n_list):
        import gldpc.cli

        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(gldpc.cli.bounds, "even_coef_convergence", no_rows)
        out = tmp_path / "x.csv"
        err = run_fast(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", "2",
                        "--n-list", n_list, "--out", str(out)], capsys)
        assert err == "error: --n-list: expected at least one block length\n"
        assert not out.exists()

    def test_n_cap_is_inclusive(self, tmp_path, monkeypatch):
        import gldpc.cli

        seen = []
        monkeypatch.setattr(gldpc.cli.bounds, "even_coef_convergence",
                            lambda view, j, n_list: seen.extend(n_list) or [])
        assert run(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", "2",
                    "--n-list", str(MAX_COEF_N), "--out", str(tmp_path / "x.csv")]) == 0
        assert seen == [MAX_COEF_N]

    def test_j_cap_is_inclusive(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["coef-convergence", spec_path("alldeg2_spc3.json"), "--j", str(MAX_J),
                    "--n-list", "300", "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].split(",")[3] == str(MAX_J)

    def test_needs_unstructured_view(self, tmp_path):
        assert run(["coef-convergence", spec_path("spc3_q2.json"),
                    "--j", "1", "--n-list", "3",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestRepeatedCalls:
    """main may be called many times in one process: the parser is built once,
    each command is looked up on gldpc.cli by name, and no call changes the next."""

    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        import argparse

        argv = ["analyze", spec_path("spc3_q2.json")]
        assert run(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(argv) == 0
        assert built == []

    def test_command_replaced_after_first_call_runs(self, monkeypatch, capsys):
        import gldpc.cli

        argv = ["analyze", spec_path("spc3_q2.json")]
        assert run(argv) == 0
        seen = []

        def stand_in(args):
            seen.append(args.spec)
            return 7

        monkeypatch.setattr(gldpc.cli, "cmd_analyze", stand_in)
        capsys.readouterr()
        assert run(argv) == 7
        assert seen == [argv[1]]
        assert capsys.readouterr().out == ""

    def test_rejected_call_leaves_no_state(self, capsys):
        valid = ["sample", spec_path("bound_mix.json"), "--n", "147", "--trials", "20",
                 "--alpha", "0.02", "--seed", "3", "--out", "-"]
        assert run(valid) == 0
        alone = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run([a for a in valid if a not in ("--n", "147")])
        assert exc.value.code == 2
        rejected = capsys.readouterr()
        assert rejected.out == "" and rejected.err.startswith("usage: gldpc sample")
        assert "--n" in rejected.err
        assert run(valid) == 0
        assert capsys.readouterr() == alone

    @pytest.mark.parametrize("argv", [["--help"], ["coef-convergence", "--help"]])
    def test_help_prints_the_same_text_twice(self, capsys, argv):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]
        assert texts[0].out.startswith("usage: gldpc") and texts[0].err == ""
