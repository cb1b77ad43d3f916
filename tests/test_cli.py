import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from blochamp import ChannelSpec, HermitianPauliVector, cli, presets, save_spec
from blochamp.cli import build_parser, run_cli
from blochamp.dynamics import CSV_HEADER

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "simulate", "--preset", "linear_cptp",
                           "--m", "1", "--t", "2", "--samples", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[0]) == 2.0
        assert float(last[1]) == pytest.approx(1.0, abs=1e-10)

    def test_csv_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "simulate", "--preset", "linear_cptp",
                         "--m", "1", "--t", "2", "--out", str(out_file))
        assert code == 0
        content = out_file.read_text().strip().split("\n")
        assert content[0] == CSV_HEADER
        assert len(content) > 2

    def test_spec_file_input(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        save_spec(presets.onejump_nino(1.0), spec_file)
        code, out, _ = run(capsys, "simulate", "--spec", str(spec_file),
                           "--t", "1", "--samples", "3")
        assert code == 0
        assert out.startswith(CSV_HEADER)

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "simulate", "--t", "1")
        assert code == 1 and "error" in err

    def test_bad_preset_params(self, capsys):
        code, _, err = run(capsys, "simulate", "--preset", "threejump_nino",
                           "--M", "1", "--gamma", "3", "--t", "1")
        assert code == 1 and "M >= gamma/2" in err

    def test_blow_up_is_named(self, tmp_path, capsys):
        spec_file = tmp_path / "blow_up.json"
        save_spec(ChannelSpec(HermitianPauliVector([-1.0, 0, 0, 0]), g=1.0), spec_file)
        code, out, err = run(capsys, "simulate", "--spec", str(spec_file),
                             "--tau0", "1.5", "--t", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: the state diverges at t* = 0.5493061443340")

    @pytest.mark.parametrize("samples", ["0", "1", "-3"])
    def test_samples_below_two_rejected(self, capsys, samples):
        code, out, err = run(capsys, "simulate", "--preset", "linear_cptp",
                             "--t", "1", f"--samples={samples}")
        assert code == 1 and out == ""
        assert err == f"error: --samples must be at least 2, got {samples}\n"

    def test_nan_tolerance_rejected(self, capsys):
        code, out, err = run(capsys, "simulate", "--preset", "linear_cptp",
                             "--t", "1", "--rtol", "nan")
        assert code == 1 and out == ""
        assert err.startswith("error: rtol must be finite")


class TestReports:
    def test_fixed_points_json(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--preset", "linear_cptp",
                           "--m", "1")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["points"]) == 1
        assert rep["points"][0]["stability"] == "stable"
        assert rep["points"][0]["r"] == pytest.approx([1, 0, 0], abs=1e-9)

    def test_fixed_line_json(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--preset",
                           "threejump_nino", "--M", "1", "--gamma", "1")
        rep = json.loads(out)
        assert code == 0
        assert len(rep["fixed_lines"]) == 1

    def test_slowdown_json(self, capsys):
        code, out, _ = run(capsys, "slowdown", "--preset", "onejump_nino",
                           "--m", "1", "--fp", "1,0,0", "--dir", "1,0,0")
        assert code == 0
        assert json.loads(out)["exponent"] == pytest.approx(2.0, abs=0.02)

    def test_slowdown_default_fixed_plane(self, capsys):
        # The one-jump gate rests on the plane x = 1; without --fp the probe
        # starts from the point of its first fixed line, (1, 0, 0).
        code, out, _ = run(capsys, "slowdown", "--preset", "onejump_nino",
                           "--m", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["fixed_point"] == pytest.approx([1, 0, 0], abs=1e-12)
        assert rep["exponent"] == pytest.approx(2.0, abs=1e-9)

    def test_stability_json(self, capsys):
        code, out, _ = run(capsys, "stability", "--preset",
                           "pseudolinear_nino", "--m", "1",
                           "--tau0", "1.05", "--t", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["plane_attracting"]
        assert rep["final_trace_deviation"] < rep["initial_trace_deviation"]
        assert rep["classification"]["pseudo_linear"]

    def test_choi_flags_noncp(self, capsys):
        code, out, _ = run(capsys, "choi", "--preset", "linear_noncp",
                           "--M", "1", "--gamma", "0.5", "--t", "0.05")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["eigenvalues"]) == 4
        assert rep["min_eigenvalue"] < 0
        assert not rep["completely_positive"]

    def test_choi_scan(self, capsys):
        code, out, _ = run(capsys, "choi", "--preset", "linear_cptp",
                           "--m", "1", "--t", "1.0", "--scan", "5")
        rep = json.loads(out)
        assert code == 0
        assert len(rep) == 5
        assert all(r["completely_positive"] for r in rep)

    @pytest.mark.parametrize("scan", ["0", "-2"])
    def test_choi_scan_below_one_rejected(self, capsys, scan):
        code, out, err = run(capsys, "choi", "--preset", "linear_cptp",
                             "--m", "1", "--t", "1.0", "--scan", scan)
        assert code == 1 and out == ""
        assert err == f"error: --scan must be at least 1, got {scan}\n"

    def test_choi_cp_flag_scales_with_the_trace(self, tmp_path, capsys):
        # A CP channel that does not preserve the trace: at t = 15 its Choi
        # trace is 3.75e17 and roundoff leaves eigenvalues near -133.
        spec_file = tmp_path / "growing.json"
        spec_file.write_text(json.dumps({
            "ell": [1, 0.3, 0, 0], "g": 0,
            "jumps": [{"xi_re": [0, 0, 1, 0], "xi_im": [0, 0, 0, 1], "zeta": 1}]}))
        code, out, _ = run(capsys, "choi", "--spec", str(spec_file), "--t", "15")
        assert code == 0
        rep = json.loads(out)
        assert rep["min_eigenvalue"] < -100.0 and sum(rep["eigenvalues"]) > 3e17
        assert rep["completely_positive"]

    def test_choi_rejects_nonlinear(self, capsys):
        code, _, err = run(capsys, "choi", "--preset", "onejump_nino",
                           "--m", "1", "--t", "0.1")
        assert code == 1 and "linear" in err

    def test_gate_plan_json(self, capsys):
        code, out, _ = run(capsys, "gate-plan", "--gate", "three_jump",
                           "--M", "1", "--gamma", "0.5",
                           "--target-purity", "0.99005")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["stages"]) == 2
        assert rep["achieved"]["purity"] == pytest.approx(0.99005, abs=1e-6)


class TestSweep:
    def test_rows_per_observable(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "linear_cptp",
                           "--param", "m", "--values", "0.5,1.0",
                           "--t", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,value,observable,result"
        assert len(lines) == 1 + 2 * 7
        row = lines[1].split(",")
        assert row[0] == "m" and row[2] == "tau"


class TestNegativeValues:
    def test_exponent_form_initial_coordinate(self, capsys):
        code, out, err = run(capsys, "simulate", "--preset", "linear_cptp",
                             "--x0", "-5.3e-05", "--t", "1", "--samples", "2")
        assert code == 0, err
        assert float(out.split("\n")[1].split(",")[2]) == -5.3e-05

    def test_exponent_form_direction(self, capsys):
        code, out, err = run(capsys, "slowdown", "--preset", "linear_cptp",
                             "--dir", "-1e-3,0,1")
        assert code == 0, err
        assert json.loads(out)["direction"] == [-1e-3, 0.0, 1.0]


class TestVerify:
    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper", "--criteria",
                           "jump-generators,cptp-gate-closed-form")
        assert code == 0
        assert out.count("PASS") == 2
        assert "2/2 criteria passed" in out

    def test_unknown_criterion(self, capsys):
        code, _, err = run(capsys, "verify", "--criteria", "bogus")
        assert code == 1 and "bogus" in err


def test_readme_cli_examples_parse():
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = block.split("```")[1].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("blochamp ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


class TestParserReuse:
    COMMANDS = (
        ("stability", "--preset", "linear_cptp", "--t", "1"),
        ("simulate", "--preset", "linear_cptp", "--t", "0.5", "--samples", "3"),
        ("fixed-points", "--preset", "threejump_nino", "--M", "1", "--gamma", "0.5"),
    )

    @staticmethod
    def fresh(capsys, argv):
        args = build_parser().parse_args(list(argv))
        code = args.func(args)
        return code, capsys.readouterr().out

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_same_output_as_a_fresh_parser(self, capsys):
        # stability and simulate set different --tau0 defaults; an argparse
        # error (exit 2) in between must leave nothing behind either.
        assert run(capsys, "choi", "--scan")[0] == 2
        for argv in self.COMMANDS:
            code, out, _ = run(capsys, *argv)
            assert (code, out) == self.fresh(capsys, argv)
            assert run(capsys, "simulate")[0] == 2


def test_usage_error_exit_code(capsys):
    assert run_cli(["simulate"]) == 2  # missing required --t


def test_unknown_command_exit_code(capsys):
    assert run_cli(["frobnicate"]) == 2
