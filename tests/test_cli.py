import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import blochamp
from blochamp import (ChannelClass, ChannelSpec, HermitianPauliVector, IntegratorOpts,
                      PsdState, assemble, cli, presets, save_spec)
from blochamp.cli import build_parser, run_cli
from blochamp.dynamics import CSV_HEADER
from conftest import dp45, random_gksl_spec, random_nino_spec, random_pseudolinear_spec

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
        # A pure start stops at once, and its entropy prints as 0, not -0.
        code, out, _ = run(capsys, "simulate", "--preset", "linear_cptp", "--t", "1",
                           "--samples", "3", "--stop-on-surface", "--x0", "1")
        assert code == 0 and out == f"{CSV_HEADER}\n0,1,1,0,0,1,0,0,0\n"

    def test_csv_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "simulate", "--preset", "linear_cptp",
                         "--m", "1", "--t", "2", "--out", str(out_file))
        assert code == 0
        content = out_file.read_text().strip().split("\n")
        assert content[0] == CSV_HEADER
        assert len(content) > 2

    def test_csv_to_a_missing_directory_is_an_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "simulate", "--preset", "linear_cptp", "--t", "2",
                             "--out", str(tmp_path / "no" / "such" / "f.csv"))
        assert code == 1 and out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_reader_that_closes_the_pipe_is_not_an_error(self):
        # `simulate ... --out - | head -1`: the reader closes its end after
        # one line.  The 20,000 rows pass a pipe's buffer, so the writer
        # meets the closed end; it exits 0 with nothing on stderr.
        src = str(Path(blochamp.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "blochamp.cli", "simulate", "--preset", "linear_cptp",
             "--t", "2", "--samples", "20000", "--out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        try:
            assert proc.stdout.readline() == (CSV_HEADER + "\n").encode()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0, err
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert err == b""

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

    def test_grid_beyond_max_steps_refused(self, capsys):
        code, out, err = run(capsys, "simulate", "--preset", "linear_cptp", "--t", "1e6")
        assert code == 1 and out == ""
        assert err == ("error: the grid needs 4000000 steps, more than "
                       "max_steps = 2000000\n")


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_tolerance_flags_removed(capsys, command):
    for flag in ("--rtol", "--atol"):
        code, out, err = run(capsys, command, "--preset", "linear_cptp", "--t", "1",
                             flag, "1e-3")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 1e-3" in err
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and "--allow-off-cone" in out
    assert "--rtol" not in out and "--atol" not in out


# Each flag that takes comma-separated numbers, after a command that reads it.
NUMBER_FLAGS = {
    "--values": ("sweep", "--preset", "linear_cptp", "--param", "m", "--t", "1"),
    "--times": ("choi", "--preset", "linear_cptp"),
    "--fp": ("slowdown", "--preset", "linear_cptp"),
    "--dir": ("slowdown", "--preset", "linear_cptp", "--fp", "1,0,0"),
}


@pytest.mark.parametrize("flag", list(NUMBER_FLAGS))
def test_bad_number_list_names_flag_and_entry(capsys, flag):
    for value, entry in (("1,nan,0", "nan"), ("1,abc,0", "abc"), ("1,,0", ""),
                         ("-inf,0,1", "-inf"), ("1,0,1e999", "1e999")):
        code, out, err = run(capsys, *NUMBER_FLAGS[flag], f"{flag}={value}")
        assert (code, out) == (1, "")
        assert err == f"error: {flag}: {entry!r} is not a finite number\n"
    if flag in ("--fp", "--dir"):
        for value in ("1,0", "1,0,0,0", ""):
            code, out, err = run(capsys, *NUMBER_FLAGS[flag], f"{flag}={value}")
            assert (code, out) == (1, "")
            assert err == f"error: {flag} takes 3 comma-separated numbers, got {value!r}\n"


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
        assert list(rep["classification"]) == [f.name for f in fields(ChannelClass)]

    def test_fixed_points_json_keeps_its_shape(self, capsys):
        # Every eigenvalue prints as {"re", "im"}, also when all are real.
        for argv in (["--preset", "linear_cptp"],
                     ["--preset", "threejump_nino", "--gamma", "1"]):
            code, out, _ = run(capsys, "fixed-points", *argv)
            rep = json.loads(out)
            assert code == 0 and rep["points"] + rep["fixed_lines"]
            assert list(rep) == ["restricted_to_tau_plane", "points", "fixed_lines"]
            for p in rep["points"]:
                assert list(p) == ["r", "jacobian_eigenvalues", "stability", "residual"]
                assert all(list(e) == ["re", "im"] for e in p["jacobian_eigenvalues"])
            for line in rep["fixed_lines"]:
                assert list(line) == ["point", "direction", "marginal"]

    def test_slow_channels_keep_flags_and_labels(self, capsys):
        code, out, _ = run(capsys, "stability", "--preset", "linear_cptp",
                           "--m", "1e-7", "--t", "1")
        assert code == 0 and json.loads(out)["classification"]["unital"] is False
        code, out, _ = run(capsys, "fixed-points", "--preset", "linear_cptp", "--m", "1e-4")
        assert code == 0
        assert [p["stability"] for p in json.loads(out)["points"]] == ["stable"]

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

    def test_choi_overflow_is_named(self, capsys):
        # e^{At} of linear_noncp grows as e^{t/2}: at t = 1300 it still fits
        # in a double, at t = 2000 it does not, and no numpy warning shows.
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "choi", "--preset", "linear_noncp", "--t", "2000")
            assert code == 1 and out == "" and not seen
            assert err == "error: e^(At) at t = 2000 does not fit in a double\n"
            code, out, _ = run(capsys, "choi", "--preset", "linear_noncp", "--t", "1300")
        assert code == 0 and not seen
        assert json.loads(out)["min_eigenvalue"] == pytest.approx(-9.781e281, rel=1e-3)

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

    def test_gate_plan_takes_the_presets_parameters(self, capsys):
        code, _, err = run(capsys, "gate-plan", "--gate", "one_jump", "--M", "3",
                           "--target-purity", "0.9")
        assert code == 1 and "['M']" in err
        argv = ["gate-plan", "--gate", "three_jump", "--M", "1", "--target-purity", "0.9"]
        code, default, _ = run(capsys, *argv)
        assert code == 0 and default == run(capsys, *argv, "--gamma", "0.5")[1]
        code, _, err = run(capsys, "gate-plan", "--gate", "linear_non_cp", "--M", "1",
                           "--gamma", "1", "--target-purity", "0.9")
        assert code == 1 and "not unstable" in err


# A g = 0 channel whose Omega does not vanish: its trace grows from every state.
GROWING = {"ell": [1, 0.3, 0, 0], "g": 0,
           "jumps": [{"xi_re": [0, 0, 1, 0], "xi_im": [0, 0, 0, 1], "zeta": 1}]}


def _spec_file(tmp_path, data, name="spec.json"):
    spec_file = tmp_path / name
    spec_file.write_text(json.dumps(data))
    return str(spec_file)


class TestStability:
    """``stability`` reads the exact solution on its grid; DP45 is the oracle."""

    @staticmethod
    def report(capsys, monkeypatch, *argv):
        """The stability report, and the trajectory it was read from."""
        seen, real = [], cli.integrate

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(cli, "integrate", spy)
        code, out, err = run(capsys, "stability", *argv)
        assert code == 0, err
        return json.loads(out), seen[0]

    @staticmethod
    def oracle(spec, traj, opts):
        """The report's numbers from DP45 on the same times (a sampled
        extremum depends on where the samples fall)."""
        dp = dp45(spec, traj.state(0), float(traj.t[-1]), opts, sample_times=traj.t)
        assert np.array_equal(dp.t, traj.t)
        dev = np.abs(dp.tau - (1.0 / spec.g if spec.g else 1.0))
        return {
            "final_trace_deviation": float(dev[-1]),
            "tr_x_omega_min": float(dp.tr_x_omega.min()),
            "tr_x_omega_max": float(dp.tr_x_omega.max()),
            "deviation_monotone_decaying": bool(np.all(np.diff(dev) <= 1e-12)),
            "plane_attracting": bool(dev[-1] <= dev[0] + 1e-12),
        }

    def check_against_dp45(self, capsys, monkeypatch, spec, argv, opts):
        rep, traj = self.report(capsys, monkeypatch, *argv)
        assert len(traj) >= 201 and traj.stop_reason == "t_end"
        want = self.oracle(spec, traj, opts)
        for key in ("final_trace_deviation", "tr_x_omega_min", "tr_x_omega_max"):
            assert rep[key] == pytest.approx(want[key], rel=1e-9, abs=1e-9), key
        for key in ("deviation_monotone_decaying", "plane_attracting"):
            assert rep[key] == want[key], key

    @pytest.mark.parametrize("name, x0", [
        ("linear_cptp", 0.3), ("nojump_nino", 0.3), ("onejump_nino", 0.3),
        ("pseudolinear_nino", -0.4), ("threejump_nino", 1e-3), ("linear_noncp", 1e-3)])
    def test_presets_agree_with_dp45(self, capsys, monkeypatch, name, x0):
        spec = presets.expand_preset(presets.Preset(name, {}))
        self.check_against_dp45(capsys, monkeypatch, spec,
                                ["--preset", name, f"--x0={x0 * 1.05}"], IntegratorOpts())

    @pytest.mark.parametrize("family", [random_nino_spec, random_gksl_spec,
                                        random_pseudolinear_spec])
    def test_random_specs_agree_with_dp45(self, capsys, monkeypatch, tmp_path, rng,
                                          family):
        for i in range(4):
            spec = family(rng)
            path = tmp_path / f"{i}.json"
            save_spec(spec, path)
            argv = ["--spec", str(path), "--t", "1", "--x0", "0.2", "--allow-off-cone"]
            opts = IntegratorOpts(allow_off_cone=True)
            try:
                dp45(spec, PsdState(1.05, [0.2, 0, 0], physical=False), 1.0, opts)
            except blochamp.BlowUp as exc:
                # Both scan for t*, on grids of different sizes.
                code, _, err = run(capsys, "stability", *argv)
                assert code == 1 and err.startswith("error: the state diverges at t* = ")
                t_star = float(err.split(" t* = ", 1)[1].split(",", 1)[0])
                assert t_star == pytest.approx(exc.t, rel=1e-12)
                continue
            self.check_against_dp45(capsys, monkeypatch, spec, argv, opts)

    def test_deviation_is_measured_from_the_plane(self, capsys, monkeypatch, tmp_path):
        # g = 0.5 keeps the plane tau = 2: the deviation is |tau - 2|.
        spec = replace(presets.nojump_nino(0.2, 1.0), g=0.5)
        path = tmp_path / "half.json"
        save_spec(spec, path)
        rep, traj = self.report(capsys, monkeypatch, "--spec", str(path), "--t", "3")
        ys = assemble(spec).propagator(traj.t) @ [1.05, 0.0, 0.0, 0.0]
        dev = np.abs(ys[:, 0] / (1.0 + 0.5 * (ys[:, 0] - 1.05)) - 2.0)
        assert rep["initial_trace_deviation"] == 0.95
        assert rep["final_trace_deviation"] == pytest.approx(dev[-1], rel=0, abs=1e-14)
        assert rep["deviation_monotone_decaying"] == bool(np.all(np.diff(dev) <= 1e-12))
        assert rep["plane_attracting"] and dev[-1] < 3e-3

    def test_stop_on_surface_at_dp45_surface_time(self, capsys, monkeypatch):
        argv = ["--preset", "threejump_nino", "--tau0", "1", "--x0", "0.3", "--t", "10",
                "--stop-on-surface"]
        rep, traj = self.report(capsys, monkeypatch, *argv)
        assert traj.stop_reason == "surface" and traj.t[-1] < 10.0
        assert abs(traj.cone_margin[-1]) <= 1e-12
        dp = dp45(presets.threejump_nino(1.0, 0.5), PsdState(1.0, [0.3, 0, 0]), 10.0,
                  IntegratorOpts(stop_on_surface=True))
        assert dp.stop_reason == "surface"
        assert traj.t[-1] == pytest.approx(dp.t[-1], rel=1e-9)
        assert rep["final_trace_deviation"] == pytest.approx(
            abs(dp.tau[-1] - 1.0), abs=1e-9)

    def test_trace_preserving_plane_kept_to_roundoff(self, capsys):
        # tau stays 1.05 up to roundoff, which MONOTONE_TOL absorbs.
        code, out, _ = run(capsys, "stability", "--preset", "linear_cptp", "--m", "1",
                           "--x0", "0.3")
        rep = json.loads(out)
        assert code == 0
        assert rep["final_trace_deviation"] == pytest.approx(0.05, abs=1e-14)
        assert rep["plane_attracting"] and rep["deviation_monotone_decaying"]

    @pytest.mark.parametrize("argv", [
        ("--preset", "pseudolinear_nino", "--m", "1", "--t", "400"),
        ("--preset", "nojump_nino", "--l0", "0.1", "--l1", "1", "--t", "500")])
    def test_long_runs_print_finite_numbers(self, capsys, argv):
        code, out, err = run(capsys, "stability", *argv)
        assert code == 0, err
        rep = json.loads(out)
        numbers = [v for v in rep.values() if isinstance(v, float)]
        assert len(numbers) == 5 and all(math.isfinite(v) for v in numbers)
        assert rep["plane_attracting"] and rep["final_trace_deviation"] <= 1e-12

    def test_blow_up_is_named(self, tmp_path, capsys):
        path = _spec_file(tmp_path, {"ell": [-1, 0, 0, 0], "g": 1})
        code, out, err = run(capsys, "stability", "--spec", path, "--tau0", "1.5",
                             "--t", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: the state diverges at t* = 0.5493061443340")
        assert err.count("\n") == 1

    def test_cone_violation_is_named(self, capsys):
        code, out, err = run(capsys, "stability", "--preset", "threejump_nino", "--M", "1",
                             "--gamma", "0.5", "--x0", "0.001", "--t", "300")
        assert code == 1 and out == ""
        assert err == "error: state left the PSD cone during integration\n"

    @pytest.mark.parametrize("t", ["0", "-1", "nan"])
    def test_bad_time_rejected(self, capsys, t):
        code, out, err = run(capsys, "stability", "--preset", "linear_cptp", f"--t={t}")
        assert code == 1 and out == ""
        assert err.startswith("error: t_end must be positive and finite")
        assert err.count("\n") == 1


def test_linear_spec_with_nonzero_omega_runs_everywhere(tmp_path, capsys):
    path = _spec_file(tmp_path, GROWING)
    code, out, err = run(capsys, "stability", "--spec", path, "--tau0", "1", "--t", "1")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["classification"]["trace_preserving"] == "none"
    assert rep["classification"]["linear"]
    code, out, err = run(capsys, "simulate", "--spec", path, "--t", "1", "--samples", "2")
    assert code == 0, err
    tau = float(out.strip().split("\n")[-1].split(",")[1])
    assert tau > 20.0
    assert 1.0 + rep["final_trace_deviation"] == pytest.approx(tau, rel=1e-9)
    code, out, err = run(capsys, "choi", "--spec", path, "--t", "1")
    assert code == 0, err
    assert json.loads(out)["completely_positive"]


def csv_table(out):
    """The rows of a CSV text below its header, as floats."""
    return np.array([[float(v) for v in line.split(",")]
                     for line in out.strip().split("\n")[1:]])


def error_time(err):
    """t* of a printed blow-up line."""
    assert err.startswith("error: the state diverges at t* = ") and err.count("\n") == 1
    return float(err.split(" t* = ", 1)[1].split(",", 1)[0])


# Starts x0 (with z0 = 0.1) that stay in the cone up to t = 3.
PRESET_STARTS = [("linear_cptp", 0.3), ("nojump_nino", 0.3), ("onejump_nino", 0.3),
                 ("pseudolinear_nino", -0.4), ("threejump_nino", 1e-3), ("linear_noncp", 1e-3)]
# Long runs where one e^{At} overflows: the propagator over the whole run
# is not finite.
LONG_RUNS = [(("--preset", "pseudolinear_nino", "--m", "1", "--t", "400"),
              presets.pseudolinear_nino(1.0), 400.0),
             (("--preset", "nojump_nino", "--l0", "0.1", "--l1", "1", "--t", "500"),
              presets.nojump_nino(0.1, 1.0), 500.0)]


# Random channel families that simulate is checked on against DP45.
RANDOM_FAMILIES = [random_nino_spec, random_gksl_spec,
                   lambda rng: replace(random_nino_spec(rng), g=0.5),
                   lambda rng: replace(random_nino_spec(rng), h=rng.normal(size=3))]
RANDOM_FAMILY_IDS = ["nino", "gksl", "g_half", "precessing"]


class TestSimulateSamples:
    """``simulate`` reads the exact solution on --samples uniform times (201 by
    default); DP45 is the oracle."""

    N = 51

    def check_against_dp45(self, capsys, spec, argv, start, t_end, opts, samples=N):
        """Without ``samples``, the run takes the default grid of 201 rows."""
        extra = () if samples is None else ("--samples", str(samples))
        code, out, err = run(capsys, "simulate", *argv, "--t", str(t_end), *extra)
        assert code == 0, err
        n = 201 if samples is None else samples
        got = csv_table(out)
        assert got.shape == (n, 9)
        grid = np.linspace(0.0, t_end, n)
        assert np.array_equal(got[:, 0], grid)
        want = dp45(spec, start, t_end, opts, sample_times=grid)
        states = np.column_stack((want.tau, want.r))
        assert np.abs(got[:, 1:5] - states).max() <= 1e-9 * max(1.0, np.abs(states).max())

    @pytest.mark.parametrize("name, x0", PRESET_STARTS)
    def test_presets_agree_with_dp45(self, capsys, name, x0):
        self.check_preset(capsys, name, x0, self.N)

    @pytest.mark.parametrize("name, x0", PRESET_STARTS)
    def test_default_grid_presets_agree_with_dp45(self, capsys, name, x0):
        self.check_preset(capsys, name, x0, None)

    def check_preset(self, capsys, name, x0, samples):
        spec = presets.expand_preset(presets.Preset(name, {}))
        self.check_against_dp45(capsys, spec, ["--preset", name, f"--x0={x0}", "--z0=0.1"],
                                PsdState(1.0, [x0, 0.0, 0.1]), 3.0, IntegratorOpts(), samples)

    @pytest.mark.parametrize("family", RANDOM_FAMILIES, ids=RANDOM_FAMILY_IDS)
    def test_random_specs_agree_with_dp45(self, capsys, tmp_path, rng, family):
        self.check_random_specs(capsys, tmp_path, rng, family, self.N)

    @pytest.mark.parametrize("family", RANDOM_FAMILIES, ids=RANDOM_FAMILY_IDS)
    def test_default_grid_random_specs_agree_with_dp45(self, capsys, tmp_path, rng, family):
        self.check_random_specs(capsys, tmp_path, rng, family, None)

    def check_random_specs(self, capsys, tmp_path, rng, family, samples):
        start = PsdState(1.05, [0.2, 0.1, 0.0], physical=False)
        opts = IntegratorOpts(allow_off_cone=True)
        for i in range(4):
            spec = family(rng)
            path = tmp_path / f"{i}.json"
            save_spec(spec, path)
            argv = ["--spec", str(path), "--tau0", "1.05", "--x0", "0.2", "--y0", "0.1",
                    "--allow-off-cone"]
            try:
                dp45(spec, start, 1.0, opts)
            except blochamp.BlowUp as exc:
                extra = () if samples is None else ("--samples", "11")
                code, out, err = run(capsys, "simulate", *argv, "--t", "1", *extra)
                assert code == 1 and out == ""
                assert error_time(err) == pytest.approx(exc.t, rel=1e-12)
                continue
            self.check_against_dp45(capsys, spec, argv, start, 1.0, opts, samples)

    def test_stop_on_surface_at_dp45_surface_time(self, capsys):
        self.check_surface_stop(capsys, ("--samples", "101"), 101)

    def test_default_grid_stop_on_surface(self, capsys):
        self.check_surface_stop(capsys, (), 201)

    @staticmethod
    def check_surface_stop(capsys, extra, n):
        code, out, err = run(capsys, "simulate", "--preset", "threejump_nino", "--x0", "0.3",
                             "--t", "10", *extra, "--stop-on-surface")
        assert code == 0, err
        got = csv_table(out)
        dp = dp45(presets.threejump_nino(1.0, 0.5), PsdState(1.0, [0.3, 0, 0]), 10.0,
                  IntegratorOpts(stop_on_surface=True))
        assert dp.stop_reason == "surface"
        assert got[-1, 0] == pytest.approx(dp.t[-1], rel=1e-9)
        assert abs(got[-1, 8]) <= 1e-12
        grid = np.linspace(0.0, 10.0, n)
        assert np.array_equal(got[:-1, 0], grid[grid < got[-1, 0]])

    def test_blow_up_is_named(self, tmp_path, capsys):
        path = _spec_file(tmp_path, {"ell": [-1, 0, 0, 0], "g": 1})
        with pytest.raises(blochamp.BlowUp) as exc:
            dp45(blochamp.load_spec(path), PsdState(1.5, [0, 0, 0]), 2.0)
        code, out, err = run(capsys, "simulate", "--spec", path, "--tau0", "1.5",
                             "--t", "2", "--samples", "11")
        assert code == 1 and out == ""
        assert error_time(err) == pytest.approx(exc.value.t, rel=1e-12)

    def test_cone_violation_is_named(self, capsys):
        code, out, err = run(capsys, "simulate", "--preset", "threejump_nino", "--M", "1",
                             "--gamma", "0.5", "--x0", "0.001", "--t", "300",
                             "--samples", "11")
        assert code == 1 and out == ""
        assert err == "error: state left the PSD cone during integration\n"

    @pytest.mark.parametrize("argv, spec, t_end", LONG_RUNS)
    def test_long_runs_print_finite_numbers(self, capsys, argv, spec, t_end):
        with pytest.raises(ValueError, match="does not fit in a double"):
            assemble(spec).propagator([t_end])
        code, out, err = run(capsys, "simulate", *argv, "--x0", "0.3", "--samples", "101")
        assert code == 0, err
        got = csv_table(out)
        assert got.shape == (101, 9) and np.isfinite(got).all()
        assert got[-1, 1:5] == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-12)


def sweep_table(out):
    lines = out.strip().split("\n")
    assert lines[0] == "param,value,observable,result"
    return [line.split(",") for line in lines[1:]]


class TestSweep:
    """``sweep`` reads each final state from the exact solution; DP45 is the oracle."""

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

    @pytest.mark.parametrize("name, x0", PRESET_STARTS)
    def test_presets_agree_with_dp45(self, capsys, name, x0):
        param = presets.preset_params([name])[-1]
        values = (0.25, 0.5, 0.75)
        code, out, err = run(capsys, "sweep", "--preset", name, "--param", param,
                             "--values", ",".join(map(str, values)), f"--x0={x0}",
                             "--z0=0.1", "--t", "3")
        assert code == 0, err
        rows = sweep_table(out)
        assert len(rows) == 7 * len(values)
        for i, value in enumerate(values):
            spec = presets.expand_preset(presets.Preset(name, {param: value}))
            dp = dp45(spec, PsdState(1.0, [x0, 0.0, 0.1]), 3.0)
            fin = dp.final_state
            want = (fin.tau, *fin.r, fin.r_norm, dp.purity[-1], dp.entropy[-1])
            got = rows[7 * i:7 * (i + 1)]
            assert [row[:3] for row in got] == [
                [param, format(value, ".17g"), obs] for obs in cli._SWEEP_OBSERVABLES]
            assert [float(row[3]) for row in got] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_cone_violation_is_named(self, capsys):
        code, out, err = run(capsys, "sweep", "--preset", "threejump_nino", "--param",
                             "gamma", "--values", "0.5", "--M", "1", "--x0", "0.001",
                             "--t", "300")
        assert code == 1 and out == ""
        assert err == "error: state left the PSD cone during integration\n"

    @pytest.mark.parametrize("argv, spec, t_end", LONG_RUNS)
    def test_long_runs_print_finite_numbers(self, capsys, argv, spec, t_end):
        argv = list(argv)
        param = argv.index("--m") if "--m" in argv else argv.index("--l1")
        argv[param:param + 2] = ["--param", argv[param][2:], "--values", argv[param + 1]]
        code, out, err = run(capsys, "sweep", *argv, "--x0", "0.3")
        assert code == 0, err
        results = [float(row[3]) for row in sweep_table(out)]
        assert len(results) == 7 and all(math.isfinite(v) for v in results)


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


def test_readme_cli_examples_parse(tmp_path, monkeypatch, capsys):
    """Every README example parses, and each whose input files exist runs in an
    empty directory."""
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = block.split("```")[1].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("blochamp ")]
    assert len(commands) >= 10
    parser = build_parser()
    monkeypatch.chdir(tmp_path)
    ran = 0
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")
        if "--spec" in argv and not Path(argv[argv.index("--spec") + 1]).exists():
            continue
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, f"{shlex.join(argv)}: {err}"
        ran += 1
    assert ran >= 10


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


def test_commands_load_no_heavy_modules():
    # The benchmark's set-up time is the import plus the first command of
    # each kind: numpy.ma alone, which np.unique loads, costs about 10 ms.
    script = """
import contextlib, io, sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(3)
import blochamp, blochamp.cli
argvs = [
    ["simulate", "--preset", "linear_cptp", "--t", "2", "--samples", "5"],
    ["simulate", "--preset", "threejump_nino", "--x0", "0.01", "--t", "20",
     "--stop-on-surface"],
    ["fixed-points", "--preset", "threejump_nino", "--gamma", "1"],
    ["stability", "--preset", "pseudolinear_nino", "--t", "5"],
    ["slowdown", "--preset", "onejump_nino"],
    ["choi", "--preset", "linear_noncp", "--t", "1", "--scan", "4"],
    ["gate-plan", "--gate", "three_jump", "--target-purity", "0.99"],
    ["sweep", "--preset", "threejump_nino", "--param", "gamma", "--values", "0,0.5",
     "--x0", "0.001", "--t", "5"],
    ["verify", "--suite", "paper"],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in argvs:
        assert blochamp.cli.run_cli(argv) == 0, argv
print([m for m in ("numpy.ma", "scipy", "mpmath") if m in sys.modules])
"""
    src = str(Path(blochamp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    if out.returncode == 3:
        pytest.skip("importing numpy alone loads numpy.ma")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
