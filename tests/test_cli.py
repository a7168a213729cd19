"""Command-line interface: exit codes, payload formats, config round trips."""

import json
import math
import subprocess
import sys

import pytest

from squeezebell import bell
from squeezebell.cli import _build_parser, run
from squeezebell.evaluators import EvaluationSettings, correlator_numeric
from squeezebell.state import SqueezeParams, TransitionSpec

REGRESSION_FLAGS = [
    "--ra", "1.2", "--phia", "0.1", "--rb", "0.9", "--phib", "-0.15",
    "--dtheta", "0.3", "--ell", "2",
]
REGRESSION_VALUE = "-0.225193872155"

BELL_FLAGS = [
    "--ra", "1.5", "--ell", "3",
    "--thetaa", "0", "--thetaap", "1.5707963267948966",
    "--thetab", "0.7853981633974483", "--thetabp", "-0.7853981633974483",
]


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["correlator", *REGRESSION_FLAGS]) == 0

    def test_unknown_command(self, capsys):
        assert run(["bogus"]) == 1

    def test_nonpositive_ell(self, capsys):
        assert run(["correlator", "--ra", "1", "--ell", "-3"]) == 1
        assert "ell must be > 0" in capsys.readouterr().err

    def test_bell_requires_all_thetas(self, capsys):
        assert run(["bell", "--ra", "1", "--thetaa", "0", "--thetab", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "--thetaap" in err and "--thetabp" in err

    def test_bell_rejects_dtheta(self, capsys):
        assert run(["bell", *BELL_FLAGS, "--dtheta", "0.1"]) == 1
        assert "--dtheta applies to correlator/map" in capsys.readouterr().err

    def test_map_requires_axes(self, capsys):
        assert run(["map", "--ra", "1", "--ell", "1"]) == 1
        assert "--axis1" in capsys.readouterr().err

    def test_bad_axis_selector(self, capsys):
        code = run(
            ["map", "--ra", "1", "--ell", "1",
             "--axis1", "bogus:0:1:3", "--axis2", "ell:1:2:3"]
        )
        assert code == 1
        assert "unknown axis selector" in capsys.readouterr().err

    def test_numerical_domain_failure_is_exit_2(self, capsys):
        # equal-time on a non-coincident pair is a domain error, not usage.
        code = run(
            ["correlator", "--ra", "1", "--rb", "0.5", "--ell", "1",
             "--method", "equal-time"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_exponent_negative_taken_as_value(self, capsys):
        assert run(["correlator", "--ra", "1", "--phia=-1.5e-05", "--ell", "2"]) == 0
        joined = capsys.readouterr().out
        assert run(["correlator", "--ra", "1", "--phia", "-1.5e-05", "--ell", "2"]) == 0
        assert capsys.readouterr().out == joined

    def test_bell_leg_failure_is_exit_2(self, capsys):
        # Forced equal-time refuses the three legs that are not coincident.
        code = run(
            ["bell", "--ra", "1", "--ell", "1", "--method", "equal-time",
             "--thetaa", "0", "--thetaap", "0.8",
             "--thetab", "0", "--thetabp", "1.2"]
        )
        assert code == 2
        assert "correlator leg failed" in capsys.readouterr().err


class TestCorrelatorPayload:
    def test_regression_value(self, capsys):
        assert run(["correlator", *REGRESSION_FLAGS, "--method", "numeric"]) == 0
        out = capsys.readouterr().out
        assert out == REGRESSION_VALUE + "\n"

    def test_oracle_route_prints_identical_value(self, capsys):
        assert run(["correlator", *REGRESSION_FLAGS, "--method", "oracle"]) == 0
        assert capsys.readouterr().out == REGRESSION_VALUE + "\n"

    def test_method_report_on_stderr(self, capsys):
        run(["correlator", *REGRESSION_FLAGS])
        captured = capsys.readouterr()
        assert "method = numeric" in captured.err
        assert captured.out == REGRESSION_VALUE + "\n"

    def test_large_squeeze_locus_prints_exact_unit(self, capsys):
        code = run(
            ["correlator", "--ra", "5", "--phia", "0", "--phib", "0",
             "--dtheta", "0", "--ell", "1", "--method", "large-squeeze"]
        )
        assert code == 0
        assert capsys.readouterr().out == "1\n"

    def test_json_payload(self, capsys):
        run(["correlator", *REGRESSION_FLAGS, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == float(REGRESSION_VALUE)
        assert doc["method"] == "numeric"
        assert doc["degenerate_path"] is False

    @staticmethod
    def _numeric_payload(capsys, ell):
        flags = REGRESSION_FLAGS[:-1] + [ell]
        assert run(["correlator", *flags, "--method", "numeric", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        spec = TransitionSpec(a=SqueezeParams(1.2, 0.1, 0.3), b=SqueezeParams(0.9, -0.15, 0.0))
        res = correlator_numeric(spec, EvaluationSettings(ell=float(ell)))
        assert doc == {
            "value": float(f"{res.value:.12g}"),
            "method": "numeric",
            "series": res.series,
            "n_bands_used": res.n_bands_used,
            "series_terms_used": res.series_terms_used,
            "error_estimate": res.error_estimate,
            "degenerate_path": False,
            "notes": [],
        }
        assert doc["series_terms_used"] > 0
        return doc

    def test_json_reports_the_evaluator_provenance(self, capsys):
        # A bin narrower than the state takes the dual series.
        doc = self._numeric_payload(capsys, "2")
        assert doc["series"] == "dual" and doc["n_bands_used"] == 0
        assert 0.0 <= doc["error_estimate"] <= 1e-16

    def test_json_reports_the_band_series_provenance(self, capsys):
        # A bin far wider than the state takes the band series.
        doc = self._numeric_payload(capsys, "150")
        assert doc["series"] == "band" and doc["n_bands_used"] > 0
        assert doc["error_estimate"] > 0.0

    def test_json_reports_the_coincident_route(self, capsys):
        assert run(["correlator", "--ra", "1", "--ell", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["method"], doc["degenerate_path"]) == ("equal-time", True)
        assert doc["notes"] == ["coincident pair: delegated to equal-time path"]
        assert doc["n_bands_used"] > 0

    def test_refusal_names_the_error_type(self, capsys):
        argv = ["correlator", "--ra", "200", "--phia", "0.3", "--dtheta", "0.5", "--ell", "1"]
        assert run([*argv, "--method", "numeric"]) == 2
        assert capsys.readouterr().err.startswith("error: ComplexOverflowError: ")

    def test_scale_past_double_range_is_a_typed_refusal(self, capsys):
        # e^800 leaves double precision; ``auto`` still picks a route, and
        # the route names the cause.
        assert run(["correlator", "--ra", "800", "--dtheta", "0.5", "--ell", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ComplexOverflowError: ")

    def test_numeric_at_a_coincident_pair_is_the_auto_route(self, capsys):
        argv = ["correlator", "--ra", "1", "--ell", "1", "--format", "json"]
        assert run(argv) == 0
        auto = capsys.readouterr().out
        assert run([*argv, "--method", "numeric"]) == 0
        assert capsys.readouterr().out == auto
        assert json.loads(auto)["method"] == "equal-time"

    def test_forced_equal_time_half_turn_negates(self, capsys):
        base = ["correlator", "--ra", "1", "--phia", "0.2", "--ell", "1", "--method", "equal-time"]
        assert run([*base, "--dtheta", "0"]) == 0
        value = float(capsys.readouterr().out)
        assert run([*base, "--dtheta", repr(math.pi)]) == 0
        assert float(capsys.readouterr().out) == -value

    def test_method_choices_are_the_registry(self):
        sub = _build_parser()._subparsers._group_actions[0].choices["correlator"]
        action = next(a for a in sub._actions if a.dest == "method")
        assert list(action.choices) == list(bell.METHODS)

    def test_degrees_flag_converts_angles(self, capsys):
        run(["correlator", "--ra", "1", "--rb", "0.8", "--dtheta", "45",
             "--ell", "1", "--deg"])
        with_deg = capsys.readouterr().out
        run(["correlator", "--ra", "1", "--rb", "0.8",
             "--dtheta", repr(math.radians(45.0)), "--ell", "1"])
        assert capsys.readouterr().out == with_deg

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "value.txt"
        run(["correlator", *REGRESSION_FLAGS, "--out", str(target)])
        assert target.read_text() == REGRESSION_VALUE + "\n"
        assert capsys.readouterr().out == ""


class TestConfigFile:
    def test_dump_and_rerun_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        assert run(["correlator", *REGRESSION_FLAGS, "--dump-config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert run(["correlator", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == first
        text = cfg.read_text()
        keys = [line.split(" = ")[0] for line in text.splitlines()[1:]]
        assert keys == sorted(keys)
        assert "ell = 2.0" in text

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        run(["correlator", *REGRESSION_FLAGS, "--dump-config", str(cfg)])
        capsys.readouterr()
        assert run(["correlator", "--config", str(cfg), "--dtheta", "0.9"]) == 0
        assert capsys.readouterr().out != REGRESSION_VALUE + "\n"

    def test_unknown_key_reports_location(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\nbogus = 3\n")
        assert run(["correlator", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "unknown configuration key" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ell 2.0\n")
        assert run(["correlator", "--config", str(cfg)]) == 1
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_degree_axes_canonicalized_to_radians(self, capsys, tmp_path):
        cfg = tmp_path / "deg.cfg"
        code = run(
            ["map", "--ra", "1", "--ell", "1", "--workers", "1", "--deg",
             "--axis1", "dtheta:0:90:3", "--axis2", "ell:1:2:2",
             "--dump-config", str(cfg)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"axis1 = dtheta:0.0:{math.pi / 2.0!r}:3" in cfg.read_text()
        rows = [line.split(",") for line in out.splitlines()[1:]]
        xs = sorted({row[0] for row in rows})
        assert xs == ["0", "0.785398163397", "1.57079632679"]


class TestScans:
    MAP_ARGS = [
        "map", "--ra", "1", "--phia", "0.1", "--ell", "1", "--workers", "1",
        "--axis1", "dtheta:0.2:1:3", "--axis2", "ell:1:3:3",
    ]

    def test_csv_schema(self, capsys):
        assert run(self.MAP_ARGS) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "# axis1,axis2,value,method,flags"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            float(fields[0]), float(fields[1]), float(fields[2])
            assert fields[3] in ("numeric", "small-ell", "large-ell", "equal-time")
        assert "grid 3x3, 0 unevaluable nodes" in captured.err

    def test_failed_nodes_flagged_without_breaking_csv(self, capsys):
        code = run(
            ["map", "--ra", "1", "--ell", "1", "--workers", "1",
             "--method", "equal-time",
             "--axis1", "dtheta:0:1:3", "--axis2", "ell:1:2:2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        nan_rows = [l for l in lines[1:] if l.split(",")[2] == "nan"]
        assert len(nan_rows) == 4  # only the dtheta = 0 column is coincident
        for row in nan_rows:
            fields = row.split(",")
            assert len(fields) == 5
            assert "equal-time method requires a coincident transition pair" in fields[4]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_scale_past_double_range_flagged(self, capsys, workers):
        code = run(
            ["map", "--ra", "1", "--ell", "1", "--dtheta", "0.5", "--workers", workers,
             "--axis1", "r:1:800:3", "--axis2", "dtheta:0.2:1:2"]
        )
        assert code == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 6
        for fields in rows:
            failed = float(fields[0]) > 1.0
            assert (fields[2] == "nan") == failed
            assert fields[4].startswith("ComplexOverflowError: ") == failed

    def test_json_map(self, capsys):
        assert run([*self.MAP_ARGS, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["axis1"] == "dtheta" and doc["axis2"] == "ell"
        assert len(doc["values"]) == 3 and len(doc["values"][0]) == 3
        assert all(isinstance(v, float) for row in doc["values"] for v in row)

    def test_bell_scan_reports_refined_max(self, capsys):
        code = run(
            ["bell-scan", "--ra", "2", "--ell", "3", "--workers", "1",
             "--method", "large-squeeze",
             "--thetaa", "0", "--thetaap", "1.5707963267948966",
             "--thetab", "0.7853963267948966", "--thetabp", "-0.7853981633974483",
             "--axis1", "phi_a:-0.3:0.3:3", "--axis2", "phi_b:-0.3:0.3:3"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# axis1,axis2,value,method,flags")
        assert "refined max B" in captured.err

    def test_bell_scan_over_ell_axis(self, capsys):
        code = run(
            ["bell-scan", "--ra", "1", "--phia", "0", "--ell", "1", "--workers", "1",
             "--method", "large-ell",
             "--thetaa", "0", "--thetaap", "0.5", "--thetab", "0", "--thetabp", "-0.5",
             "--axis1", "ell:0.01:2:5", "--axis2", "dtheta_apb:-1:1:5"]
        )
        assert code == 0
        assert "refined max B" in capsys.readouterr().err


class TestBellCommand:
    def test_value_emitted(self, capsys):
        assert run(BELL_FLAGS[:0] + ["bell", *BELL_FLAGS]) == 0
        out = capsys.readouterr().out
        value = float(out)
        assert abs(value) <= 2.0 * math.sqrt(2.0) + 1e-9

    def test_json_format(self, capsys):
        assert run(["bell", *BELL_FLAGS, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "bell" in doc


class TestReusedParser:
    """One process reuses one parser: each call prints what it prints alone."""

    @staticmethod
    def _alone(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "squeezebell.cli", *argv],
            capture_output=True,
            text=True,
            timeout=300,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_calls_in_a_row_match_fresh_interpreters(self, capsys, tmp_path):
        target = tmp_path / "value.txt"
        sequence = [
            ["correlator", *REGRESSION_FLAGS, "--format", "json"],
            ["correlator", *REGRESSION_FLAGS],
            ["correlator", "--ra", "1", "--ell", "1", "--format", "xml"],
            ["correlator", "--ra", "1", "--ell", "1"],
            ["correlator", "--ra", "1", "--rb", "0.8", "--dtheta", "45", "--ell", "1", "--deg"],
            ["correlator", "--ra", "1", "--rb", "0.8", "--dtheta", "45", "--ell", "1"],
            ["correlator", *REGRESSION_FLAGS, "--out", str(target)],
            ["correlator", *REGRESSION_FLAGS],
        ]
        in_process = []
        for argv in sequence:
            code = run(argv)
            captured = capsys.readouterr()
            written = target.read_text() if target.exists() else None
            target.unlink(missing_ok=True)
            in_process.append((code, captured.out, captured.err, written))
        assert [c[0] for c in in_process] == [0, 0, 1, 0, 0, 0, 0, 0]
        for argv, got in zip(sequence, in_process):
            alone = self._alone(argv)
            written = target.read_text() if target.exists() else None
            target.unlink(missing_ok=True)
            assert got == (*alone, written), argv


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "squeezebell.cli", "correlator", *REGRESSION_FLAGS],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert proc.stdout == REGRESSION_VALUE + "\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--ra", "5", "--phia", "0", "--dtheta", "1", "--ell", "100"],
            ["--ra", "20", "--phia", "0", "--dtheta", "0.5", "--ell", "1e20"],
        ],
        ids=["r5-phi0", "r20"],
    )
    def test_deep_squeezing_without_mpmath(self, flags):
        # mpmath is a test dependency only: with its import blocked, deep
        # squeezing still evaluates.
        code = (
            "import sys; sys.modules['mpmath'] = None; "
            "from squeezebell.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "correlator", *flags],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert abs(float(proc.stdout)) <= 1.0
