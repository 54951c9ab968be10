"""Configuration loading, run modes, determinism and exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from heisenbath import cli
from heisenbath.errors import NonFiniteResult, ParseError, ValidationError
from heisenbath.markov import evolve_lindblad


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def write_config(tmp_path, name="exp.yaml", **overrides):
    cfg = {
        "model": {"preset": "two_qubit", "c": 0.25},
        "run": "one_point",
        "truncation": {"order": 2, "lambda": 0.1},
        "grid": {"stop": 2.0, "num": 5},
        "observables": {"s1x": {}},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


INLINE_QUBIT_PAIR = {
    "h0": [[0, 0], [0, 1]],
    "hb": [[0, 0], [0, 1]],
    "hi": [[0] * 4 for _ in range(4)],
    "rho0": [[0.5, 0], [0, 0.5]],
    "rho_b": [[1, 0], [0, 0]],
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLoadConfig:
    def test_two_qubit_preset(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path))
        assert cfg.model.dim_system == 2 and cfg.model.dim_bath == 2
        assert np.allclose(cfg.model.rho_b.mat, np.diag([0.75, 0.25]))
        assert np.max(np.abs(cfg.model.h0.mat)) == 0
        assert cfg.truncation.order == 2

    def test_unknown_preset(self, tmp_path):
        path = write_config(tmp_path, model={"preset": "nope"})
        with pytest.raises(ValidationError, match="model.preset"):
            cli.load_config(path)

    def test_inline_model_non_hermitian_h0(self, tmp_path):
        inline = {
            "h0": [[0, 1], [0, 0]],
            "hb": [[0, 0], [0, 1]],
            "hi": [[0] * 4 for _ in range(4)],
            "rho0": [[0.5, 0], [0, 0.5]],
            "rho_b": [[1, 0], [0, 0]],
        }
        path = write_config(tmp_path, model=inline)
        with pytest.raises(ValidationError, match="model.h0: not hermitian"):
            cli.load_config(path)

    def test_inline_dimension_mismatch(self, tmp_path):
        inline = {
            "h0": [[0, 0], [0, 0]],
            "hb": [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
            "hi": [[0] * 4 for _ in range(4)],
            "rho0": [[0.5, 0], [0, 0.5]],
            "rho_b": [[1, 0], [0, 0]],
        }
        path = write_config(tmp_path, model=inline)
        with pytest.raises(ValidationError, match="model"):
            cli.load_config(path)

    def test_complex_entries_as_pairs(self, tmp_path):
        inline = {
            "h0": [[0, [0, -1]], [[0, 1], 0]],
            "hb": [[0, 0], [0, 1]],
            "hi": [[0] * 4 for _ in range(4)],
            "rho0": [[0.5, 0], [0, 0.5]],
            "rho_b": [[1, 0], [0, 0]],
        }
        path = write_config(
            tmp_path,
            model=inline,
            observables={"sz": {"matrix": [[1, 0], [0, -1]]}},
        )
        cfg = cli.load_config(path)
        assert cfg.model.h0.mat[0, 1] == -1j

    def test_missing_observables(self, tmp_path):
        path = write_config(tmp_path, observables={})
        with pytest.raises(ValidationError, match="observables"):
            cli.load_config(path)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("run: [unclosed\n")
        with pytest.raises(ParseError):
            cli.load_config(path)

    def test_bad_run_mode(self, tmp_path):
        path = write_config(tmp_path, run="frobnicate")
        with pytest.raises(ValidationError, match="run"):
            cli.load_config(path)


class TestRunModes:
    def test_one_point_matches_closed_form(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        rows = read_rows(tmp_path / "out.csv")
        c, lam = 0.25, 0.1
        for r in rows:
            if r["observable"] == "s1x" and r["row"] == "0" and r["col"] == "1":
                t = float(r["time"])
                expected = 0.5 * (1 + 0.5j * (1 - 2 * c) * lam * t - 0.25 * (lam * t) ** 2)
                assert float(r["re"]) == pytest.approx(expected.real, abs=1e-11)
                assert float(r["im"]) == pytest.approx(expected.imag, abs=1e-11)

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["run", str(path)])
        first = (tmp_path / "out.csv").read_bytes()
        cli.main(["run", str(path)])
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_json_output_deterministic(self, tmp_path):
        out = tmp_path / "out.json"
        path = write_config(tmp_path, output={"path": str(out), "format": "json"})
        cli.main(["run", str(path)])
        first = out.read_bytes()
        payload = json.loads(first)
        assert {"time", "observable", "row", "col", "re", "im"} <= set(payload[0])
        cli.main(["run", str(path)])
        assert out.read_bytes() == first

    def test_n_point_mode(self, tmp_path):
        path = write_config(
            tmp_path,
            run="n_point",
            npoint={"factors": [{"observable": "s1x", "time": 0.5}, {"observable": "s1x", "time": 1.1}]},
        )
        assert cli.main(["run", str(path)]) == 0
        rows = read_rows(tmp_path / "out.csv")
        assert all(r["observable"].startswith("star:") for r in rows)
        assert len(rows) == 4
        assert rows[0]["observable"] == "star:s1x@0.5*s1x@1.1000000000000001"

    def test_image_exact_mode(self, tmp_path):
        path = write_config(tmp_path, run="image_exact", grid={"stop": 1.0, "num": 3})
        assert cli.main(["run", str(path)]) == 0
        rows = read_rows(tmp_path / "out.csv")
        labels = {r["observable"] for r in rows}
        assert "s1x[0][0]" in labels and "s1x[1][0]" in labels and "s1x_S" in labels

    def test_lindblad_mode(self, tmp_path):
        out = tmp_path / "lind.csv"
        cfg = {
            "model": {"preset": "dephasing_bath", "lam": 0.05},
            "run": "lindblad",
            "truncation": {"order": 2, "lambda": 0.05},
            "grid": {"stop": 3.0, "num": 4},
            "observables": {"sz": {}, "sx": {}},
            "markov": {"horizon": 6.0, "j_horizon": 5.0},
            "output": {"path": str(out), "format": "csv"},
        }
        path = tmp_path / "lind.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["run", str(path)]) == 0
        rows = read_rows(out)
        assert len(rows) == 2 * 4 * 4
        # all observables go through one evolve_lindblad call; rows keep the
        # per-observable order (name, then time, then matrix entry)
        loaded = cli.load_config(path)
        _, _, bd, sc = cli._markov_pipeline(loaded)
        m = loaded.model
        expected = [
            (name, t, val)
            for name in ("sx", "sz")
            for t, val in zip(
                loaded.grid.points,
                evolve_lindblad(loaded.observables[name][0], bd, sc, m.h0.mat, m.constants, loaded.grid),
            )
        ]
        for k, (name, t, val) in enumerate(expected):
            for row in rows[4 * k : 4 * k + 4]:
                assert row["observable"] == name and float(row["time"]) == pytest.approx(t, abs=1e-15)
                entry = val[int(row["row"]), int(row["col"])]
                assert abs(complex(float(row["re"]), float(row["im"])) - entry) <= 1e-12

    def test_markov_report_mode(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = {
            "model": {"preset": "dephasing_bath"},
            "run": "markov_report",
            "grid": {"stop": 3.0, "num": 4},
            "markov": {"horizon": 6.0, "decay_threshold": 0.025},
            "output": {"path": str(out), "format": "csv"},
        }
        path = tmp_path / "report.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["run", str(path)]) == 0
        rows = read_rows(out)
        by_check = {r["check"]: r for r in rows}
        assert by_check["first_moment"]["status"] == "pass"
        assert by_check["stationarity"]["status"] == "pass"
        assert by_check["decay"]["status"] == "pass"

    def test_markov_report_csv_reads_back(self, tmp_path):
        """Every CSV row has exactly the header's fields, the comma in a J label
        included, and J's value and threshold equal the JSON run's."""
        outs = {}
        for fmt in ("csv", "json"):
            outs[fmt] = tmp_path / f"report.{fmt}"
            path = write_config(
                tmp_path,
                model={"preset": "dephasing_bath"},
                run="markov_report",
                observables={},
                markov={"horizon": 6.0, "j_horizon": 5.0, "decay_threshold": 0.025},
                output={"path": str(outs[fmt]), "format": fmt},
            )
            assert cli.main(["run", str(path)]) == 0
        with open(outs["csv"], newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["check", "metric", "value", "threshold", "status"]
        assert all(None not in r and None not in r.values() for r in rows)
        j_json = {r["check"]: r for r in json.loads(outs["json"].read_text()) if r["check"].startswith("J[")}
        j_csv = {r["check"]: r for r in rows if r["check"].startswith("J[")}
        assert j_csv and j_csv.keys() == j_json.keys()
        for check, row in j_csv.items():
            assert (row["value"], row["threshold"]) == (j_json[check]["value"], j_json[check]["threshold"])

    def test_validate_mode_passes(self, tmp_path):
        out = tmp_path / "val.csv"
        path = write_config(
            tmp_path, run="validate", validate={"seed": 42, "d_s": 2, "d_b": 3},
            output={"path": str(out), "format": "csv"},
        )
        assert cli.main(["validate", str(path), "--seed", "42"]) == 0
        rows = read_rows(out)
        assert rows and all(r["status"] == "pass" for r in rows)

    def test_output_directory_created(self, tmp_path):
        out = tmp_path / "nested" / "deep" / "out.csv"
        path = write_config(tmp_path, output={"path": str(out), "format": "csv"})
        assert cli.main(["run", str(path)]) == 0
        assert out.exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, run="bogus")
        assert cli.main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert cli.main(["run", "/nonexistent/x.yaml"]) == 2

    def test_numerical_failure_is_3(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: (_ for _ in ()).throw(NonFiniteResult("boom")))
        assert cli.main(["run", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_result_is_3(self, tmp_path, capsys):
        """lambda = 1e200 overflows the one-point series: exit 3, nothing written,
        and no numpy RuntimeWarning ahead of the one-line diagnosis."""
        with open(os.path.join(CONFIGS, "two_qubit_one_point.yaml")) as fh:
            raw = yaml.safe_load(fh)
        out = tmp_path / "overflow.csv"
        raw["truncation"]["lambda"] = 1.0e200
        raw["output"]["path"] = str(out)
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", str(path)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta", [5e-324, -1e300])
    def test_extreme_eta_in_lindblad_mode(self, tmp_path, capsys, eta):
        """A subnormal regulator is the eta = 0 run, exit 0 with the same rows;
        -1e300 overflows the J integrals, exit 3 with no file.  Both once
        escaped from `toeplitz_expm` as a traceback."""
        with open(os.path.join(CONFIGS, "dephasing_lindblad.yaml")) as fh:
            raw = yaml.safe_load(fh)
        outs = {}
        for value in (0.0, eta):
            outs[value] = tmp_path / f"eta{value}.csv"
            raw["markov"]["eta"] = value
            raw["output"]["path"] = str(outs[value])
            path = tmp_path / "eta.yaml"
            path.write_text(yaml.safe_dump(raw))
            code = cli.main(["run", str(path)])
        if eta > 0:
            assert code == 0
            assert outs[eta].read_text() == outs[0.0].read_text()
        else:
            assert code == 3
            assert "numerical failure" in capsys.readouterr().err
            assert not outs[eta].exists()

    def test_markov_report_without_decay_is_finite(self, tmp_path):
        """A correlator that never falls below threshold reports the horizon and fails."""
        out = tmp_path / "report.csv"
        path = write_config(
            tmp_path,
            model={"preset": "dephasing_bath"},
            run="markov_report",
            observables={},
            markov={"horizon": 0.01, "decay_threshold": 0.025},
            output={"path": str(out), "format": "csv"},
        )
        assert cli.main(["run", str(path)]) == 0
        decay = {r["check"]: r for r in read_rows(out)}["decay"]
        assert decay["status"] == "fail" and float(decay["value"]) == 0.01

    def test_validation_defect_is_4(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "val.csv"
        path = write_config(
            tmp_path, run="validate", output={"path": str(out), "format": "csv"}
        )
        failing = [{"check": "x", "metric": "slope", "value": 1.0, "threshold": 2.8, "status": "fail"}]
        monkeypatch.setattr(cli, "validation_suite", lambda *a, **k: failing)
        assert cli.main(["validate", str(path)]) == 4
        assert "defects exceeded" in capsys.readouterr().err
        assert out.exists()

    def test_validation_defect_names_failing_rows(self, tmp_path, monkeypatch, capsys):
        """Exit 4 names each failing row with its value and threshold; the table is unchanged."""
        out = tmp_path / "val.csv"
        path = write_config(
            tmp_path, run="validate", output={"path": str(out), "format": "csv"}
        )
        rows = [
            {"check": "one_point_order2", "metric": "loglog_slope", "value": 3.01, "threshold": 2.8,
             "status": "pass"},
            {"check": "cumulant2_order2", "metric": "loglog_slope", "value": 3.62, "threshold": 3.8,
             "status": "fail"},
            {"check": "cancellation_n1", "metric": "max_abs_defect", "value": 2.5e-12, "threshold": 1e-12,
             "status": "fail"},
        ]
        monkeypatch.setattr(cli, "validation_suite", lambda *a, **k: rows)
        assert cli.main(["validate", str(path)]) == 4
        err = capsys.readouterr().err.strip()
        assert err == (
            "validation defects exceeded thresholds: "
            "cumulant2_order2 slope 3.62 < 3.8; cancellation_n1 defect 2.5e-12 > 1e-12"
        )
        assert [r["check"] for r in read_rows(out)] == [r["check"] for r in rows]

    def test_cli_overrides(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "alt.json"
        assert cli.main(["run", str(path), "--order", "1", "--lambda", "0.05",
                         "--output", str(out), "--format", "json"]) == 0
        assert out.exists()

    def test_order_override_beyond_kernel_cap_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["run", str(path), "--order", "9"]) == 2
        assert "truncation.order" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"truncation": {"order": "two", "lambda": 0.1}}, "truncation.order"),
            ({"grid": {"stop": float("inf"), "num": 5}}, "grid.stop"),
            ({"truncation": {"order": 2, "lambda": float("nan")}}, "truncation.lambda"),
            ({"model": dict(INLINE_QUBIT_PAIR, hbar=-1)}, "hbar"),
            ({"model": dict(INLINE_QUBIT_PAIR, hb=[[0, 0], [0, float("nan")]])}, "model.hb[1][1]"),
            ({"run": "validate", "validate": {"seed": -1}}, "validate.seed"),
            ({"run": "validate", "validate": {"d_s": 0}}, "validate.d_s"),
            ({"run": "validate", "validate": {"d_b": 0}}, "validate.d_b"),
            (
                {"run": "n_point", "npoint": {"factors": [{"observable": "s1x", "time": 0.5},
                                                          {"observable": "s1x", "time": -0.4}]}},
                "npoint.factors[1].time",
            ),
        ],
        ids=[
            "order_word", "stop_inf", "lambda_nan", "hbar_negative", "matrix_nan",
            "validate_seed_negative", "validate_d_s_zero", "validate_d_b_zero", "factor_time_negative",
        ],
    )
    def test_bad_scalar_is_2(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, **overrides)
        assert cli.main(["run", str(path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"observables": {"s1x": 3}}, "observables.s1x"),
            ({"observables": {"s1x": {"times": 0.5}}}, "observables.s1x.times"),
            ({"run": "n_point", "npoint": {"factors": ["s1x"]}}, "npoint.factors[0]"),
            ({"truncation": 3}, "truncation"),
            ({"grid": [1, 2]}, "grid"),
        ],
        ids=["observable_scalar", "times_scalar", "factor_string", "truncation_scalar", "grid_list"],
    )
    def test_bad_section_shape_is_2(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, **overrides)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: expected a" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_preset_list(self, capsys):
        assert cli.main(["preset", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["dephasing_bath", "two_qubit"]


# Every solve path and every shipped config, then the modules it loaded.
SCIPY_FREE_RUNTIME = r"""
import os
import sys
import tempfile

import numpy as np

import heisenbath as hb
from heisenbath import cli, markov

preset = hb.two_qubit(0.25, lam=0.1)
grid = hb.TimeGrid.linspace(2.0, 9)
ks = hb.compute_kernels(preset.model, 3, grid)
traj = hb.one_point_operator(preset.observables["s1x"], hb.SeriesTruncation(3, 0.1), ks, preset.model.rho_b, grid)
assert np.all(np.isfinite(traj.values))

m = hb.dephasing_bath(lam=0.05).model
dec = hb.decompose_interaction(m.hi)
bd = markov.bohr_decompose_all(dec, m.h0.mat, m.constants.hbar)
sc = hb.spectral_coefficients(m, dec, bd.frequencies, horizon=5.0)
sz = np.diag([1.0, -1.0]).astype(complex)
assert np.all(np.isfinite(hb.evolve_lindblad(sz, bd, sc, m.h0.mat, m.constants, grid)))

configs = sys.argv[1]
with tempfile.TemporaryDirectory() as tmp:
    for name in sorted(os.listdir(configs)):
        code = cli.main(["run", os.path.join(configs, name), "--output", os.path.join(tmp, name + ".out")])
        assert code == 0, (name, code)

leaked = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not leaked, leaked
"""


def test_runtime_does_not_import_scipy():
    """scipy is a test-only dependency: solving and every shipped config run without it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUNTIME, CONFIGS], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_entry_point_runs():
    # the child imports the package from the same source tree as this test
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "heisenbath.cli", "preset", "list"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "two_qubit" in proc.stdout
