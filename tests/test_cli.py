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
from heisenbath.dyson import compute_kernels
from heisenbath.errors import NonFiniteResult, ParseError, ValidationError
from heisenbath.images import contract_with_bath, evolve_images_exact
from heisenbath.markov import evolve_lindblad
from heisenbath.model import make_model
from heisenbath.spaces import TimeGrid, system_operator
from heisenbath.superop import star_of_observables
from helpers import one_point_at


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


# the qubit pair with an exchange coupling and a mixed bath state, so its
# dynamics depend on the coupling
INLINE_EXCHANGE = dict(
    INLINE_QUBIT_PAIR,
    hi=[[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
    rho_b=[[0.6, 0], [0, 0.4]],
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLoadConfig:
    def test_two_qubit_preset(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path))
        assert cfg.model.dim_system == 2 and cfg.model.dim_bath == 2
        assert np.allclose(cfg.model.rho_b, np.diag([0.75, 0.25]))
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

    def test_n_point_on_a_one_point_grid(self, tmp_path):
        """Factors beyond a grid of the one point 0 extend it to [0, max time]:
        the bytes of the same run on the grid [0, 0.9]."""
        with open(os.path.join(CONFIGS, "two_qubit_two_point.yaml")) as fh:
            raw = yaml.safe_load(fh)
        written = []
        for points in ([0.0], [0.0, 0.9]):
            out = tmp_path / f"{len(points)}.csv"
            path = tmp_path / f"{len(points)}.yaml"
            path.write_text(yaml.safe_dump(dict(raw, grid={"points": points}, output={"path": str(out)})))
            assert cli.main(["run", str(path)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_n_point_factor_past_the_stop_reads_its_grid(self, tmp_path):
        """A factor at 0.9 on the grid [0, 0.1, 0.5] is read from that grid's kernels."""
        factors = [{"observable": "s1x", "time": 0.9}, {"observable": "s1x", "time": 0.4}]
        path = write_config(tmp_path, run="n_point", grid={"points": [0, 0.1, 0.5]}, npoint={"factors": factors})
        assert cli.main(["run", str(path)]) == 0
        cfg = cli.load_config(str(path))
        ks = compute_kernels(cfg.model, cfg.truncation.order, cfg.grid)
        s1x = cfg.observables["s1x"][0]
        star = star_of_observables([(s1x, 0.9), (s1x, 0.4)], cfg.truncation, ks, cfg.model.rho_b)
        rows = read_rows(tmp_path / "out.csv")
        assert len(rows) == 4
        for r in rows:
            assert complex(float(r["re"]), float(r["im"])) == star[int(r["row"]), int(r["col"])]

    def test_one_point_times_between_on_and_past_the_grid(self, tmp_path):
        """``times`` on the grid [0, 1]: 0.33 between its points, 1.0 on its stop
        and 1.4 past it; each row is the one-point value at its time."""
        path = write_config(tmp_path, grid={"stop": 1.0, "num": 2}, observables={"s1x": {"times": [0.33, 1.0, 1.4]}})
        assert cli.main(["run", str(path)]) == 0
        cfg = cli.load_config(str(path))
        ks = compute_kernels(cfg.model, cfg.truncation.order, cfg.grid)
        rows = read_rows(tmp_path / "out.csv")
        assert [float(r["time"]) for r in rows[::4]] == [0.33, 1.0, 1.4]
        for r in rows:
            value = one_point_at(cfg.observables["s1x"][0], cfg.truncation, ks, cfg.model.rho_b, float(r["time"]))
            assert complex(float(r["re"]), float(r["im"])) == value[int(r["row"]), int(r["col"])]

    def test_one_point_empty_times_writes_no_rows(self, tmp_path):
        """An empty ``times`` list is a valid config whose table has no rows."""
        path = write_config(tmp_path, observables={"s1x": {"times": []}})
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "out.csv").read_text() == "\n"

    def test_sections_a_mode_does_not_read_change_no_byte(self, tmp_path):
        """Valid `markov`, `validate` and `npoint` sections on a one_point run are
        checked, and the run writes the bytes it writes without them."""
        unread = {
            "markov": {"horizon": 3.0, "j_horizon": 2.0, "decay_threshold": 0.1, "j_tolerance": 0.0, "eta": -0.5},
            "validate": {"seed": 4, "d_s": 3, "d_b": 2},
            "npoint": {"factors": [{"observable": "s1x", "time": 0.5}, {"observable": "s1x", "time": 2.5}]},
        }
        written = []
        for sections in ({}, unread):
            assert cli.main(["run", str(write_config(tmp_path, **sections))]) == 0
            written.append((tmp_path / "out.csv").read_bytes())
        assert written[0] == written[1]

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
        _, bd, sc = cli._markov_pipeline(loaded)
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

    def test_coupling_reaches_every_run_mode(self, tmp_path):
        """One coupling per run: an inline model's exact reduced images are
        those of the model at `truncation.lambda`, its Lindblad evolution
        follows `--lambda`, and `--lambda` on the dephasing config writes that
        config's bytes at the flag's coupling (preset `lam` and `lambda` both)."""
        sx = [[0, 1], [1, 0]]
        path = write_config(
            tmp_path, model=INLINE_EXCHANGE, run="image_exact", truncation={"order": 2, "lambda": 0.5},
            grid={"stop": 1.0, "num": 3}, observables={"o": {"matrix": sx}},
        )
        assert cli.main(["run", str(path)]) == 0
        written = {
            (float(r["time"]), int(r["row"]), int(r["col"])): complex(float(r["re"]), float(r["im"]))
            for r in read_rows(tmp_path / "out.csv") if r["observable"] == "o_S"
        }
        m = make_model(*(np.array(INLINE_EXCHANGE[k], dtype=complex) for k in ("h0", "hb", "hi", "rho0", "rho_b")))
        o_op = system_operator(np.array(sx, dtype=complex), (2, 2))
        grid = TimeGrid.linspace(1.0, 3)
        expected, free = (
            {(fam.time, i, j): v for fam in evolve_images_exact(m.with_coupling(lam), o_op, grid)
             for (i, j), v in np.ndenumerate(contract_with_bath(fam, m.rho_b))}
            for lam in (0.5, 0.0)
        )
        assert written == expected and written != free

        outs = [tmp_path / f"lind{k}.csv" for k in range(2)]
        path = write_config(
            tmp_path, model=INLINE_EXCHANGE, run="lindblad", truncation={"order": 2, "lambda": 0.5},
            grid={"stop": 2.0, "num": 3}, observables={"o": {"matrix": sx}}, markov={"horizon": 4.0},
        )
        assert cli.main(["run", str(path), "--output", str(outs[0])]) == 0
        assert cli.main(["run", str(path), "--output", str(outs[1]), "--lambda", "0.2"]) == 0
        assert outs[0].read_bytes() != outs[1].read_bytes()

        with open(os.path.join(CONFIGS, "dephasing_lindblad.yaml")) as fh:
            raw = yaml.safe_load(fh)
        base = tmp_path / "base.csv"
        assert cli.main(["run", os.path.join(CONFIGS, "dephasing_lindblad.yaml"), "--output", str(base)]) == 0
        flagged = tmp_path / "flagged.csv"
        assert cli.main(["run", os.path.join(CONFIGS, "dephasing_lindblad.yaml"),
                         "--lambda", "0.2", "--output", str(flagged)]) == 0
        raw["model"]["lam"] = raw["truncation"]["lambda"] = 0.2
        raw["output"]["path"] = str(tmp_path / "edited.csv")
        (tmp_path / "edited.yaml").write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(tmp_path / "edited.yaml")]) == 0
        assert flagged.read_bytes() == (tmp_path / "edited.csv").read_bytes() != base.read_bytes()

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

    @pytest.mark.parametrize("order", [3, 4])
    def test_shipped_validate_config_passes_at_orders_3_and_4(self, tmp_path, order):
        """`run configs/validate_random.yaml --order 3` and `--order 4` write an
        all-pass table: each slope is fitted over the errors above the rounding
        floor, which the smallest couplings reach from order 3 on."""
        out = tmp_path / "val.csv"
        config = os.path.join(CONFIGS, "validate_random.yaml")
        assert cli.main(["run", config, "--order", str(order), "--output", str(out)]) == 0
        rows = read_rows(out)
        assert f"image_order{order}" in {r["check"] for r in rows}
        assert all(r["status"] == "pass" for r in rows)

    def test_output_directory_created(self, tmp_path):
        out = tmp_path / "nested" / "deep" / "out.csv"
        path = write_config(tmp_path, output={"path": str(out), "format": "csv"})
        assert cli.main(["run", str(path)]) == 0
        assert out.exists()


# a lindblad run on the dephasing preset, with the preset's observable
DEPHASING_LINDBLAD = {"run": "lindblad", "observables": {"sz": {}}}
DEPHASING_REPORT = dict(DEPHASING_LINDBLAD, run="markov_report", model={"preset": "dephasing_bath"})


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, run="bogus")
        assert cli.main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert cli.main(["run", "/nonexistent/x.yaml"]) == 2

    def test_unparsable_file_is_2(self, tmp_path, monkeypatch, capsys):
        """An unclosed list, and a 3000-deep list under both loaders: the
        pure-Python parser overflows on it, and the C parser's value used to
        overflow the repr of the error message."""
        deep = "run: " + "[" * 3000 + "]" * 3000 + "\n"
        cases = [("unclosed", "run: [unclosed\n", cli.YAML_LOADER, "could not parse {path}")]
        cases.append(("deep-python", deep, yaml.SafeLoader, "could not parse {path}"))
        if yaml.__with_libyaml__:
            cases.append(("deep-c", deep, yaml.CSafeLoader, "run: must be one of"))
        for name, text, loader, message in cases:
            monkeypatch.setattr(cli, "YAML_LOADER", loader)
            folder = tmp_path / name
            folder.mkdir()
            path = folder / "broken.yaml"
            path.write_text(text)
            assert cli.main(["run", str(path), "--output", str(folder / "out.csv")]) == 2, name
            err = capsys.readouterr().err
            assert message.format(path=path) in err, name
            assert "Traceback" not in err, name
            assert sorted(p.name for p in folder.iterdir()) == ["broken.yaml"], name

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

    @pytest.mark.parametrize(
        "section",
        [{"observables": {"s1x": {"times": [1e100]}}}, {"grid": {"stop": 1e100, "num": 2}}],
        ids=["times", "grid"],
    )
    def test_time_beyond_the_precision_is_3(self, tmp_path, capsys, section):
        """At t = 1e100 squaring leaves no significant digit of the step
        exponential: exit 3 with nothing written, where a table of zeros
        once exited 0."""
        out = tmp_path / "out.csv"
        assert cli.main(["run", str(write_config(tmp_path, **section))]) == 3
        assert "fewer than half of its digits are significant" in capsys.readouterr().err
        assert not out.exists()

    def test_time_with_two_significant_digits_is_3(self, tmp_path, capsys):
        """At t = 1e15 the step exponential keeps about two digits (the
        off-diagonal 3% off the closed form, once with exit 0): exit 3 with
        nothing written."""
        out = tmp_path / "out.csv"
        assert cli.main(["run", str(write_config(tmp_path, observables={"s1x": {"times": [1e15]}}))]) == 3
        assert "fewer than half of its digits are significant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stop, code", [(1e15, 3), (1e6, 0)])
    def test_exact_path_refuses_phases_with_few_digits(self, tmp_path, capsys, stop, code):
        """`image_exact` at t = 1e15 once wrote finite phases with no significant
        digit and exit 0: exit 3 with nothing written.  At t = 1e6 it runs."""
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, run="image_exact", grid={"stop": stop, "num": 2})
        assert cli.main(["run", str(path)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "fewer than half of their digits significant" in capsys.readouterr().err

    def test_time_below_the_precision_bound_matches_closed_form(self, tmp_path):
        """At t = 1e6 more than half of the digits survive: exit 0, the
        off-diagonal within 1e-9 relative of the order-2 closed form."""
        assert cli.main(["run", str(write_config(tmp_path, observables={"s1x": {"times": [1e6]}}))]) == 0
        (row,) = [r for r in read_rows(tmp_path / "out.csv") if (r["row"], r["col"]) == ("0", "1")]
        t, lam = float(row["time"]), 0.1
        expected = 0.5 * (1 + 0.25j * lam * t - 0.25 * (lam * t) ** 2)
        assert t == 1e6
        assert abs(complex(float(row["re"]), float(row["im"])) - expected) <= 1e-9 * abs(expected)

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
        """An order flag outside [0, KERNEL_CAP] fails as `truncation.order` would."""
        path = write_config(tmp_path)
        for order in ("9", "-1"):
            assert cli.main(["run", str(path), "--order", order]) == 2
            err = capsys.readouterr().err
            assert "truncation.order" in err and "Traceback" not in err
            assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"truncation": {"order": "two", "lambda": 0.1}}, "truncation.order"),
            ({"truncation": {"order": -1, "lambda": 0.1}}, "truncation.order"),
            (dict(DEPHASING_LINDBLAD, model={"preset": "dephasing_bath", "lam": "abc"}), "model.lam"),
            (dict(DEPHASING_LINDBLAD, model={"preset": "dephasing_bath", "lam": float("nan")}), "model.lam"),
            (dict(DEPHASING_LINDBLAD, model={"preset": "dephasing_bath", "splitting": float("inf")}), "model.splitting"),
            (dict(DEPHASING_LINDBLAD, model={"preset": "dephasing_bath", "hbar": float("nan")}), "model.hbar"),
            (dict(DEPHASING_LINDBLAD, model={"preset": "dephasing_bath", "splitting": "abc"}), "model.splitting"),
            ({"grid": {"stop": float("inf"), "num": 5}}, "grid.stop"),
            ({"truncation": {"order": 2, "lambda": float("nan")}}, "truncation.lambda"),
            ({"model": dict(INLINE_QUBIT_PAIR, hbar=-1)}, "hbar"),
            ({"model": dict(INLINE_QUBIT_PAIR, hb=[[0, 0], [0, float("nan")]])}, "model.hb[1][1]"),
            ({"model": dict(INLINE_QUBIT_PAIR, rho_b=[[1.5, 0], [0, -0.5]])}, "model.rho_b: density matrix has negative"),
            ({"model": dict(INLINE_QUBIT_PAIR, rho0=[[1, 0], [0, 1]])}, "model.rho0: density matrix trace is 2"),
            ({"model": dict(INLINE_QUBIT_PAIR, rho_b=[[0.5, 0.3], [0, 0.5]])}, "model.rho_b: density matrix is not hermitian"),
            ({"run": "validate", "validate": {"seed": -1}}, "validate.seed"),
            ({"run": "validate", "validate": {"d_s": 0}}, "validate.d_s"),
            ({"run": "validate", "validate": {"d_b": 0}}, "validate.d_b"),
            ({"run": "validate", "validate": {"d_s": 10_000_000_000}}, "validate.d_s * validate.d_b"),
            ({"run": "validate", "validate": {"d_s": 1}}, "validate.d_s"),
            ({"run": "validate", "validate": {"d_b": 1}}, "validate.d_b"),
            ({"run": "validate", "truncation": {"order": 0, "lambda": 0.1}}, "truncation.order"),
            ({"run": "validate", "truncation": {"order": 5, "lambda": 0.1}}, "truncation.order"),
            (
                {"run": "n_point", "npoint": {"factors": [{"observable": "s1x", "time": 0.5},
                                                          {"observable": "s1x", "time": -0.4}]}},
                "npoint.factors[1].time",
            ),
            ({"observables": {"s1x": {"times": [0.5, -0.4]}}}, "observables.s1x.times"),
            ({"truncation": {"ordr": 5}}, "truncation.ordr"),
            ({"bogus": 1}, "bogus"),
            ({"model": dict(INLINE_EXCHANGE, lam=0.3), "observables": {"o": {"matrix": [[1, 0], [0, -1]]}}}, "model.lam"),
            ({"observables": {"o": {"matrix": []}}}, "observables.o.matrix"),
            ({"observables": {"o": {"matrix": [[1, 2]]}}}, "observables.o.matrix"),
            ({"model": {"preset": "two_qubit", "foo": 1}}, "model.preset"),
            ({"model": {"preset": "two_qubit", "c": 2}}, "model.preset"),
            ({"model": {"h0": INLINE_QUBIT_PAIR["h0"]}}, "model"),
            ({"grid": {"points": [0, 0]}}, "grid.points"),
            ({"grid": {"points": [1, 2]}}, "grid.points"),
            ({"observables": {"zz": {}}}, "observables.zz"),
            ({"output": {"path": ""}}, "output.path"),
            ({"output": {"format": "JSON"}}, "output.format"),
            ({"run": "n_point"}, "npoint.factors"),
            ({"run": "n_point", "npoint": {"factors": [{"observable": "zz", "time": 0.5}]}}, "npoint.factors[0].observable"),
            # a section is checked in every run mode, also one that does not read it
            ({"markov": {"bogus": 1}}, "markov.bogus"),
            ({"markov": {"horizon": -5}}, "markov.horizon"),
            ({"npoint": {"extra": 1}}, "npoint.extra"),
            ({"npoint": {"factors": [{"observable": "zz", "time": 0.5}]}}, "npoint.factors[0].observable"),
            ({"npoint": {"factors": [{"observable": "s1x", "time": -1}]}}, "npoint.factors[0].time"),
            ({"validate": {"seed": -3}}, "validate.seed"),
            ({"validate": {"nonsense": True}}, "validate.nonsense"),
            (dict(DEPHASING_REPORT, markov={"horizon": 0}), "markov.horizon"),
            (dict(DEPHASING_REPORT, markov={"horizon": -5}), "markov.horizon"),
            (dict(DEPHASING_REPORT, markov={"j_horizon": -1}), "markov.j_horizon"),
            (dict(DEPHASING_REPORT, markov={"decay_threshold": -1}), "markov.decay_threshold"),
            (dict(DEPHASING_REPORT, markov={"j_tolerance": -1}), "markov.j_tolerance"),
            (dict(DEPHASING_REPORT, run="lindblad", markov={"horizon": 0}), "markov.horizon"),
        ],
        ids=[
            "order_word", "order_negative", "preset_lam_word", "preset_lam_nan",
            "preset_splitting_inf", "preset_hbar_nan", "preset_splitting_word",
            "stop_inf", "lambda_nan", "hbar_negative", "matrix_nan",
            "rho_b_negative", "rho0_trace_two", "rho_b_non_hermitian",
            "validate_seed_negative", "validate_d_s_zero", "validate_d_b_zero", "validate_dims_over_cap",
            "validate_d_s_one", "validate_d_b_one", "validate_order_zero", "validate_order_five",
            "factor_time_negative", "times_negative", "truncation_unknown_key", "top_level_unknown_key",
            "inline_model_unknown_key", "matrix_empty", "matrix_not_square", "preset_unknown_parameter",
            "preset_c_out_of_range", "inline_model_incomplete", "points_repeated", "points_not_from_zero",
            "observable_without_matrix", "output_path_empty", "output_format_upper", "npoint_missing",
            "factor_unknown_observable",
            "one_point_markov_unknown_key", "one_point_markov_horizon_negative", "one_point_npoint_unknown_key",
            "one_point_factor_unknown_observable", "one_point_factor_time_negative",
            "one_point_validate_seed_negative", "one_point_validate_unknown_key",
            "report_horizon_zero", "report_horizon_negative", "report_j_horizon_negative",
            "report_decay_threshold_negative", "report_j_tolerance_negative", "lindblad_horizon_zero",
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
            ({"model": 3}, "model"),
        ],
        ids=["observable_scalar", "times_scalar", "factor_string", "truncation_scalar", "grid_list", "model_scalar"],
    )
    def test_bad_section_shape_is_2(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, **overrides)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: expected a" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("case", ["config_directory", "config_list", "output_directory", "output_under_file"])
    def test_file_system_error_is_2(self, tmp_path, capsys, case):
        """A config path that is a directory or holds a YAML list, and an
        ``output.path`` that is a directory or lies under a regular file: exit 2
        naming the path or the field, no traceback and no file left behind."""
        folder, plain = tmp_path / "folder", tmp_path / "plain.yaml"
        folder.mkdir()
        plain.write_text("- 1\n")  # a regular file, and a config whose top level is a list
        outputs = {"output_directory": folder, "output_under_file": plain / "out.csv"}
        if case in outputs:
            config, field = write_config(tmp_path, output={"path": str(outputs[case])}), "output.path"
        else:
            config = field = str(folder if case == "config_directory" else plain)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_out_of_memory_is_3(self, tmp_path, capsys):
        """A grid of 10^15 points asks numpy for 7 PiB, which it refuses at
        once: exit 3, no traceback and no file."""
        path = write_config(tmp_path, grid={"stop": 1.0, "num": 10**15})
        assert cli.main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: out of memory" in err and "Traceback" not in err
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
