import json

import numpy as np
import pytest

from aeroinv.cli import main, parse_config, read_measurement, write_measurement
from aeroinv.errors import UsageError
from aeroinv.model_selection import Measurement


class TestParseConfig:
    def test_no_command_lists_commands(self):
        with pytest.raises(UsageError) as err:
            parse_config([])
        for cmd in ("simulate", "invert", "invert2", "study", "study2"):
            assert cmd in str(err.value)

    def test_invert_defaults(self, tmp_path):
        args = parse_config(
            ["invert", "--measurement", "m.csv", "--material", "H2O",
             "--reg", "twomey"]
        )
        assert args.command == "invert"
        assert args.reg == "twomey"
        assert args.method == "constrained"
        assert args.seed == 0

    def test_config_file_flag_precedence(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 7, "reg": "firstdiff"}))
        args = parse_config(
            ["invert", "--measurement", "m.csv", "--config", str(cfg),
             "--reg", "twomey"]
        )
        assert args.reg == "twomey"  # flag wins
        assert args.seed == 7  # file fills the default

    def test_config_fills_subcommand_option(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"method": "morozov"}))
        args = parse_config(
            ["invert", "--measurement", "m.csv", "--config", str(cfg)]
        )
        assert args.method == "morozov"
        args = parse_config(
            ["invert", "--measurement", "m.csv", "--config", str(cfg),
             "--method", "bic"]
        )
        assert args.method == "bic"  # flag wins

    @pytest.mark.parametrize(
        "values, key",
        [({"seed": "abc"}, "seed"), ({"reg": "bogus"}, "reg"),
         ({"method": "fastest"}, "method")],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, values, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(values))
        code = main(["invert", "--measurement", "m.csv", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert repr(key) in err
        assert "Traceback" not in err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(UsageError):
            parse_config(["invert", "--measurement", "m.csv", "--config", str(cfg)])

    def test_bad_tau_grid(self):
        args = parse_config(
            ["invert", "--measurement", "m.csv", "--tau-grid", "a,b"]
        )
        from aeroinv.cli import _tau_grid

        with pytest.raises(UsageError):
            _tau_grid(args, (1.1,))


class TestMeasurementIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        meas = Measurement(
            np.sort(rng.uniform(0.5, 3.3, 6)),
            rng.uniform(1e3, 1e5, 6),
            rng.uniform(1e2, 1e6, 6),
            repeats=300,
        )
        path = tmp_path / "m.csv"
        write_measurement(path, meas)
        back = read_measurement(path)
        assert np.array_equal(back.wavelengths, meas.wavelengths)
        assert np.array_equal(back.mean_extinction, meas.mean_extinction)
        assert np.array_equal(back.variance, meas.variance)
        assert back.repeats == meas.repeats


@pytest.fixture(scope="module")
def measurement_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "meas.csv"
    code = main(
        ["simulate", "--family", "log_normal", "--param-index", "44",
         "--seed", "5", "--out", str(path)]
    )
    assert code == 0
    return path


class TestCommands:
    def test_simulate_then_invert_round_trip(self, measurement_file, tmp_path):
        out = tmp_path / "inv.json"
        code = main(
            ["invert", "--measurement", str(measurement_file), "--out", str(out),
             "--mc-samples", "3000", "--emit-plot-data"]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["schema"] == "aeroinv-inversion/1"
        posts = [c["posterior"] for c in record["candidates"]]
        assert sum(posts) == pytest.approx(1.0, abs=1e-9)
        recon = np.array(record["reconstruction"]["density"])
        assert np.all(recon >= 0.0)
        assert len(record["reconstruction"]["radius_um"]) == 200
        assert out.with_suffix(".recon.csv").exists()
        # json floats round-trip bit-exactly through repr
        again = json.loads(out.read_text())
        assert again == record

    def test_invert_no_models_exit_code(self, tmp_path):
        # data norm below every residual target: exit 2 plus an error record
        path = tmp_path / "weak.csv"
        wl = np.linspace(0.6, 3.3, 8)
        meas = Measurement(wl, np.full(8, 1e-9), np.ones(8), repeats=1)
        write_measurement(path, meas)
        out = tmp_path / "inv.json"
        code = main(["invert", "--measurement", str(path), "--out", str(out)])
        assert code == 2
        record = json.loads(out.read_text())
        assert record["error"]["type"] == "NoModels"

    def test_study_reduced_schema(self, tmp_path):
        out = tmp_path / "study.json"
        code = main(
            ["study", "--family", "log_normal", "--method", "constrained",
             "--params", "44", "--repeats", "1", "--mc-samples", "2000",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "aeroinv-report/1"
        assert report["method_stats"][0]["family"] == "log_normal"
        assert report["records"][0]["status"] in (
            "success", "l2_failure", "no_model_failure"
        )
        csv_path = out.with_suffix(".csv")
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("family,method,reg_kind,avg_l2_pct")

    def test_usage_error_exit_code(self):
        assert main([]) == 1


class TestBadMeasurementInput:
    @pytest.mark.parametrize(
        "defect, reason", [("nan_row", "finite"), ("unsorted", "increasing")]
    )
    def test_rejected_at_the_boundary(self, tmp_path, capsys, defect, reason):
        wl = np.linspace(0.6, 3.3, 8)
        mean = np.linspace(1e3, 2e3, 8)
        if defect == "nan_row":
            mean[3] = np.nan
        else:
            wl[[2, 5]] = wl[[5, 2]]
        path = tmp_path / "bad.csv"
        lines = ["wavelength_um,mean_extinction,variance,repeats"]
        lines += [f"{float(w)!r},{float(m)!r},100.0,300" for w, m in zip(wl, mean)]
        path.write_text("\n".join(lines) + "\n")
        code = main(
            ["invert", "--measurement", str(path), "--method", "morozov",
             "--out", str(tmp_path / "inv.json")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert reason in err
        assert "Traceback" not in err


class TestMcSamplesInput:
    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_nonpositive_rejected(self, measurement_file, tmp_path, capsys, value):
        out = tmp_path / "inv.json"
        code = main(
            ["invert", "--measurement", str(measurement_file), "--out", str(out),
             "--mc-samples", value]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert "--mc-samples" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_value_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mc_samples": "many"}))
        with pytest.raises(UsageError):
            parse_config(["invert", "--measurement", "m.csv", "--config", str(cfg)])


class TestEvidenceErrorOutput:
    def test_constrained_candidates_carry_log_marginal_se(
        self, measurement_file, tmp_path
    ):
        out = tmp_path / "inv.json"
        code = main(["invert", "--measurement", str(measurement_file), "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        errs = [c["log_marginal_se"] for c in record["candidates"]]
        assert all(e is not None and np.isfinite(e) and e >= 0.0 for e in errs)
        assert record["diagnostics"]["log_marginal_se"] == errs

    def test_classical_method_leaves_it_empty(self, measurement_file, tmp_path):
        out = tmp_path / "inv.json"
        code = main(
            ["invert", "--measurement", str(measurement_file), "--out", str(out),
             "--method", "unconstrained"]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert all(c["log_marginal_se"] is None for c in record["candidates"])
        assert all(e is None for e in record["diagnostics"]["log_marginal_se"])


class TestNumericFlagsAtTheBoundary:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--param-index", "100"], "--param-index"),
            (["simulate", "--param-index", "-1"], "--param-index"),
            (["simulate", "--repeats", "0"], "--repeats"),
            (["simulate", "--materials", "h2o,csi", "--water-fraction", "1.5"],
             "--water-fraction"),
            (["study", "--params", "200"], "--params"),
            (["study", "--params", "abc"], "--params"),
            (["study", "--repeats", "0"], "--repeats"),
            (["study2", "--repeats", "0"], "--repeats"),
        ],
        ids=lambda v: "_".join(v) if isinstance(v, list) else None,
    )
    def test_rejected_as_usage_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.json"
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert flag in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()
