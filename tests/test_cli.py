import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import aeroinv
from aeroinv.cli import (
    MAX_MC_SAMPLES,
    _write_report_csv,
    main,
    parse_config,
    read_measurement,
    write_measurement,
)
from aeroinv.errors import UsageError
from aeroinv.model_selection import _SCREEN_DIVISOR, Measurement
from aeroinv.orthant_mvn import DEFAULT_SAMPLES
from aeroinv.simulation_study import FractionStats, MethodStats, StudyReport


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


class TestReportCsv:
    def test_headers_and_rows_byte_for_byte(self, tmp_path):
        method = MethodStats(
            runs=12, avg_l2=23.72, worst_l2=61.5, l2_failures=1,
            no_model_failures=0, search_failures=2, avg_time=0.125,
            worst_time=1.5, avg_dim=17.25, avg_log_marginal_se=0.0031,
            worst_log_marginal_se=None, untilted_integrals=3,
        )
        fraction = FractionStats(
            water_percent=33.0, runs=4, avg_l2=15.48, avg_dev=1.25,
            worst_dev=3.5, l2_failures=0, dev_failures=1, no_model_failures=0,
            search_failures=0, avg_time=0.75, worst_time=0.9, avg_dim=21.0,
            avg_log_marginal_se=None, worst_log_marginal_se=0.0045,
            untilted_integrals=None,
        )
        report = StudyReport(
            records=(),
            method_stats={("rrsb", "constrained", "tikhonov"): method},
            fraction_stats={("log_normal", "tikhonov", 33.0): fraction},
        )
        path = tmp_path / "report.csv"
        _write_report_csv(path, report)
        assert path.read_bytes() == (
            b"family,method,reg_kind,avg_l2_pct,worst_l2_pct,l2_failures,"
            b"no_model_failures,search_failures,avg_time_s,worst_time_s,avg_dim,"
            b"runs,avg_log_marginal_se,worst_log_marginal_se,untilted_integrals\r\n"
            b"rrsb,constrained,tikhonov,23.72,61.5,1,0,2,0.125,1.5,17.25,12,0.0031,"
            b",3\r\n"
            b"\r\n"
            b"family,reg_kind,water_percent,avg_l2_pct,avg_dev_pct,worst_dev_pct,"
            b"l2_failures,dev_failures,no_model_failures,search_failures,"
            b"avg_time_s,worst_time_s,avg_dim,runs,avg_log_marginal_se,"
            b"worst_log_marginal_se,untilted_integrals\r\n"
            b"log_normal,tikhonov,33.0,15.48,1.25,3.5,0,1,0,0,0.75,0.9,21.0,4,,"
            b"0.0045,\r\n"
        )


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
        # every evidence integral of a normal run is tilted
        assert report["records"][0]["untilted_integrals"] == 0
        assert report["method_stats"][0]["untilted_integrals"] == 0
        csv_path = out.with_suffix(".csv")
        assert csv_path.exists()
        header, row = csv_path.read_text().splitlines()
        assert header.startswith("family,method,reg_kind,avg_l2_pct")
        assert header.endswith(",untilted_integrals") and row.endswith(",0")

    def test_study_counts_untilted_integrals(self, tmp_path, monkeypatch):
        """The first orthant set-up of the study runs untilted: the
        constrained record, its JSON method row and its CSV row count one
        untilted integral, and the methods without Monte Carlo evidence
        count none (None, an empty cell)."""
        import aeroinv.orthant_mvn as ortho

        tilt, forced = ortho._minimax_tilt, []

        def first_untilted(L, lower, means):
            mu, psi, tilted = tilt(L, lower, means)
            if not forced:
                forced.append(lower.shape[0])
                mu[0], psi[0], tilted[0] = 0.0, 0.0, False
            return mu, psi, tilted

        monkeypatch.setattr(ortho, "_minimax_tilt", first_untilted)
        out = tmp_path / "study.json"
        code = main(
            ["study", "--family", "log_normal", "--method", "all",
             "--params", "44", "--repeats", "1", "--mc-samples", "2000",
             "--out", str(out)]
        )
        assert code == 0 and forced
        report = json.loads(out.read_text())
        expect = {m: None for m in ("morozov", "unconstrained", "bic")}
        expect["constrained"] = 1
        got = {r["method"]: r["untilted_integrals"] for r in report["records"]}
        assert got == expect
        got = {s["method"]: s["untilted_integrals"] for s in report["method_stats"]}
        assert got == expect
        header, *rows = out.with_suffix(".csv").read_text().splitlines()
        assert header.endswith(",untilted_integrals")
        got = {row.split(",")[1]: row.rsplit(",", 1)[1] for row in rows}
        assert got == {m: "" if n is None else str(n) for m, n in expect.items()}

    def test_usage_error_exit_code(self):
        assert main([]) == 1

    def test_invert2_emits_fraction_and_plot_data(self, tmp_path):
        meas = tmp_path / "mix.csv"
        code = main(
            ["simulate", "--family", "rrsb", "--param-index", "7", "--seed", "3",
             "--materials", "h2o,csi", "--water-fraction", "0.3", "--out", str(meas)]
        )
        assert code == 0
        out = tmp_path / "inv2.json"
        code = main(
            ["invert2", "--measurement", str(meas), "--out", str(out),
             "--mc-samples", "2000", "--emit-plot-data"]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["method"] == "constrained2"
        assert 0.0 <= record["retrieved_fraction"] <= 1.0
        assert record["candidates"][0]["fraction"] == record["retrieved_fraction"]
        assert out.with_suffix(".recon.csv").exists()
        rows = out.with_suffix(".fractions.csv").read_text().splitlines()
        assert rows[0] == "fraction,nnls_residual_sq"
        assert len(rows) == 1 + 201

    def test_invert2_plot_data_reuses_the_level_scan(self, tmp_path, monkeypatch):
        """``invert2 --emit-plot-data`` writes the fraction scan its
        generation kept: each scanned level is scanned once, and the CSV
        holds the rows of ``scan_fractions`` on a fresh family byte for
        byte."""
        from collections import Counter

        from aeroinv import simulation_study, two_component
        from aeroinv.cli import _write_csv

        meas_path = tmp_path / "mix.csv"
        assert main(
            ["simulate", "--family", "rrsb", "--param-index", "7", "--seed", "3",
             "--materials", "h2o,csi", "--water-fraction", "0.3",
             "--out", str(meas_path)]
        ) == 0
        scan = two_component.scan_fractions
        scanned = Counter()

        def counting_scan(family, meas, n_col):
            scanned[n_col] += 1
            return scan(family, meas, n_col)

        # every aeroinv module that binds the scan calls the counting one
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "aeroinv":
                for attr, value in list(vars(module).items()):
                    if value is scan:
                        monkeypatch.setattr(module, attr, counting_scan)
        out = tmp_path / "inv2.json"
        assert main(
            ["invert2", "--measurement", str(meas_path), "--out", str(out),
             "--mc-samples", "2000", "--emit-plot-data"]
        ) == 0
        monkeypatch.undo()
        n_col = len(json.loads(out.read_text())["candidates"][0]["grid_points"])
        assert scanned and set(scanned.values()) == {1} and n_col in scanned
        meas = read_measurement(meas_path)
        family = simulation_study.kernel_family(("h2o", "csi"), meas.wavelengths)
        fresh = scan(family, meas, n_col)
        expect = tmp_path / "fresh.fractions.csv"
        _write_csv(
            expect, ["fraction", "nnls_residual_sq"],
            zip(family.fractions, fresh.residuals),
        )
        assert out.with_suffix(".fractions.csv").read_bytes() == expect.read_bytes()

    def test_study2_reduced_reports_fraction_table(self, tmp_path):
        out = tmp_path / "study2.json"
        code = main(
            ["study2", "--scale", "reduced", "--params", "0", "--repeats", "1",
             "--mc-samples", "2000", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["records"]) == 4  # one per default water fraction
        percents = [s["water_percent"] for s in report["fraction_stats"]]
        assert percents == pytest.approx([0.0, 33.0, 67.0, 100.0])
        assert all(r["method"] == "constrained2" for r in report["records"])
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert "" in lines
        assert lines[lines.index("") + 1].startswith(
            "family,reg_kind,water_percent,avg_l2_pct,avg_dev_pct"
        )
        assert len(lines) == lines.index("") + 2 + 4

    def test_invert2_error_record_leaves_inversion_json(
        self, tmp_path, monkeypatch
    ):
        # an earlier invert result in the working directory must survive
        monkeypatch.chdir(tmp_path)
        earlier = tmp_path / "inversion.json"
        earlier.write_text('{"earlier": true}')
        wl = np.linspace(0.6, 3.3, 8)
        write_measurement(
            tmp_path / "weak.csv", Measurement(wl, np.full(8, 1e-9), np.ones(8))
        )
        assert main(["invert2", "--measurement", "weak.csv"]) == 2
        record = json.loads((tmp_path / "inversion2.json").read_text())
        assert record["error"]["type"] == "NoModels"
        assert earlier.read_text() == '{"earlier": true}'


class TestBadMeasurementInput:
    @pytest.mark.parametrize(
        "defect, reason",
        [("nan_row", "finite"), ("unsorted", "increasing"),
         ("zero_repeats", "repeats"), ("negative_repeats", "repeats"),
         ("fractional_repeats", "repeats"), ("text_repeats", "repeats"),
         ("rows_disagree_on_repeats", "repeats"),
         ("row_without_repeats", "repeats"), ("no_variance", "variance"),
         ("text_between_rows", "abc")],
    )
    def test_rejected_at_the_boundary(self, tmp_path, capsys, defect, reason):
        wl = np.linspace(0.6, 3.3, 8)
        mean = np.linspace(1e3, 2e3, 8)
        repeats = ["300"] * 8
        if defect == "nan_row":
            mean[3] = np.nan
        elif defect == "unsorted":
            wl[[2, 5]] = wl[[5, 2]]
        elif defect == "rows_disagree_on_repeats":
            repeats[5] = "3"
        else:
            value = {"zero_repeats": "0", "negative_repeats": "-3",
                     "fractional_repeats": "2.7", "text_repeats": "many"}
            repeats[5] = value.get(defect, "")
        path = tmp_path / "bad.csv"
        lines = ["wavelength_um,mean_extinction,variance,repeats"]
        lines += [
            f"{float(w)!r},{float(m)!r},100.0,{n}"
            for w, m, n in zip(wl, mean, repeats)
        ]
        if defect == "row_without_repeats":
            lines[3] = lines[3].rsplit(",", 1)[0]
        elif defect == "no_variance":
            lines[3] = lines[3].split(",100.0")[0]
        elif defect == "text_between_rows":
            lines[4] = f"{float(wl[3])!r},abc,100.0,300"
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

    def test_only_leading_rows_may_be_headers(self, tmp_path):
        path = tmp_path / "m.csv"
        good = ["0.6,1000.0,100.0,300", "0.9,1100.0,100.0,300"]
        path.write_text("\n".join(["# extinction", "wl,mean,var,n", *good]) + "\n")
        assert read_measurement(path).n_wavelengths == 2
        path.write_text("\n".join([good[0], "0.7,abc,100.0,300", good[1]]) + "\n")
        with pytest.raises(UsageError, match="0.7"):
            read_measurement(path)

    def test_malformed_first_row_is_not_a_header(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = ["0.7,abc,100.0,300", "0.9,1100.0,100.0,300", "1.2,1200.0,100.0,300"]
        for lines in (rows, ["wl,mean,var,n", *rows]):
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(UsageError, match="0.7"):
                read_measurement(path)

    def test_malformed_first_row_exits_with_usage_error(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        lines = ["0.7,abc,100.0,300"]
        lines += [f"{w!r},1000.0,100.0,300" for w in np.linspace(0.9, 3.3, 8)]
        path.write_text("\n".join(lines) + "\n")
        code = main(
            ["invert", "--measurement", str(path), "--method", "morozov",
             "--out", str(tmp_path / "inv.json")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and "0.7" in err
        assert "Traceback" not in err
        assert not (tmp_path / "inv.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["invert"], ["invert", "--method", "unconstrained"], ["invert2"]],
    )
    def test_overflowing_data_norm_is_a_usage_error(self, tmp_path, capsys, argv):
        """Means whose weighted squares overflow are refused when the file
        is read: one usage error line, no warning and no output, not an
        overflow turned into a "no model" result."""
        path = tmp_path / "huge.csv"
        path.write_text(
            "wavelength_um,mean_extinction,variance\n"
            + "".join(f"{w},1e200,1.0\n" for w in (0.6, 0.9, 1.2))
        )
        out = tmp_path / "inv.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--measurement", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "data norm" in err
        assert caught == []
        assert not out.exists()

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_measurement_needs_a_repeat(self, repeats):
        with pytest.raises(ValueError, match="repeats"):
            Measurement(np.array([0.6]), np.ones(1), np.ones(1), repeats)


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

    def test_budget_above_the_cap_rejected(self, measurement_file, tmp_path, capsys):
        """A budget past MAX_MC_SAMPLES is a usage error, not the sampler's
        memory error; at the cap it parses."""
        out = tmp_path / "inv.json"
        code = main(
            ["invert", "--measurement", str(measurement_file), "--out", str(out),
             "--method", "constrained", "--mc-samples", "99999999999999"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "--mc-samples" in err and "Traceback" not in err
        assert not out.exists()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mc_samples": MAX_MC_SAMPLES + 1}))
        with pytest.raises(UsageError, match="--mc-samples"):
            parse_config(["invert", "--measurement", "m.csv", "--config", str(cfg)])
        cfg.write_text(json.dumps({"mc_samples": MAX_MC_SAMPLES}))
        args = parse_config(["invert", "--measurement", "m.csv", "--config", str(cfg)])
        assert args.mc_samples == MAX_MC_SAMPLES


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
        # a candidate screened out of the ranking gets a fifth of the budget
        counts = [c["log_marginal_samples"] for c in record["candidates"]]
        assert counts[0] == DEFAULT_SAMPLES
        assert set(counts) <= {DEFAULT_SAMPLES // _SCREEN_DIVISOR, DEFAULT_SAMPLES}
        assert record["diagnostics"]["log_marginal_samples"] == counts
        assert record["diagnostics"]["untilted_integrals"] == 0

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
        assert all(c["log_marginal_samples"] is None for c in record["candidates"])
        assert all(n is None for n in record["diagnostics"]["log_marginal_samples"])


    def test_top_within_noise_flag(self, measurement_file, tmp_path):
        records = {}
        for method in ("constrained", "unconstrained"):
            out = tmp_path / f"{method}.json"
            code = main(
                ["invert", "--measurement", str(measurement_file), "--out",
                 str(out), "--method", method, "--mc-samples", "3000"]
            )
            assert code == 0
            records[method] = json.loads(out.read_text())
        record = records["constrained"]
        flag = record["diagnostics"]["top_within_noise"]
        first, second = record["candidates"][:2]
        lead = first["log_marginal"] - second["log_marginal"]
        noise = np.hypot(first["log_marginal_se"], second["log_marginal_se"])
        assert isinstance(flag, bool)
        assert flag == (lead <= 2.0 * noise)
        # no standard errors for the closed-form evidence
        assert records["unconstrained"]["diagnostics"]["top_within_noise"] is None


class TestLowNoisePath:
    def test_record_says_when_constrained_returned_morozov(
        self, measurement_file, tmp_path
    ):
        """Variances near 1e-14 put delta^2 below LOW_NOISE_DELTA_SQ, where the
        constrained method returns Morozov's result; the means are scaled by
        1e-12 with them, so the same problem stays solvable."""
        meas = read_measurement(measurement_file)
        low = tmp_path / "low.csv"
        write_measurement(
            low,
            Measurement(meas.wavelengths, meas.mean_extinction * 1e-12,
                        meas.variance * 1e-24, meas.repeats),
        )
        assert 1e-15 < read_measurement(low).variance.max() < 1e-13
        records = {}
        for name, path, method in (
            ("normal", measurement_file, "constrained"),
            ("low", low, "constrained"),
            ("low_morozov", low, "morozov"),
        ):
            out = tmp_path / f"{name}.json"
            code = main(
                ["invert", "--measurement", str(path), "--out", str(out),
                 "--method", method]
            )
            assert code == 0
            records[name] = json.loads(out.read_text())
        assert records["normal"]["diagnostics"]["low_noise_morozov"] is False
        assert records["low"]["diagnostics"]["low_noise_morozov"] is True
        assert records["low"]["method"] == "constrained"
        assert records["low"]["candidates"] == records["low_morozov"]["candidates"]
        assert records["low_morozov"]["diagnostics"]["low_noise_morozov"] is False


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
            (["study", "--params", ""], "--params"),
            (["study", "--repeats", "0"], "--repeats"),
            (["study2", "--repeats", "0"], "--repeats"),
            (["simulate", "--noise-fraction", "-0.3"], "--noise-fraction"),
            (["simulate", "--noise-fraction", "nan"], "--noise-fraction"),
            (["study", "--noise-fraction", "-0.001"], "--noise-fraction"),
            (["study", "--noise-fraction", "inf"], "--noise-fraction"),
            (["study2", "--noise-fraction", "-0.05"], "--noise-fraction"),
            (["simulate", "--seed=-1"], "--seed"),
            (["study", "--seed=-1"], "--seed"),
            (["invert", "--measurement", "m.csv", "--method", "constrained",
              "--seed=-1"], "--seed"),
            (["invert", "--measurement", "m.csv", "--method", "bic", "--seed=-1"],
             "--seed"),
            # argparse's own errors take the same path: no usage block, exit 1
            (["invert", "--measurement", "m.csv", "--seed", "abc"], "--seed"),
            (["bogus"], "bogus"),
            (["invert", "--measurement", "m.csv", "--bogus"], "--bogus"),
            (["invert"], "--measurement"),
            # a flag the command does not read
            (["simulate", "--reg", "twomey"], "--reg"),
            (["simulate", "--tau-grid", "1.1"], "--tau-grid"),
            (["simulate", "--mc-samples", "5"], "--mc-samples"),
            (["simulate", "--emit-plot-data"], "--emit-plot-data"),
            (["study", "--emit-plot-data"], "--emit-plot-data"),
            (["study2", "--emit-plot-data"], "--emit-plot-data"),
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


    def test_negative_config_seed_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": -2}))
        out = tmp_path / "out.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert "--seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400", "1.1,nan"])
    def test_non_finite_tau_grid_rejected(
        self, measurement_file, tmp_path, capsys, value
    ):
        out = tmp_path / "inv.json"
        code = main(
            ["invert", "--measurement", str(measurement_file), "--method", "bic",
             f"--tau-grid={value}", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert "--tau-grid" in err
        assert not out.exists()


class TestUnknownMaterial:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["invert", "--material", "bogus"], "--material"),
            (["simulate", "--material", "bogus"], "--material"),
            (["simulate", "--materials", "h2o,bogus"], "--materials"),
            (["invert2", "--materials", "bogus,csi"], "--materials"),
            (["study2", "--materials", "h2o,bogus"], "--materials"),
        ],
        ids=lambda v: "_".join(v) if isinstance(v, list) else None,
    )
    def test_rejected_as_usage_error(
        self, measurement_file, tmp_path, capsys, argv, flag
    ):
        if argv[0].startswith("invert"):
            argv = argv + ["--measurement", str(measurement_file)]
        out = tmp_path / "out.json"
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"usage error: {flag}:")
        assert "'bogus'" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "name", ["../data/h2o", "../../aeroinv/data/csi", "data/h2o", "..", "."]
    )
    def test_path_names_rejected(self, measurement_file, tmp_path, capsys, name):
        """A material name that is a path reaches no file, even one that
        exists."""
        out = tmp_path / "out.json"
        argv = ["invert", "--material", name, "--measurement", str(measurement_file)]
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: --material:")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows",
        [
            ["0.5,1.33,0.0", "1.0,1.33"],
            ["0.5,1.33,0.0", "1.0,abc,0.0"],
            ["1.0,1.33,0.0", "0.5,1.33,0.0"],
            ["0.5,1.33,0.0", "1.0,nan,0.0"],
            ["0.5,1.33,0.0", ",1.40,0.0", "1.0,1.33,0.0"],
        ],
        ids=["two_cell_row", "text_index", "decreasing", "nan_index", "blank_wavelength"],
    )
    def test_malformed_table_rejected(
        self, measurement_file, tmp_path, capsys, monkeypatch, rows
    ):
        """A malformed table in ``$AEROSOL_DATA_DIR`` is a usage error."""
        data_dir = tmp_path / "mat"
        data_dir.mkdir()
        lines = ["wavelength_um,real,imag"] + rows
        (data_dir / "bad.csv").write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("AEROSOL_DATA_DIR", str(data_dir))
        out = tmp_path / "out.json"
        argv = ["invert", "--material", "bad", "--measurement", str(measurement_file)]
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: --material:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_index_is_one_error_line(
        self, measurement_file, tmp_path, capsys, monkeypatch
    ):
        """``invert2`` on a table whose index overflows the mixing relation
        exits 1 with one ``error:`` line (DegenerateMix) and no traceback."""
        data_dir = tmp_path / "mat"
        data_dir.mkdir()
        (data_dir / "huge.csv").write_text(
            "wavelength_um,real,imag\n0.3,1e200,0.0\n4.0,1e200,0.0\n"
        )
        monkeypatch.setenv("AEROSOL_DATA_DIR", str(data_dir))
        out = tmp_path / "out.json"
        code = main(
            ["invert2", "--materials", "huge,csi", "--measurement",
             str(measurement_file), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: mixing")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        record = json.loads(out.read_text())
        assert record["error"]["type"] == "DegenerateMix"

    def test_material_count_checked(self, capsys):
        assert main(["invert2", "--measurement", "m.csv", "--materials", "h2o"]) == 1
        assert "--materials needs 2" in capsys.readouterr().err


class TestOneInputPath:
    """Config values are the command's defaults, so flags win; a command
    takes no config key or flag combination whose value it would ignore."""

    def test_explicit_flag_equal_to_its_default_beats_the_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"material": "csi", "method": "bic", "seed": 4}))
        args = parse_config(
            ["invert", "--measurement", "m.csv", "--config", str(cfg),
             "--material", "h2o", "--method", "constrained", "--seed", "0"]
        )
        assert (args.material, args.method, args.seed) == (["h2o"], "constrained", 0)
        args = parse_config(["invert", "--measurement", "m.csv", "--config", str(cfg)])
        assert (args.material, args.method, args.seed) == (["csi"], "bic", 4)

    def test_simulate_rejects_inversion_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"reg": "twomey"}))
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unknown config key 'reg'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe{"], ids=["list", "binary"])
    def test_config_must_be_a_json_object(self, tmp_path, capsys, content):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(content)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["simulate", "--water-fraction", "0.3"],
             ("--water-fraction", "--materials")),
            (["simulate", "--material", "h2o", "--materials", "h2o,csi"],
             ("--material", "--materials")),
        ],
        ids=["water_fraction_without_mixture", "material_and_materials"],
    )
    def test_simulate_rejects_ignored_material_flags(
        self, tmp_path, capsys, argv, flags
    ):
        out = tmp_path / "m.csv"
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert all(f in err for f in flags)
        assert not out.exists()

    def test_blank_wavelength_row_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        rows = ["1.0,1000.0,0.01,300", ",2.0,0.01,300", "3.0,1200.0,0.01,300"]
        path.write_text("\n".join(["wavelength_um,mean,var,n", *rows]) + "\n")
        with pytest.raises(UsageError, match="wavelength_um"):
            read_measurement(path)
        code = main(["invert", "--measurement", str(path), "--method", "morozov",
                     "--out", str(tmp_path / "inv.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:")
        assert "['', '2.0', '0.01', '300']" in err  # the row, named
        assert len(err.strip().splitlines()) == 1

    def test_unreadable_table_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text('wavelength_um,mean,var\n0.6,1.0,"' + "x" * 200_000 + '"\n')
        out = tmp_path / "inv.json"
        code = main(["invert", "--measurement", str(path), "--method", "morozov",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.startswith("usage error:") and str(path) in err
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == 1  # a directory
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


DEFERRED = ("scipy.integrate", "scipy.interpolate")


def run_fresh(cwd, *steps):
    """Run the Python statements ``steps`` in one new interpreter and return,
    after each, which ``DEFERRED`` subpackages it has loaded.  The test
    process cannot tell: its own imports load both."""
    code = ["import json, sys", "seen = []"]
    for step in steps:
        code += [step, f"seen.append(sorted(set({DEFERRED!r}) & set(sys.modules)))"]
    code.append("print(json.dumps(seen))")
    src = str(Path(aeroinv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def cli_step(*argv):
    return f"from aeroinv.cli import main\nif main({list(argv)!r}): sys.exit(1)"


class TestColdStart:
    """``simpson`` and ``CubicSpline`` are imported where they are called, so
    a cold ``aeroinv invert`` does not pay for scipy.integrate or
    scipy.interpolate."""

    def test_import_and_invert_load_neither(self, measurement_file, tmp_path):
        seen = run_fresh(
            tmp_path, "import aeroinv", "import aeroinv.cli",
            cli_step("invert", "--measurement", str(measurement_file),
                     "--out", "inv.json"),
        )
        assert seen == [[], [], []]
        assert json.loads((tmp_path / "inv.json").read_text())["candidates"]

    def test_simulate_then_invert2_each_in_a_new_interpreter(self, tmp_path):
        simulate = cli_step("simulate", "--materials", "h2o,csi",
                            "--water-fraction", "0.67", "--out", "mix.csv")
        assert run_fresh(tmp_path, simulate) == [["scipy.integrate"]]
        invert2 = cli_step("invert2", "--measurement", "mix.csv",
                           "--out", "inv2.json")
        assert run_fresh(tmp_path, invert2) == [["scipy.interpolate"]]
        record = json.loads((tmp_path / "inv2.json").read_text())
        assert 0.0 <= record["retrieved_fraction"] <= 1.0
