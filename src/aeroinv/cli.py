"""Command-line front end: simulate, invert, invert2, study, study2.

Inversion results and study reports are written as JSON (with an embedded
schema tag) plus flat CSV tables for plotting; ``--emit-plot-data`` adds
reconstruction and fraction-residual curves.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import simulation_study as study
from .discretization import evaluate_distribution
from .errors import AeroinvError, NoModels, UsageError
from .model_selection import (
    DEFAULT_TAU_GRID,
    Measurement,
    NoiseScaling,
    bic_select,
    invert_constrained,
    invert_morozov,
    invert_unconstrained,
)
from .optics import get_material, make_mixed_kernel
from .two_component import (
    FALLBACK_TAU_GRID,
    TAU_GRID_TWO_COMPONENT,
    build_kernel_family,
    generate_models_two_component,
    scan_fractions,
    select_models_two_component,
)

RECORD_SCHEMA = "aeroinv-inversion/1"
REPORT_SCHEMA = "aeroinv-report/1"
MEASUREMENT_SCHEMA_COLUMNS = "wavelength_um,mean_extinction,variance[,repeats]"

_COMMANDS = ("simulate", "invert", "invert2", "study", "study2")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeroinv",
        description="Aerosol size-distribution retrieval from extinction spectra",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", type=Path, help="JSON config file; flags win")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument(
            "--reg",
            choices=("tikhonov", "firstdiff", "twomey"),
            default=None,
            help="regularizer kind",
        )
        p.add_argument("--tau-grid", default=None, help="comma-separated factors")
        p.add_argument("--mc-samples", type=int, default=None)
        p.add_argument("--emit-plot-data", action="store_true")

    p = sub.add_parser("simulate", help="write a synthetic measurement file")
    common(p)
    p.add_argument("--family", choices=study.FAMILIES, default="log_normal")
    p.add_argument("--param-index", type=int, default=0)
    p.add_argument("--noise-fraction", type=float, default=None)
    p.add_argument("--repeats", type=int, default=300)
    p.add_argument("--material", default="h2o")
    p.add_argument("--materials", default=None, help="A,B for a mixture truth")
    p.add_argument("--water-fraction", type=float, default=1.0)

    p = sub.add_parser("invert", help="single-component inversion")
    common(p)
    p.add_argument("--measurement", type=Path, required=True)
    p.add_argument("--material", default="h2o")
    p.add_argument(
        "--method",
        choices=("constrained", "morozov", "unconstrained", "bic"),
        default="constrained",
    )

    p = sub.add_parser("invert2", help="two-component inversion")
    common(p)
    p.add_argument("--measurement", type=Path, required=True)
    p.add_argument("--materials", default="h2o,csi")

    p = sub.add_parser("study", help="single-component comparative study")
    common(p)
    p.add_argument("--scale", choices=("reduced", "full"), default="reduced")
    p.add_argument("--family", default="all")
    p.add_argument(
        "--method",
        choices=("constrained", "morozov", "unconstrained", "bic", "all"),
        default="all",
    )
    p.add_argument("--noise-fraction", type=float, default=None)
    p.add_argument("--params", default=None, help="comma-separated parameter indices")
    p.add_argument("--repeats", type=int, default=None, help="repeats per parameter")

    p = sub.add_parser("study2", help="two-component study")
    common(p)
    p.add_argument("--scale", choices=("reduced", "full"), default="reduced")
    p.add_argument("--family", default="log_normal")
    p.add_argument("--materials", default="h2o,csi")
    p.add_argument("--noise-fraction", type=float, default=None)
    p.add_argument("--params", default=None, help="comma-separated parameter indices")
    p.add_argument("--repeats", type=int, default=None, help="repeats per parameter")

    return parser


def parse_config(argv=None) -> argparse.Namespace:
    """Parse flags, layering an optional JSON config file underneath them."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError(
            "no command given; available commands: " + ", ".join(_COMMANDS)
        )
    if getattr(args, "config", None):
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        for key, value in file_values.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise UsageError(f"unknown config key {key!r}")
            # flags win: only fill values the command line left at default
            if parser.get_default(attr) == getattr(args, attr):
                setattr(args, attr, value)
    if args.seed is None:
        args.seed = 0
    return args


def _reg_kind(args) -> str:
    mapping = {"firstdiff": "first_diff", None: "tikhonov"}
    return mapping.get(args.reg, args.reg)


def _tau_grid(args, default):
    if args.tau_grid is None:
        return default
    try:
        values = tuple(float(v) for v in str(args.tau_grid).split(","))
    except ValueError as exc:
        raise UsageError(f"bad --tau-grid {args.tau_grid!r}") from exc
    if not values or any(v <= 0 for v in values):
        raise UsageError("--tau-grid needs positive comma-separated values")
    return values


def read_measurement(path: Path) -> Measurement:
    """Read a ``wavelength_um,mean_extinction,variance[,repeats]`` table."""
    rows = []
    repeats = 1
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                try:
                    values = [float(v) for v in row[: 4 if len(row) > 3 else 3]]
                except ValueError:
                    continue  # header
                rows.append(values[:3])
                if len(values) > 3:
                    repeats = int(values[3])
    except OSError as exc:
        raise UsageError(f"cannot read measurement file {path}: {exc}") from exc
    if not rows:
        raise UsageError(f"no measurement rows in {path}")
    data = np.array(rows)
    return Measurement(data[:, 0], data[:, 1], data[:, 2], repeats)


def write_measurement(path: Path, meas: Measurement) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_um", "mean_extinction", "variance", "repeats"])
        for wl, m, v in zip(meas.wavelengths, meas.mean_extinction, meas.variance):
            writer.writerow([repr(float(wl)), repr(float(m)), repr(float(v)), meas.repeats])


def _candidate_dict(c) -> dict:
    return {
        "weights": [float(x) for x in c.weights],
        "grid_points": [float(x) for x in c.kernel.collocation_grid.points],
        "gamma": float(c.gamma),
        "tau": None if c.tau is None else float(c.tau),
        "dim": int(c.dim),
        "posterior": None if c.posterior is None else float(c.posterior),
        "log_marginal": None if c.log_marginal is None else float(c.log_marginal),
        "residual_sq": float(c.residual_sq),
        "fraction": None if c.fraction is None else float(c.fraction),
    }


def _inversion_record(ranked, meas, elapsed, extra=None) -> dict:
    top = ranked[0]
    grid = top.kernel.collocation_grid
    r_out = np.linspace(grid.r_min, grid.r_max, 200)
    recon = np.maximum(evaluate_distribution(top.weights, grid, r_out), 0.0)
    scaling = NoiseScaling.from_measurement(meas)
    record = {
        "schema": RECORD_SCHEMA,
        "candidates": [_candidate_dict(c) for c in ranked],
        "reconstruction": {
            "radius_um": [float(x) for x in r_out],
            "density": [float(x) for x in recon],
        },
        "diagnostics": {
            "delta_sq": float(scaling.delta_sq),
            "n_wavelengths": int(meas.n_wavelengths),
            "residual_sq": [float(c.residual_sq) for c in ranked],
            "elapsed_s": float(elapsed),
        },
    }
    if extra:
        record.update(extra)
    return record


def _stats_dict(stats) -> dict:
    return dataclasses.asdict(stats)


def _report_dict(report) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "wall_time_s": float(report.wall_time),
        "method_stats": [
            {"family": k[0], "method": k[1], "reg_kind": k[2], **_stats_dict(v)}
            for k, v in sorted(report.method_stats.items())
        ],
        "fraction_stats": None
        if report.fraction_stats is None
        else [
            {"family": k[0], "reg_kind": k[1], **_stats_dict(v)}
            for k, v in sorted(report.fraction_stats.items())
        ],
        "records": [dataclasses.asdict(r) for r in report.records],
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))


def _write_report_csv(path: Path, report) -> None:
    """Flat per-method table mirroring the study's aggregate layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["family", "method", "reg_kind", "avg_l2_pct", "worst_l2_pct",
             "l2_failures", "no_model_failures", "avg_time_s", "worst_time_s",
             "avg_dim", "runs"]
        )
        for (fam, meth, reg), st in sorted(report.method_stats.items()):
            writer.writerow(
                [fam, meth, reg, st.avg_l2, st.worst_l2, st.l2_failures,
                 st.no_model_failures, st.avg_time, st.worst_time, st.avg_dim,
                 st.runs]
            )
        if report.fraction_stats:
            writer.writerow([])
            writer.writerow(
                ["family", "reg_kind", "water_percent", "avg_l2_pct", "avg_dev_pct",
                 "worst_dev_pct", "l2_failures", "dev_failures",
                 "no_model_failures", "avg_time_s", "worst_time_s", "avg_dim",
                 "runs"]
            )
            for (fam, reg, _), st in sorted(report.fraction_stats.items()):
                writer.writerow(
                    [fam, reg, st.water_percent, st.avg_l2, st.avg_dev,
                     st.worst_dev, st.l2_failures, st.dev_failures,
                     st.no_model_failures, st.avg_time, st.worst_time,
                     st.avg_dim, st.runs]
                )


def _cmd_simulate(args) -> int:
    wavelengths = study.study_wavelengths()
    fgrid = study.fine_grid()
    dist = study.parameter_grid(args.family)[args.param_index]
    if args.materials:
        mats = [m.strip() for m in args.materials.split(",")]
        if len(mats) != 2:
            raise UsageError("--materials needs exactly two names")
        kernel = make_mixed_kernel(
            get_material(mats[0]), get_material(mats[1]), get_material("air"),
            args.water_fraction,
        )
    else:
        kernel = study._single_kernel(args.material, "air")
    noise = args.noise_fraction if args.noise_fraction is not None else 0.30
    e_true = study.forward_extinctions(dist, kernel, wavelengths, grid=fgrid)
    meas = study.simulate_measurement(
        wavelengths, e_true, noise, args.repeats, np.random.default_rng(args.seed)
    )
    out = args.out or Path("measurement.csv")
    write_measurement(out, meas)
    print(f"wrote {out}")
    return 0


def _cmd_invert(args) -> int:
    meas = read_measurement(args.measurement)
    wavelengths = meas.wavelengths
    igrid = study.integration_grid()
    kernel = study._single_kernel(args.material, "air")
    rows = study.kernel_rows(kernel, wavelengths, igrid)
    builder = study.KernelLevelCache(rows, wavelengths, igrid)
    reg_kind = _reg_kind(args)
    tau_grid = _tau_grid(args, DEFAULT_TAU_GRID)
    samples = args.mc_samples or 50_000
    t0 = time.perf_counter()
    if args.method == "constrained":
        ranked = invert_constrained(
            meas, builder, tau_grid=tau_grid, reg_kind=reg_kind,
            samples=samples, seed=args.seed,
        )
    elif args.method == "morozov":
        ranked = invert_morozov(meas, builder, reg_kind=reg_kind)
    elif args.method == "unconstrained":
        ranked = invert_unconstrained(
            meas, builder, tau_grid=tau_grid, reg_kind=reg_kind
        )
    else:
        top, _score = bic_select(meas, builder, tau_grid=tau_grid)
        ranked = [top]
    elapsed = time.perf_counter() - t0
    record = _inversion_record(ranked, meas, elapsed, {"method": args.method})
    out = args.out or Path("inversion.json")
    _write_json(out, record)
    if args.emit_plot_data:
        _emit_recon_csv(out.with_suffix(".recon.csv"), record)
    print(f"wrote {out}")
    return 0


def _emit_recon_csv(path: Path, record: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius_um", "density"])
        for r, n in zip(
            record["reconstruction"]["radius_um"], record["reconstruction"]["density"]
        ):
            writer.writerow([repr(r), repr(n)])


def _cmd_invert2(args) -> int:
    meas = read_measurement(args.measurement)
    mats = [m.strip() for m in args.materials.split(",")]
    if len(mats) != 2:
        raise UsageError("--materials needs exactly two names")
    igrid = study.integration_grid()
    family = build_kernel_family(
        get_material(mats[0]), get_material(mats[1]), get_material("air"),
        meas.wavelengths, igrid,
    )
    reg_kind = _reg_kind(args)
    tau_grid = _tau_grid(args, TAU_GRID_TWO_COMPONENT)
    samples = args.mc_samples or 50_000
    t0 = time.perf_counter()
    candidates = generate_models_two_component(
        family, meas, tau_grid=tau_grid, fallback_tau_grid=FALLBACK_TAU_GRID,
        reg_kind=reg_kind,
    )
    ranked = select_models_two_component(
        candidates, meas, samples=samples, seed=args.seed
    )
    elapsed = time.perf_counter() - t0
    record = _inversion_record(
        ranked, meas, elapsed,
        {"method": "constrained2", "retrieved_fraction": float(ranked[0].fraction)},
    )
    out = args.out or Path("inversion2.json")
    _write_json(out, record)
    if args.emit_plot_data:
        _emit_recon_csv(out.with_suffix(".recon.csv"), record)
        scan = scan_fractions(
            family, meas, n_col=len(ranked[0].kernel.collocation_grid)
        )
        with open(out.with_suffix(".fractions.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fraction", "nnls_residual_sq"])
            for p, res in zip(family.fractions, scan.residuals):
                writer.writerow([repr(float(p)), repr(float(res))])
    print(f"wrote {out}")
    return 0


def _cmd_study(args) -> int:
    families = (
        study.FAMILIES if args.family == "all" else (args.family,)
    )
    methods = study.METHODS if args.method == "all" else (args.method,)
    overrides = dict(
        families=families, methods=methods, seed=args.seed,
        reg_kinds=(_reg_kind(args),),
    )
    if args.noise_fraction is not None:
        overrides["noise_fraction"] = args.noise_fraction
    if args.mc_samples:
        overrides["mc_samples"] = args.mc_samples
    if args.tau_grid:
        overrides["tau_grid"] = _tau_grid(args, DEFAULT_TAU_GRID)
    if args.params:
        overrides["parameter_indices"] = tuple(
            int(v) for v in str(args.params).split(",")
        )
    if args.repeats:
        overrides["repeats_per_parameter"] = args.repeats
    cfg = (
        study.reduced_config(**overrides)
        if args.scale == "reduced"
        else study.full_config(**overrides)
    )
    report = study.run_study(cfg)
    out = args.out or Path("study_report.json")
    _write_json(out, _report_dict(report))
    _write_report_csv(out.with_suffix(".csv"), report)
    print(f"wrote {out}")
    return 0


def _cmd_study2(args) -> int:
    mats = [m.strip() for m in args.materials.split(",")]
    if len(mats) != 2:
        raise UsageError("--materials needs exactly two names")
    overrides = dict(
        families=(args.family,), seed=args.seed, reg_kinds=(_reg_kind(args),),
        component_a=mats[0], component_b=mats[1],
    )
    if args.noise_fraction is not None:
        overrides["noise_fraction"] = args.noise_fraction
    if args.mc_samples:
        overrides["mc_samples"] = args.mc_samples
    if args.tau_grid:
        overrides["tau_grid"] = _tau_grid(args, TAU_GRID_TWO_COMPONENT)
    if args.params:
        overrides["parameter_indices"] = tuple(
            int(v) for v in str(args.params).split(",")
        )
    if args.repeats:
        overrides["repeats_per_parameter"] = args.repeats
    cfg = (
        study.reduced_two_component_config(**overrides)
        if args.scale == "reduced"
        else study.full_two_component_config(**overrides)
    )
    report = study.run_study_two_component(cfg)
    out = args.out or Path("study2_report.json")
    _write_json(out, _report_dict(report))
    _write_report_csv(out.with_suffix(".csv"), report)
    print(f"wrote {out}")
    return 0


def run(args) -> int:
    """Dispatch a parsed command; returns the process exit status."""
    handlers = {
        "simulate": _cmd_simulate,
        "invert": _cmd_invert,
        "invert2": _cmd_invert2,
        "study": _cmd_study,
        "study2": _cmd_study2,
    }
    try:
        return handlers[args.command](args)
    except UsageError:
        raise
    except AeroinvError as exc:
        no_models = isinstance(exc, NoModels)
        payload = {
            "schema": RECORD_SCHEMA,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        out = getattr(args, "out", None) or Path("inversion.json")
        _write_json(Path(out), payload)
        print(f"error: {exc}", file=sys.stderr)
        return 2 if no_models else 1


def main(argv=None) -> int:
    try:
        args = parse_config(argv)
        return run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
