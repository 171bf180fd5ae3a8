"""Command-line front end: simulate, invert, invert2, study, study2.

Each command parses only the flags it reads.  The values of a ``--config``
JSON file are the command's defaults, so a flag given always wins.  Every
bad input, argparse's own errors included, is one ``usage error:`` line and
exit 1; exit 2 means that no admissible model fits the data.  Results and
reports are JSON (with a schema tag) plus flat CSV tables for plotting;
``--emit-plot-data`` adds reconstruction and fraction-residual curves.
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
from .model_selection import Measurement, is_low_noise, top_within_noise
from .optics import get_material, mixed_kernel_rows, read_table

RECORD_SCHEMA = "aeroinv-inversion/1"
REPORT_SCHEMA = "aeroinv-report/1"
MEASUREMENT_COLUMNS = ("wavelength_um", "mean_extinction", "variance")
# Largest --mc-samples accepted: the evidence sampler's time grows linearly
# with its budget, so larger values only run for hours.
MAX_MC_SAMPLES = 10_000_000


class _Parser(argparse.ArgumentParser):
    """A parser, and subcommand parser, whose errors are usage errors."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    """The top-level parser and the subcommand parsers by name."""
    parser = _Parser(
        prog="aeroinv",
        description="Aerosol size-distribution retrieval from extinction spectra",
    )
    sub = parser.add_subparsers(dest="command")

    def command(name, help, inverts=True):
        """A subcommand parser with the flags every command reads and, if it
        ``inverts``, those of the inversion."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=Path, help="JSON defaults; flags win")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path)
        if not inverts:
            return p
        p.add_argument("--reg", choices=("tikhonov", "firstdiff", "twomey"),
                       default="tikhonov", help="regularizer kind")
        p.add_argument("--tau-grid", help="comma-separated factors")
        p.add_argument(
            "--mc-samples", type=int,
            help="QMC points per fully estimated evidence integral, at most "
            f"{MAX_MC_SAMPLES:,} (default {study.DEFAULT_SAMPLES:,}); a "
            "candidate screened out of the ranking gets a fifth",
        )
        return p

    p = command("simulate", "write a synthetic measurement file", inverts=False)
    p.add_argument("--family", choices=study.FAMILIES, default="log_normal")
    p.add_argument("--param-index", type=int, default=0)
    p.add_argument(
        "--noise-fraction", type=float, default=study.StudyConfig.noise_fraction
    )
    p.add_argument("--repeats", type=int, default=study.DEFAULT_REPEATS)
    p.add_argument("--material", help="one material (default h2o)")
    p.add_argument("--materials", help="A,B for a mixture truth")
    p.add_argument("--water-fraction", type=float, help="share of A (default 1)")

    p = command("invert", "single-component inversion")
    p.add_argument("--emit-plot-data", action="store_true")
    p.add_argument("--measurement", type=Path, required=True)
    p.add_argument("--material", default="h2o")
    p.add_argument("--method", choices=study.METHODS, default="constrained")

    p = command("invert2", "two-component inversion")
    p.add_argument("--emit-plot-data", action="store_true")
    p.add_argument("--measurement", type=Path, required=True)
    p.add_argument("--materials", default="h2o,csi")

    for name, kind in (("study", "single"), ("study2", "two")):
        p = command(name, f"{kind}-component comparative study")
        p.add_argument("--scale", choices=("reduced", "full"), default="reduced")
        p.add_argument("--noise-fraction", type=float)
        p.add_argument("--params", help="comma-separated parameter indices")
        p.add_argument("--repeats", type=int, help="repeats per parameter")
    p = sub.choices["study"]
    p.add_argument("--family", choices=(*study.FAMILIES, "all"), default="all")
    p.add_argument("--method", choices=(*study.METHODS, "all"), default="all")
    p = sub.choices["study2"]
    p.add_argument("--family", choices=study.FAMILIES, default="log_normal")
    p.add_argument("--materials", default="h2o,csi")

    return parser, sub.choices


def _config_value(command_parser, key: str, value):
    """A config-file value checked like the command's flag of the same name:
    through its ``type`` and ``choices``, or as a JSON boolean for a switch."""
    attr = key.replace("-", "_")
    action = next((a for a in command_parser._actions if a.dest == attr), None)
    if action is None or action.default is argparse.SUPPRESS:
        raise UsageError(f"unknown config key {key!r}")
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise UsageError(f"config key {key!r} needs true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config key {key!r} needs a string or number, got {value!r}")
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value {value!r} for config key {key!r}") from exc
    if action.choices is not None and converted not in action.choices:
        raise UsageError(
            f"bad value {value!r} for config key {key!r}; choose from "
            + ", ".join(map(str, action.choices))
        )
    return converted


def parse_config(argv=None) -> argparse.Namespace:
    """Parse flags over the command's defaults.  The values of an optional
    JSON config file replace those defaults, so every flag given wins."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError(
            "no command given; available commands: " + ", ".join(commands)
        )
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError(f"config file {args.config} is not a JSON object")
        command_parser = commands[args.command]
        command_parser.set_defaults(**{
            key.replace("-", "_"): _config_value(command_parser, key, value)
            for key, value in file_values.items()
        })
        args = parser.parse_args(argv)
    if args.seed < 0:
        raise UsageError(f"--seed must be a nonnegative integer, got {args.seed!r}")
    for attr in ("mc_samples", "repeats"):
        value = getattr(args, attr, None)
        if value is not None and value < 1:
            flag = "--" + attr.replace("_", "-")
            raise UsageError(f"{flag} must be a positive integer, got {value!r}")
    if (getattr(args, "mc_samples", None) or 0) > MAX_MC_SAMPLES:
        raise UsageError(
            f"--mc-samples must be at most {MAX_MC_SAMPLES}, got {args.mc_samples!r}"
        )
    noise = getattr(args, "noise_fraction", None)
    if noise is not None and not 0.0 <= noise < np.inf:
        raise UsageError(
            f"--noise-fraction must be finite and nonnegative, got {noise!r}"
        )
    if args.command == "simulate":
        _simulated_materials(args)
    _resolve_materials(args)
    return args


def _simulated_materials(args) -> None:
    """``simulate`` takes one ``--material`` (h2o if neither is given) or a
    ``--materials`` mixture with its ``--water-fraction`` (1 if not given),
    never a flag of the other kind."""
    if args.materials is None:
        if args.water_fraction is not None:
            raise UsageError("--water-fraction needs --materials")
        args.material = args.material or "h2o"
    elif args.material is not None:
        raise UsageError("--material and --materials exclude each other")
    fraction = args.water_fraction
    if fraction is not None and not 0.0 <= fraction <= 1.0:
        raise UsageError(f"--water-fraction must lie in [0, 1], got {fraction!r}")


def _tau_grid(args, default):
    if args.tau_grid is None:
        return default
    try:
        values = tuple(float(v) for v in str(args.tau_grid).split(","))
    except ValueError as exc:
        raise UsageError(f"bad --tau-grid {args.tau_grid!r}") from exc
    if not values or not all(0.0 < v < np.inf for v in values):
        raise UsageError("--tau-grid needs finite positive comma-separated values")
    return values


def _parameter_indices(indices, flag, families) -> tuple[int, ...]:
    """Parameter indices, each checked against every family's grid."""
    n = min(len(study.parameter_grid(f)) for f in families)
    for i in indices:
        if not 0 <= i < n:
            raise UsageError(f"{flag} needs indices in [0, {n - 1}], got {i}")
    return tuple(indices)


def _resolve_materials(args) -> None:
    """Split ``--material`` (one name) and ``--materials`` (two) into lists
    of names that each resolve to a refractive-index table."""
    for attr, count in (("material", 1), ("materials", 2)):
        value = getattr(args, attr, None)
        if value is None:
            continue
        names = [m.strip() for m in str(value).split(",")]
        if len(names) != count:
            raise UsageError(
                f"--{attr} needs {count} name{'s' * (count > 1)}, got {value!r}"
            )
        for name in names:
            try:
                get_material(name)
            except (OSError, ValueError) as exc:  # missing or malformed table
                raise UsageError(f"--{attr}: {exc}") from exc
        setattr(args, attr, names)


def _repeat_count(text: str, path: Path) -> int:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (value.is_integer() and value >= 1):
        raise UsageError(f"repeats in {path} must be positive integers, got {text!r}")
    return int(value)


def read_measurement(path: Path) -> Measurement:
    """Read a ``wavelength_um,mean_extinction,variance[,repeats]`` table by
    the rule of ``optics.read_table``; a row it rejects is a usage error."""
    try:
        data, rest = read_table(path, MEASUREMENT_COLUMNS)
    except (OSError, ValueError) as exc:  # each names the file
        raise UsageError(f"--measurement: {exc}") from exc
    if not data.size:
        raise UsageError(f"no measurement rows in {path}")
    counts = {_repeat_count(cells[0], path) if cells else 1 for cells in rest}
    if len(counts) > 1:
        raise UsageError(f"repeats differ between rows of {path}: {sorted(counts)}")
    try:
        return Measurement(data[:, 0], data[:, 1], data[:, 2], counts.pop())
    except ValueError as exc:
        raise UsageError(f"bad measurement file {path}: {exc}") from exc


def write_measurement(path: Path, meas: Measurement) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*MEASUREMENT_COLUMNS, "repeats"])
        for wl, m, v in zip(meas.wavelengths, meas.mean_extinction, meas.variance):
            writer.writerow([repr(float(wl)), repr(float(m)), repr(float(v)), meas.repeats])


def _candidate_dict(c) -> dict:
    maybe = lambda v: None if v is None else float(v)
    return {
        "weights": [float(x) for x in c.weights],
        "grid_points": [float(x) for x in c.kernel.collocation_grid.points],
        "gamma": float(c.gamma),
        "tau": maybe(c.tau),
        "dim": int(c.dim),
        "posterior": maybe(c.posterior),
        "log_marginal": maybe(c.log_marginal),
        "log_marginal_se": maybe(c.log_marginal_se),
        "log_marginal_samples": c.log_marginal_samples,
        "residual_sq": float(c.residual_sq),
        "fraction": maybe(c.fraction),
    }


def _inversion_record(ranked, meas, elapsed, method) -> dict:
    top = ranked[0]
    grid = top.kernel.collocation_grid
    r_out = np.linspace(grid.r_min, grid.r_max, 200)
    recon = np.maximum(evaluate_distribution(top.weights, grid, r_out), 0.0)
    candidates = [_candidate_dict(c) for c in ranked]
    record = {
        "schema": RECORD_SCHEMA,
        "candidates": candidates,
        "reconstruction": {
            "radius_um": [float(x) for x in r_out],
            "density": [float(x) for x in recon],
        },
        "diagnostics": {
            "delta_sq": float(meas.scaling.delta_sq),
            "n_wavelengths": int(meas.n_wavelengths),
            "residual_sq": [float(c.residual_sq) for c in ranked],
            "log_marginal_se": [d["log_marginal_se"] for d in candidates],
            "log_marginal_samples": [d["log_marginal_samples"] for d in candidates],
            "untilted_integrals": sum(c.log_marginal_tilted is False for c in ranked),
            "top_within_noise": top_within_noise(ranked),
            "low_noise_morozov": method == "constrained" and is_low_noise(meas),
            "elapsed_s": float(elapsed),
        },
        "method": method,
    }
    if top.fraction is not None:
        record["retrieved_fraction"] = float(top.fraction)
    return record


def _report_dict(report) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "wall_time_s": float(report.wall_time),
        "method_stats": [
            {"family": k[0], "method": k[1], "reg_kind": k[2],
             **dataclasses.asdict(v)}
            for k, v in sorted(report.method_stats.items())
        ],
        "fraction_stats": None
        if report.fraction_stats is None
        else [
            {"family": k[0], "reg_kind": k[1], **dataclasses.asdict(v)}
            for k, v in sorted(report.fraction_stats.items())
        ],
        "records": [dataclasses.asdict(r) for r in report.records],
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))


# (header, field) of the columns both study report tables end with
_RUN_COLUMNS = (
    ("no_model_failures", "no_model_failures"),
    ("search_failures", "search_failures"), ("avg_time_s", "avg_time"),
    ("worst_time_s", "worst_time"), ("avg_dim", "avg_dim"), ("runs", "runs"),
    ("avg_log_marginal_se", "avg_log_marginal_se"),
    ("worst_log_marginal_se", "worst_log_marginal_se"),
    ("untilted_integrals", "untilted_integrals"),
)
# (header, field) of each column of the per-method table, after its key
_METHOD_COLUMNS = (
    ("avg_l2_pct", "avg_l2"), ("worst_l2_pct", "worst_l2"),
    ("l2_failures", "l2_failures"), *_RUN_COLUMNS,
)
# (header, field) of each column of the per-fraction table, after its key
_FRACTION_COLUMNS = (
    ("water_percent", "water_percent"), ("avg_l2_pct", "avg_l2"),
    ("avg_dev_pct", "avg_dev"), ("worst_dev_pct", "worst_dev"),
    ("l2_failures", "l2_failures"), ("dev_failures", "dev_failures"),
    *_RUN_COLUMNS,
)


def _write_report_csv(path: Path, report) -> None:
    """Flat per-method table mirroring the study's aggregate layout, then the
    per-fraction table of a two-component study."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["family", "method", "reg_kind", *(h for h, _ in _METHOD_COLUMNS)]
        )
        for key, st in sorted(report.method_stats.items()):
            writer.writerow([*key, *(getattr(st, f) for _, f in _METHOD_COLUMNS)])
        if report.fraction_stats:
            writer.writerow([])
            writer.writerow(
                ["family", "reg_kind", *(h for h, _ in _FRACTION_COLUMNS)]
            )
            for (fam, reg, _), st in sorted(report.fraction_stats.items()):
                writer.writerow(
                    [fam, reg, *(getattr(st, f) for _, f in _FRACTION_COLUMNS)]
                )


def _cmd_simulate(args) -> int:
    wavelengths = study.study_wavelengths()
    fgrid = study.fine_grid()
    (pi,) = _parameter_indices((args.param_index,), "--param-index", (args.family,))
    dist = study.parameter_grid(args.family)[pi]
    names = args.materials or args.material * 2
    (rows,) = mixed_kernel_rows(
        *map(get_material, names), get_material(study.MEDIUM),
        1.0 if args.water_fraction is None else args.water_fraction,
        wavelengths, fgrid.points,
    )
    e_true = study.forward_extinctions(dist, None, wavelengths, grid=fgrid, rows=rows)
    meas = study.simulate_measurement(
        wavelengths, e_true, args.noise_fraction, args.repeats,
        np.random.default_rng(args.seed),
    )
    out = args.out or Path("measurement.csv")
    write_measurement(out, meas)
    print(f"wrote {out}")
    return 0


def _record_path(args) -> Path:
    """Where ``invert`` or ``invert2`` writes its record, and any error."""
    default = "inversion2.json" if args.command == "invert2" else "inversion.json"
    return Path(args.out or default)


def _study_config(make, args, **fixed):
    """``make(...)`` with the values of the flags every command but
    ``simulate`` has; a flag left out keeps the config's default."""
    reg_kind = "first_diff" if args.reg == "firstdiff" else args.reg
    config = make(seed=args.seed, reg_kind=reg_kind, **fixed)
    return dataclasses.replace(
        config,
        tau_grid=_tau_grid(args, config.tau_grid),
        mc_samples=args.mc_samples or config.mc_samples,
    )


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def _cmd_invert(args) -> int:
    """``invert`` and ``invert2``: the mixture command passes two material
    names, method ``constrained2`` and the two-component config."""
    if args.command == "invert2":
        names, method = args.materials, "constrained2"
        config = _study_config(study.TwoComponentStudyConfig, args)
    else:
        names, method = args.material, args.method
        config = _study_config(study.StudyConfig, args)
    meas = read_measurement(args.measurement)
    forward = study.kernel_family(names, meas.wavelengths)
    t0 = time.perf_counter()
    ranked = study.invert(meas, forward, method, config.reg_kind, config, args.seed)
    elapsed = time.perf_counter() - t0
    record = _inversion_record(ranked, meas, elapsed, method)
    out = _record_path(args)
    _write_json(out, record)
    if args.emit_plot_data:
        recon = record["reconstruction"]
        _write_csv(
            out.with_suffix(".recon.csv"), ["radius_um", "density"],
            zip(recon["radius_um"], recon["density"]),
        )
    if args.emit_plot_data and forward.n_fractions > 1:
        # the scan of the top candidate's level, kept by its generation
        scan = forward.level(meas, len(ranked[0].kernel.collocation_grid)).scan
        _write_csv(
            out.with_suffix(".fractions.csv"), ["fraction", "nnls_residual_sq"],
            zip(forward.fractions, scan.residuals),
        )
    print(f"wrote {out}")
    return 0


def _study_flags(args, families) -> dict:
    """Config values of the flags ``study`` and ``study2`` add."""
    overrides = dict(families=families)
    if args.noise_fraction is not None:
        overrides["noise_fraction"] = args.noise_fraction
    if args.params is not None:
        try:
            indices = [int(v) for v in str(args.params).split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --params {args.params!r}") from exc
        overrides["parameter_indices"] = _parameter_indices(
            indices, "--params", families
        )
    if args.repeats is not None:
        overrides["repeats_per_parameter"] = args.repeats
    return overrides


def _write_report(report, out: Path) -> int:
    _write_json(out, _report_dict(report))
    _write_report_csv(out.with_suffix(".csv"), report)
    print(f"wrote {out}")
    return 0


def _cmd_study(args) -> int:
    make = study.reduced_config if args.scale == "reduced" else study.full_config
    config = _study_config(
        make, args,
        methods=study.METHODS if args.method == "all" else (args.method,),
        **_study_flags(
            args, study.FAMILIES if args.family == "all" else (args.family,)
        ),
    )
    report = study.run_study(config)
    return _write_report(report, args.out or Path("study_report.json"))


def _cmd_study2(args) -> int:
    make = (
        study.reduced_two_component_config
        if args.scale == "reduced"
        else study.full_two_component_config
    )
    config = _study_config(
        make, args, component_a=args.materials[0], component_b=args.materials[1],
        **_study_flags(args, (args.family,)),
    )
    report = study.run_study_two_component(config)
    return _write_report(report, args.out or Path("study2_report.json"))


def run(args) -> int:
    """Dispatch a parsed command; returns the process exit status."""
    handlers = {"simulate": _cmd_simulate, "invert": _cmd_invert,
                "invert2": _cmd_invert, "study": _cmd_study, "study2": _cmd_study2}
    try:
        return handlers[args.command](args)
    except UsageError:
        raise
    except AeroinvError as exc:
        payload = {
            "schema": RECORD_SCHEMA,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _write_json(_record_path(args), payload)
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NoModels) else 1


def main(argv=None) -> int:
    try:
        args = parse_config(argv)
        return run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file the OS refuses, such as an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
