"""The three closed-loop workloads: inputs, set-up, one op, output checks.

Every workload synthesizes its measurements from the seed before timing,
with the study's own forward model (fine-grid kernel rows, Simpson
extinctions, repeated noisy draws).  The library only ever receives the
generated ``Measurement`` objects.  Ops run one at a time in one process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

# Library functions are looked up through their modules at call time, so the
# traced run's wrappers see every call.
from aeroinv import model_selection as ms
from aeroinv import optics
from aeroinv import simulation_study as study
from aeroinv import tikhonov_qp
from aeroinv import two_component as tc
from aeroinv.errors import NoModels

FAMILIES = ("log_normal", "rrsb", "hedrih")
SPREAD_INDICES = tuple(range(0, 100, 11))
WATER_FRACTIONS = (0.0, 0.33, 0.67, 1.0)
REG_KINDS = ("tikhonov", "twomey")
POSTERIOR_TOL = 1e-9
# A discrepancy window counts as open only if the target clears both of its
# ends by this relative margin, so ties at an end never flag a NoModels.
WINDOW_RTOL = 1e-6


@dataclass(frozen=True)
class OpInput:
    """One generated measurement and what the op and its checks need."""

    truth: study.SizeDistribution
    meas: ms.Measurement
    mc_seed: int
    reg_kind: str = "tikhonov"
    water_fraction: float | None = None


def _draw(seed, workload_id, truth_key, rep, wavelengths, e_true, noise):
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(workload_id, *truth_key, rep))
    )
    meas = study.simulate_measurement(wavelengths, e_true, noise, rng=rng)
    return meas, int(rng.integers(2**31 - 1))


def _mixed_kernel(comp_a, comp_b, medium, fraction):
    def kernel(r, l):
        m_part = optics.lorentz_lorenz_mix(
            optics.interpolate_index(comp_a, l),
            optics.interpolate_index(comp_b, l),
            fraction,
        )
        return optics.kernel_value(optics.interpolate_index(medium, l), m_part, r, l)

    return kernel


# --- checks --------------------------------------------------------------


def check_ranked(ranked, meas, nonnegative):
    """Names of the output checks a ranked candidate list fails."""
    failed = []
    top = ranked[0].weights
    if not np.all(np.isfinite(top)):
        failed.append("top_weights_finite")
    elif nonnegative and np.any(top < 0.0):
        failed.append("top_weights_nonnegative")
    post = [c.posterior for c in ranked]
    if any(p is None for p in post) or abs(sum(post) - 1.0) > POSTERIOR_TOL:
        failed.append("posteriors_sum_to_one")
    delta_sq = ms.NoiseScaling.from_measurement(meas).delta_sq
    # the discrepancy search's own stopping tolerance (relative to the target)
    rtol = tikhonov_qp._DISCREPANCY_RTOL
    for c in ranked:
        if c.tau is None:
            continue
        target = c.tau * meas.n_wavelengths * delta_sq
        if not abs(c.residual_sq - target) <= rtol * target:
            failed.append("discrepancy_residual")
            break
    return failed


def open_windows(meas, builder, taus, residual):
    """Ladder levels on which some target tau·N_λ·δ² lies strictly between
    the level's unregularized residual and the data norm.

    ``residual`` is ``"nnls"`` (the constrained methods and BIC admit a level
    by the nonnegative fit) or ``"lstsq"`` (the unconstrained method).  The
    fits are recomputed here with scipy and numpy, independently of the
    package's own solvers.  A ``NoModels`` outcome is justified when the
    result is empty.
    """
    scaling = ms.NoiseScaling.from_measurement(meas)
    w = scaling.normalized_weights
    r = meas.mean_extinction * w
    data_norm_sq = float(r @ r)
    n_l = meas.n_wavelengths
    levels = []
    for n_col in ms.DEFAULT_LADDER:
        if n_col - 2 > n_l:
            break
        K = builder(n_col).entries * w[:, None]
        if residual == "nnls":
            res_sq = nnls(K, r)[1] ** 2
        else:
            d = K @ np.linalg.lstsq(K, r, rcond=None)[0] - r
            res_sq = float(d @ d)
        if any(
            res_sq < (1 - WINDOW_RTOL) * target
            and target < (1 - WINDOW_RTOL) * data_norm_sq
            for target in (tau * n_l * scaling.delta_sq for tau in taus)
        ):
            levels.append(n_col)
    return levels


def _l2(candidate, truth, fgrid):
    return study.relative_l2_error(
        candidate.weights, candidate.kernel.collocation_grid, truth, fgrid
    )


# --- workloads -----------------------------------------------------------


def _water_in_air():
    return optics.make_kernel(optics.get_material("h2o"), optics.get_material("air"))


def _water_inputs(seed, workload_id, indices, reps, alternate_reg):
    """Water-droplet measurements at 30% noise, every family interleaved.

    With ``alternate_reg`` consecutive ops alternate tikhonov and twomey, and
    each truth switches kind from one repeat to the next.
    """
    wavelengths = study.study_wavelengths()
    fgrid = study.fine_grid()
    rows = study.kernel_rows(_water_in_air(), wavelengths, fgrid)
    grids = {fam: study.parameter_grid(fam) for fam in FAMILIES}
    truths = [(fam, pi, grids[fam][pi]) for pi in indices for fam in FAMILIES]
    e_true = [
        study.forward_extinctions(d, None, wavelengths, grid=fgrid, rows=rows)
        for _, _, d in truths
    ]
    inputs = []
    for rep in range(reps):
        for t, (fam, pi, dist) in enumerate(truths):
            meas, mc_seed = _draw(
                seed, workload_id, (FAMILIES.index(fam), pi), rep,
                wavelengths, e_true[t], 0.30,
            )
            reg = REG_KINDS[(len(inputs) + rep) % 2] if alternate_reg else "tikhonov"
            inputs.append(OpInput(dist, meas, mc_seed, reg))
    return inputs


class Single:
    """``aeroinv invert --method constrained`` on one file per op."""

    name = "single"
    ranks_by_evidence = True
    timed_ops = window_ops = 20
    setup_repeats = 3

    def synthesize(self, seed):
        return _water_inputs(seed, 0, SPREAD_INDICES, 10, alternate_reg=True)

    def setup(self):
        return _water_in_air()

    def run(self, kernel, inp):
        igrid = study.integration_grid()
        rows = study.kernel_rows(kernel, inp.meas.wavelengths, igrid)
        builder = study.KernelLevelCache(rows, inp.meas.wavelengths, igrid)
        return ms.invert_constrained(
            inp.meas, builder, reg_kind=inp.reg_kind, seed=inp.mc_seed
        )

    run_untimed = run

    def check(self, kernel, inp, ranked):
        return check_ranked(ranked, inp.meas, nonnegative=True)

    def no_models(self, ranked):
        return 0

    def quality(self, inp, ranked, fgrid):
        return {"l2": [_l2(ranked[0], inp.truth, fgrid)]}


class Classical:
    """Morozov, unconstrained and BIC on one measurement, levels shared.

    A method that finds no admissible model raises ``NoModels``, which the
    study records as a no-model outcome; the op records it the same way and
    goes on with the next method.  The check then verifies the claim: no
    discrepancy window may be open on any level.
    """

    name = "classical"
    ranks_by_evidence = False
    timed_ops = window_ops = 300
    setup_repeats = 3
    # (method, tau grid, unregularized fit that admits a level)
    METHODS = (
        ("morozov", (ms.MOROZOV_TAU,), "nnls"),
        ("unconstrained", ms.DEFAULT_TAU_GRID, "lstsq"),
        ("bic", ms.DEFAULT_TAU_GRID, "nnls"),
    )

    def synthesize(self, seed):
        return _water_inputs(seed, 1, range(100), 4, alternate_reg=False)

    def setup(self):
        wavelengths = study.study_wavelengths()
        igrid = study.integration_grid()
        rows = study.kernel_rows(_water_in_air(), wavelengths, igrid)
        return study.KernelLevelCache(rows, wavelengths, igrid)

    def run(self, builder, inp):
        calls = (
            lambda: ms.invert_morozov(inp.meas, builder),
            lambda: ms.invert_unconstrained(inp.meas, builder),
            lambda: [ms.bic_select(inp.meas, builder)[0]],
        )
        out = []
        for call in calls:
            try:
                out.append(call())
            except NoModels:
                out.append(None)
        return tuple(out)

    run_untimed = run

    def check(self, builder, inp, out):
        failed = []
        for (name, taus, residual), ranked in zip(self.METHODS, out):
            if ranked is not None:
                failed += check_ranked(ranked, inp.meas, nonnegative=name == "morozov")
            elif open_windows(inp.meas, builder, taus, residual):
                failed.append(f"{name}_no_models_with_open_window")
        return failed

    def no_models(self, out):
        return sum(ranked is None for ranked in out)

    def quality(self, inp, out, fgrid):
        return {
            "l2": [_l2(ranked[0], inp.truth, fgrid) for ranked in out if ranked]
        }


class Mixture:
    """``aeroinv invert2`` on water/CsI mixtures: one op is one whole call.

    Each timed op builds the kernel family and retrieves one measurement, as
    the CLI does per file; the family build is deterministic work and most of
    the op, which keeps the op time steady across seeds.  The quality window
    continues untimed on the last family, the way a study reuses it.
    """

    name = "mixture"
    ranks_by_evidence = True
    timed_ops = 2
    window_ops = 12
    setup_repeats = 3

    def synthesize(self, seed):
        wavelengths = study.study_wavelengths()
        fgrid = study.fine_grid()
        comp_a, comp_b, medium = _mixture_materials()
        rows = {
            p: study.kernel_rows(
                _mixed_kernel(comp_a, comp_b, medium, p), wavelengths, fgrid
            )
            for p in WATER_FRACTIONS
        }
        grid = study.parameter_grid("log_normal")
        n_truths, n_fracs = len(SPREAD_INDICES), len(WATER_FRACTIONS)
        inputs = []
        # Op k pairs truth k mod 10 with a fraction that also advances every
        # op, so any 8 consecutive ops span 8 truths and all 4 fractions, and
        # each block of 40 ops covers every (truth, fraction) pair once.
        for k in range(200):
            pi = SPREAD_INDICES[k % n_truths]
            p = WATER_FRACTIONS[(k + k // n_truths) % n_fracs]
            e_true = study.forward_extinctions(
                grid[pi], None, wavelengths, grid=fgrid, rows=rows[p]
            )
            meas, mc_seed = _draw(
                seed, 2, (0, pi, int(round(1000 * p))),
                k // (n_truths * n_fracs), wavelengths, e_true, 0.05,
            )
            inputs.append(OpInput(grid[pi], meas, mc_seed, water_fraction=p))
        return inputs

    def setup(self):
        return MixtureContext(_mixture_materials())

    def run(self, ctx, inp):
        ctx.family = tc.build_kernel_family(
            *ctx.materials, study.study_wavelengths(), study.integration_grid()
        )
        return self.run_untimed(ctx, inp)

    def run_untimed(self, ctx, inp):
        candidates = tc.generate_models_two_component(ctx.family, inp.meas)
        return tc.select_models_two_component(candidates, inp.meas, seed=inp.mc_seed)

    def check(self, ctx, inp, ranked):
        failed = check_ranked(ranked, inp.meas, nonnegative=True)
        fraction = ranked[0].fraction
        if fraction is None or not 0.0 <= fraction <= 1.0:
            failed.append("fraction_in_unit_interval")
        return failed

    def no_models(self, ranked):
        return 0

    def quality(self, inp, ranked, fgrid):
        return {
            "l2": [_l2(ranked[0], inp.truth, fgrid)],
            "frac_dev": [100.0 * abs(ranked[0].fraction - inp.water_fraction)],
        }


@dataclass
class MixtureContext:
    materials: tuple
    family: object = None  # the kernel family built by the latest op


def _mixture_materials():
    return tuple(optics.get_material(m) for m in ("h2o", "csi", "air"))


WORKLOADS = {w.name: w for w in (Single(), Classical(), Mixture())}
