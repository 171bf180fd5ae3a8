"""Print one SHA-256 per record set, to show that a change leaves every
record bit for bit as it was.

    python tools/record_digest.py --seed 9

Run it on two checkouts and compare the lines.  The record sets are:

- ``single``, ``classical``, ``mixture``: the first 120, 300 and 12 ops of
  the benchmark workloads on ``--seed`` (inputs and op calls from
  ``perfbench/bench_workloads.py``, used as they are).  Each ranked
  candidate adds the bytes of its weights and the ``repr`` of gamma, tau,
  residual, log evidence, posterior, its standard error, fraction,
  dimension, sample count and tilt; a method without a model, or an op
  that raises, adds its outcome's name.
- ``study``, ``study2``: the records of the reduced single-component and
  mixture studies (acceptance criteria 5 and 6) on ``--seed``, without the
  timing field ``runtime``.

The script sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, since BLAS
thread counts change rounding.  Bits also depend on the numpy and scipy
builds and on numpy's SIMD dispatch, so compare digests taken on one
machine and environment only.  The source tree imported is the one this
script lives in.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from aeroinv import simulation_study as study  # noqa: E402
from aeroinv.errors import AeroinvError  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

OPS = {"single": 120, "classical": 300, "mixture": 12}
CANDIDATE_FIELDS = (
    "gamma", "tau", "residual_sq", "log_marginal", "posterior",
    "log_marginal_se", "fraction", "dim", "log_marginal_samples",
    "log_marginal_tilted",
)


def add_ranked(h, ranked) -> None:
    """Every candidate of one ranked list, in rank order."""
    h.update(b"ranked %d\n" % len(ranked))
    for c in ranked:
        h.update(c.weights.tobytes())
        h.update(repr([getattr(c, f) for f in CANDIDATE_FIELDS]).encode())


def workload_digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    ctx = workload.setup()
    h = hashlib.sha256()
    for i, inp in enumerate(workload.synthesize(seed)[: OPS[name]]):
        run = workload.run if i == 0 else workload.run_untimed
        try:
            out = run(ctx, inp)
        except AeroinvError as exc:
            h.update(f"op {i}: {type(exc).__name__}\n".encode())
            continue
        h.update(f"op {i}\n".encode())
        for ranked in out if name == "classical" else (out,):
            if ranked is None:
                h.update(b"no models\n")
            else:
                add_ranked(h, ranked)
    return h.hexdigest()


def study_digest(report) -> str:
    h = hashlib.sha256()
    for rec in report.records:
        fields = dataclasses.asdict(rec)
        del fields["runtime"]
        h.update((repr(sorted(fields.items())) + "\n").encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for name in OPS:
        print(f"{name} {workload_digest(name, args.seed)}", flush=True)
    config = study.reduced_config(seed=args.seed)
    print(f"study {study_digest(study.run_study(config))}", flush=True)
    config = study.reduced_two_component_config(seed=args.seed)
    print(f"study2 {study_digest(study.run_study_two_component(config))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
