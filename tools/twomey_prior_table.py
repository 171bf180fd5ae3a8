"""Write, or check, the shipped table of twomey prior orthant probabilities.

The prior normalizer of the second-difference (``twomey``) regularizer holds
P0(N) = P(Z >= 0) for Z ~ N(0, R^-1), which depends on N only and has no
closed form.  This script runs the package's own estimator
(``model_selection._estimate_log_prior_orthant_probability``: the orthant
sampler at the fixed prior budget and seed) for N = 1..48 and writes
``log_p0``, its ``std_error`` and its ``samples`` per N as CSV, floats by
``repr`` so that every value reads back exactly.

    PYTHONPATH=src python tools/twomey_prior_table.py           # rewrite the table
    PYTHONPATH=src python tools/twomey_prior_table.py --check   # recompute, compare

``--check`` recomputes every entry and exits 1 if the shipped table does not
cover exactly N = 1..48, or an entry's sample count differs, or its log P0
differs from the recomputation by more than three combined standard errors
plus ``ROUNDING`` (N = 1 has no sampling error, and its last bits may differ
between machines).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from aeroinv import model_selection as ms

MAX_N = 48
ROUNDING = 1e-12
COLUMNS = ("N", "log_p0", "std_error", "samples")


def table_rows(n_values=range(1, MAX_N + 1)):
    """(N, log_p0, std_error, samples) from a fresh estimator run per N."""
    estimate = ms._estimate_log_prior_orthant_probability
    return [(N, *estimate("twomey", N)) for N in n_values]


def render(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for N, log_p0, std_error, samples in rows:
        writer.writerow((N, repr(float(log_p0)), repr(float(std_error)), int(samples)))
    return out.getvalue()


def check(shipped: dict) -> list[str]:
    """Entries of ``shipped`` (N -> (log_p0, std_error, samples)) that a
    fresh estimator run does not reproduce within three standard errors."""
    problems = []
    if sorted(shipped) != list(range(1, MAX_N + 1)):
        problems.append(f"table covers N = {sorted(shipped)}, not 1..{MAX_N}")
    for N, log_p0, std_error, samples in table_rows(sorted(shipped)):
        old_log, old_se, old_samples = shipped[N]
        if old_samples != samples:
            problems.append(f"N={N}: {old_samples} samples, fresh run {samples}")
        tol = 3.0 * float(np.hypot(old_se, std_error)) + ROUNDING
        gap = abs(old_log - log_p0)
        status = "same" if gap == 0.0 else "ok" if gap <= tol else "FAIL"
        print(
            f"N={N} shipped={old_log!r} fresh={log_p0!r} "
            f"gap={gap:.3g} tol={tol:.3g} {status}"
        )
        if gap > tol:
            problems.append(f"N={N}: |{old_log!r} - {log_p0!r}| > {tol:.3g}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="recompute every entry and compare with the shipped table",
    )
    args = parser.parse_args(argv)
    if args.check:
        problems = check(ms._twomey_prior_table())
        for line in problems:
            print(line, file=sys.stderr)
        return 1 if problems else 0
    path = Path(ms.__file__).parent / ms._TWOMEY_PRIOR_TABLE
    path.write_text(render(table_rows()))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
