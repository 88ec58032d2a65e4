"""Every experiment at seed 1 against stored golden CSVs.

The files in tests/golden/ hold the default config; those in
tests/golden/edge/ hold p 3-13 at budget 1e-5, where caps, the p = 3
preconditions and computed rows meet, so skipped rows are pinned too, and
those in tests/golden/capped/ hold p 5-61 at budget 1e-5, where caps hit
partway through each grid (one prime's sums rows mix skipped and computed
periods).  All three pin the behaviour contract that every refactor keeps:
row order, `status` and the integer columns byte-identical, float columns
within 1e-9 relative. As in the benchmark gate, the two parts of a complex
value are compared relative to its magnitude (the imaginary part of a real
sum is round-off), and rows measured against a `tolerance` bound hold
round-off residuals near 1e-15, compared within 1e-9 absolute.
"""

import csv
import math
import os

import pytest

from matpowlab.harness.config import EXPERIMENT_NAMES, ExperimentConfig
from matpowlab.harness.runner import run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FLOAT_COLUMNS = frozenset(("value_re", "value_im", "abs", "bound_value", "ratio"))
REL_TOL = 1e-9
# golden subdirectory -> config overrides
WINDOWS = {"": {}, "edge": {"p_min": 3, "p_max": 13, "budget": 1e-5},
           "capped": {"p_min": 5, "p_max": 61, "budget": 1e-5}}


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _abs_tol(column, ref):
    if ref["bound_name"] == "tolerance":
        return REL_TOL / float(ref["bound_value"]) if column == "ratio" else REL_TOL
    if column in ("value_re", "value_im"):
        return REL_TOL * math.hypot(float(ref["value_re"]), float(ref["value_im"]))
    return 0.0


def _same(column, got, want, ref):
    if column not in FLOAT_COLUMNS or got == want or "" in (got, want):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=REL_TOL,
                        abs_tol=_abs_tol(column, ref))


@pytest.mark.parametrize("window, experiment", [
    pytest.param(window, name, id="-".join(filter(None, (window, name))))
    for window in WINDOWS for name in EXPERIMENT_NAMES])
def test_output_matches_golden(window, experiment, tmp_path):
    run_experiment(ExperimentConfig(experiment=experiment, seed=1, out=str(tmp_path),
                                    **WINDOWS[window]))
    got = _read(tmp_path / f"{experiment}.csv")
    want = _read(os.path.join(GOLDEN, window, f"{experiment}.csv"))
    header = want[0]
    assert got[0] == header
    assert len(got) == len(want)
    for lineno, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        named = dict(zip(header, ref))
        for column, a, b in zip(header, row, ref):
            assert _same(column, a, b, named), f"line {lineno} {column}: {a!r} != {b!r}"
