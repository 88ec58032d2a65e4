"""Correctness gate for benchmark outputs.

Two kinds of check:

- invariants every run must satisfy, whatever the seed: the CSV header, no
  ``fail`` rows, ``abs`` equal to |value| and ``ratio`` equal to abs/bound on
  every row, and a summary JSON that agrees with the CSV;
- comparison with stored reference CSVs under the behaviour contract: row
  order, integer columns and ``status`` exact, float columns within 1e-9
  relative.  The two components of a complex value are compared relative to
  its magnitude, so the round-off imaginary part of a real sum has no digits
  to match.  Rows measured against a ``tolerance`` bound (unitarity, Egorov
  and Gauss-sum deviations) hold round-off residuals near 1e-15; their value
  is compared within ``ABS_FLOOR`` absolutely and their ratio within
  ``ABS_FLOOR / bound``, while the pass status is still compared exactly.
  References live in ``refs/<workload>/seed-<n>/`` and, for experiments
  whose output does not depend on the seed, in ``refs/<workload>/any-seed/``.
  An experiment with no reference for the seed is reported as unchecked, and
  the report is then not passed.
"""

from __future__ import annotations

import csv
import io
import json
import lzma
import math
import os

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
COLUMNS = ("experiment", "p", "q", "n", "trace", "class", "tau", "t", "quantity",
           "value_re", "value_im", "abs", "bound_name", "bound_value", "ratio",
           "status", "seconds")
FLOAT_COLUMNS = frozenset(("value_re", "value_im", "abs", "bound_value", "ratio"))
REL_TOL = 1e-9
RESIDUAL_BOUND = "tolerance"
ABS_FLOOR = 1e-9
STATUSES = ("pass", "report", "skipped")
_COL = {name: i for i, name in enumerate(COLUMNS)}


def _near(x: float, y: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=abs_tol)


def _abs_tol(column: str, ref: list[str]) -> float:
    """Absolute slack of one float cell of reference row ``ref``."""
    if ref[_COL["bound_name"]] == RESIDUAL_BOUND:
        if column == "ratio":
            return ABS_FLOOR / float(ref[_COL["bound_value"]])
        if column in ("value_re", "value_im", "abs"):
            return ABS_FLOOR
    if column in ("value_re", "value_im"):
        return REL_TOL * math.hypot(float(ref[_COL["value_re"]] or 0),
                                    float(ref[_COL["value_im"]] or 0))
    return 0.0


def _close(column: str, a: str, b: str, ref: list[str]) -> bool:
    """Two CSV float cells agree; an empty cell only matches an empty one."""
    if a == "" or b == "":
        return a == b
    return _near(float(a), float(b), _abs_tol(column, ref))


def read_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def compare_rows(got: list[list[str]], want: list[list[str]]) -> list[str]:
    """Differences between two parsed CSVs under the behaviour contract."""
    problems = []
    if got[:1] != want[:1] or tuple(want[0]) != COLUMNS:
        return [f"header {got[:1]} != {want[:1]}"]
    if len(got) != len(want):
        problems.append(f"{len(got) - 1} rows, reference has {len(want) - 1}")
    header = want[0]
    for lineno, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        for column, a, b in zip(header, row, ref):
            same = _close(column, a, b, ref) if column in FLOAT_COLUMNS else a == b
            if not same:
                problems.append(f"line {lineno} {column}: {a!r} != {b!r}")
                break
        if len(problems) >= 5:
            break
    return problems


def check_invariants(rows: list[list[str]], summary: dict) -> list[str]:
    """Seed-free checks of one experiment's CSV rows and summary."""
    if tuple(rows[0]) != COLUMNS:
        return [f"header {rows[0]}"]
    problems = []
    statuses: dict[str, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        status = row[_COL["status"]]
        statuses[status] = statuses.get(status, 0) + 1
        if status not in STATUSES:
            problems.append(f"line {lineno}: status {status!r}")
        if row[_COL["abs"]]:
            magnitude = math.hypot(float(row[_COL["value_re"]]), float(row[_COL["value_im"]]))
            if not _near(float(row[_COL["abs"]]), magnitude):
                problems.append(f"line {lineno}: abs != |value|")
        if row[_COL["ratio"]]:
            ratio = float(row[_COL["abs"]]) / float(row[_COL["bound_value"]])
            if not _near(float(row[_COL["ratio"]]), ratio):
                problems.append(f"line {lineno}: ratio != abs / bound")
        if len(problems) >= 5:
            return problems
    if summary["rows"] != len(rows) - 1 or summary["statuses"] != statuses:
        problems.append("summary rows or statuses disagree with the CSV")
    if summary["exit_status"] != (1 if statuses.get("fail") else 0):
        problems.append("summary exit_status disagrees with the fail rows")
    return problems


def reference_path(workload: str, seed: int, experiment: str) -> str | None:
    for key in (f"seed-{seed}", "any-seed"):
        path = os.path.join(REFS, workload, key, f"{experiment}.csv.xz")
        if os.path.exists(path):
            return path
    return None


def check_outputs(workload: str, seed: int, out: str, experiments) -> dict:
    """Gate one workload's output directory; returns counts and problems.

    ``passed`` is true only if every experiment was compared with a
    reference and nothing disagreed.
    """
    report = {"problems": [], "checked": [], "unchecked": [],
              "rows": 0, "skipped": 0}
    for name in experiments:
        with open(os.path.join(out, f"{name}.csv"), encoding="utf-8") as fh:
            rows = read_rows(fh.read())
        with open(os.path.join(out, f"{name}.summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        report["rows"] += len(rows) - 1
        report["skipped"] += summary["statuses"].get("skipped", 0)
        problems = check_invariants(rows, summary)
        path = reference_path(workload, seed, name)
        if path is None:
            report["unchecked"].append(name)
        else:
            with lzma.open(path, "rt", encoding="utf-8") as fh:
                problems += compare_rows(rows, read_rows(fh.read()))
            report["checked"].append(name)
        report["problems"] += [f"{name}: {p}" for p in problems]
    report["passed"] = not report["problems"] and not report["unchecked"]
    return report
