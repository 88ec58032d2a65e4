"""Ordered experiment execution with CSV rows and a JSON summary."""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

from .config import _KEY_TYPES, ExperimentConfig
from .experiments import InstanceRecord, build_instances, compute_instance

CSV_COLUMNS = (
    "experiment", "p", "q", "n", "trace", "class", "tau", "t", "quantity",
    "value_re", "value_im", "abs", "bound_name", "bound_value", "ratio",
    "status", "seconds",
)

# the config keys that shape the rows, recorded in the summary; out and
# workers change no row, and leaving workers out keeps the bytes worker-independent
_SUMMARY_KEYS = tuple(key for key in _KEY_TYPES if key not in ("out", "workers"))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# _fmt of each cell type a record holds, looked up by exact type; any other
# type (numpy scalars, bool) goes through _fmt itself
_CELL_FORMATS = {type(None): _fmt, int: str, float: "{:.12g}".format, str: str}


def record_to_csv(rec: InstanceRecord) -> str:
    return ",".join([_CELL_FORMATS.get(type(value), _fmt)(value) for value in rec])


def _compute_task(args):
    cfg, desc, timings = args
    if not timings:
        return compute_instance(cfg, desc)
    start = time.perf_counter()
    rows = compute_instance(cfg, desc)
    elapsed = time.perf_counter() - start
    return [r._replace(seconds=elapsed) for r in rows]


def _summarize(cfg: ExperimentConfig, rows: list[InstanceRecord]) -> dict:
    statuses: dict[str, int] = {}
    per_bound: dict[str, dict] = {}
    failures = []
    for rec in rows:
        statuses[rec.status] = statuses.get(rec.status, 0) + 1
        if rec.bound_name and rec.ratio is not None:
            slot = per_bound.setdefault(
                rec.bound_name,
                {"rows": 0, "pass": 0, "fail": 0, "report": 0, "ratios": []})
            slot["rows"] += 1
            if rec.status in slot:
                slot[rec.status] += 1
            slot["ratios"].append(rec.ratio)
        if rec.status == "fail":
            failures.append({
                "p": rec.p, "quantity": rec.quantity,
                "bound_name": rec.bound_name, "ratio": rec.ratio,
            })
    bounds = {}
    for name, slot in per_bound.items():
        ratios = slot.pop("ratios")
        slot["ratio_min"] = min(ratios)
        slot["ratio_max"] = max(ratios)
        slot["ratio_mean"] = sum(ratios) / len(ratios)
        bounds[name] = slot
    exit_status = 1 if statuses.get("fail") else 0
    return {
        **{key: getattr(cfg, key) for key in _SUMMARY_KEYS},
        "rows": len(rows),
        "statuses": statuses,
        "bounds": bounds,
        "failures": failures,
        "exit_status": exit_status,
    }


def run_experiment(cfg: ExperimentConfig, timings: bool = False) -> int:
    """Evaluate the grid, write <out>/<experiment>.csv and .summary.json."""
    descriptors = build_instances(cfg)
    tasks = [(cfg, desc, timings) for desc in descriptors]
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_compute_task, tasks, chunksize=1))
    else:
        groups = [_compute_task(task) for task in tasks]
    rows = [rec for group in groups for rec in group]
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, f"{cfg.experiment}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in rows:
            fh.write(record_to_csv(rec) + "\n")
    summary = _summarize(cfg, rows)
    json_path = os.path.join(cfg.out, f"{cfg.experiment}.summary.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary["exit_status"]
