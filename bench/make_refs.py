"""Regenerate the reference CSVs that the benchmark's correctness gate reads.

Run from the root of a source checkout whose outputs are known to be right:

    python3 bench/make_refs.py

Every workload runs once per program seed in ``workloads.PROGRAM_SEEDS``.
An experiment whose CSV bytes are the same for every seed is stored once
under ``refs/<workload>/any-seed/``; the others are stored per seed under
``refs/<workload>/seed-<n>/``.  All references are rewritten together.
"""

from __future__ import annotations

import lzma
import os
import shutil
import tempfile

import gate
import run
from workloads import PROGRAM_SEEDS, WORKLOADS


def _store(path: str, data: bytes):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with lzma.open(path, "wb", preset=9 | lzma.PRESET_EXTREME) as fh:
        fh.write(data)


def main() -> int:
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    outputs = {}
    for workload in WORKLOADS:
        for seed in PROGRAM_SEEDS:
            tmp = tempfile.mkdtemp(prefix="refs-", dir=run.OUT_ROOT)
            try:
                passes = run.Passes(run.setup(workload, seed), tmp)
                passes.run()
                for name, _, _ in WORKLOADS[workload]:
                    with open(os.path.join(passes.last_out, f"{name}.csv"), "rb") as fh:
                        outputs[workload, name, seed] = fh.read()
            finally:
                shutil.rmtree(tmp)
        print(f"{workload}: ran seeds {PROGRAM_SEEDS}", flush=True)
    shutil.rmtree(gate.REFS, ignore_errors=True)
    for workload, runs in WORKLOADS.items():
        for name, _, _ in runs:
            versions = {outputs[workload, name, seed] for seed in PROGRAM_SEEDS}
            if len(versions) == 1:
                _store(os.path.join(gate.REFS, workload, "any-seed", f"{name}.csv.xz"),
                       versions.pop())
                continue
            for seed in PROGRAM_SEEDS:
                _store(os.path.join(gate.REFS, workload, f"seed-{seed}", f"{name}.csv.xz"),
                       outputs[workload, name, seed])
    print(f"references written to {gate.REFS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
