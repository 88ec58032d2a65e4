"""Benchmark workloads: which experiments run on which p-windows.

Every workload computes every row at the default config (``skipped`` rows
count as failed operations), and each one stresses a different layer:

- ``small-grid`` runs all nine experiments on tiny fields, so per-call
  overhead in ``ffield``, ``matgrp`` and ``harness`` is a large share of the
  time, split about evenly between counting, catmap and curves.
- ``orbit-large`` is about 98 % ``counting`` (``sumset_cover`` and
  ``count_Q``); it exercises the counting kernels and bypasses charsums,
  curves and catmap.
- ``sums-large`` is dominated by ``curves``, ``charsums`` and ``catmap``.
  The only counting kernel it runs at scale is ``sequence_energy``, which
  ``sum_moment`` calls for the exact moments (about a quarter of the time),
  so it bypasses ``count_Q`` and ``sumset_cover``.  The curves window stops
  at p = 97 because extension rows above p ~ 100 exceed ``CURVE_WORK_CAP``
  and would be skipped.
"""

from __future__ import annotations

ALL_EXPERIMENTS = ("energy", "q3", "sums", "kloosterman", "gauss", "curves",
                   "orbit", "catmap", "lemma81")

# workload -> ordered (experiment, p_min, p_max) runs.
WORKLOADS = {
    "small-grid": tuple((name, 5, 61) for name in ALL_EXPERIMENTS),
    "orbit-large": (
        ("energy", 101, 109),
        ("q3", 101, 109),
        ("orbit", 101, 109),
    ),
    "sums-large": (
        ("sums", 241, 257),
        ("kloosterman", 241, 257),
        ("gauss", 241, 257),
        ("curves", 89, 97),
        ("catmap", 113, 131),
        ("lemma81", 113, 131),
    ),
}

# Program seeds with stored reference outputs.  The benchmark's ``--seed``
# picks one of them, so every run's outputs are compared in full.
PROGRAM_SEEDS = tuple(range(1, 9))


def program_seed(seed: int) -> int:
    """The ``ExperimentConfig.seed`` a benchmark seed runs with."""
    return PROGRAM_SEEDS[(seed - 1) % len(PROGRAM_SEEDS)]
