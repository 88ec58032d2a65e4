"""Experiment driver: instance grids, bound reports, CSV and JSON emission."""

from .config import EXPERIMENT_NAMES, ExperimentConfig, load_config
from .experiments import build_instances, compute_instance
from .prng import ShiftRegister, derive_stream
from .runner import InstanceRecord, run_experiment

__all__ = [
    "EXPERIMENT_NAMES",
    "ExperimentConfig",
    "InstanceRecord",
    "ShiftRegister",
    "build_instances",
    "compute_instance",
    "derive_stream",
    "load_config",
    "run_experiment",
]
