"""Simulation laboratory for subspace predictive repetitive control (SPRC)
on a surrogate two-bladed wind turbine, with a conventional IPC benchmark
and a reproducible turbulent-wind synthesizer.
"""

from .harness import (ExperimentConfig, ExperimentRecord, ScenarioEvent,
                      Seeds, actuator_duty, run_experiment,
                      variance_reduction)
from .plant import (StateSpaceModel, TurbineParams, TurbineState,
                    make_benchmark_plant, simulate_lti, turbine_step)
from .sprc_types import SprcConfig
from .windfield import GridMode, WindSeries, generate, turbulence_intensity

__all__ = [
    "ExperimentConfig", "ExperimentRecord", "ScenarioEvent", "Seeds",
    "actuator_duty", "run_experiment", "variance_reduction",
    "StateSpaceModel", "TurbineParams", "TurbineState",
    "make_benchmark_plant", "simulate_lti", "turbine_step",
    "SprcConfig", "GridMode", "WindSeries", "generate", "turbulence_intensity",
]

__version__ = "0.1.0"

