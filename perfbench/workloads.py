"""The benchmark's workloads as seeded, matched experiment pairs.

Every workload is a list of pairs: a `none` baseline and a controlled run
with identical wind, noise and excitation seeds (and identical scenario
events), so the pair yields the paper's variance reduction. The configs
are plain JSON in the program's documented config format; the program
sees nothing else from the benchmark.

Run lengths are chosen so that a pass fits the benchmark's time budget
while keeping feedback on for part of every SPRC run: the controller
identifies for its first 30 s (`SprcConfig.ident_duration_s`) and only
synthesizes after that, so a run of 30 s or less has no synthesis at all.
"""

from __future__ import annotations

from dataclasses import dataclass

IDENT_S = 30.0  # SprcConfig.ident_duration_s, the identification phase
EVAL_START_S = 30.0  # ExperimentConfig.eval_start_s, start of the metric window

# Simulated seconds per experiment, per workload.
DURATIONS = {
    "sprc-closed-loop": 50.0,
    "sweep-cipc": 45.0,
    "sprc-scenarios": 45.0,
}

# Workloads whose timings are rescaled to the reference host speed (see
# hostspeed.py). Their time is in short runs of interpreted per-sample code,
# whose speed the host-speed probe tracks closely. The SPRC runs last
# seconds each and spend their time in numpy; their speed does not follow
# the probe, so rescaling them would add noise, and they are timed as is.
RESCALED = frozenset({"sweep-cipc"})

# The 12-cell grid of `sprclab sweep` (4 grid modes x 3 mean speeds).
SWEEP_MODES = ("static0", "static45", "lidar", "gusts")
SWEEP_SPEEDS = (4.0, 4.5, 5.0)


@dataclass(frozen=True)
class Experiment:
    name: str
    config: dict

    @property
    def controlled(self) -> bool:
        return self.config["controller"] != "none"


@dataclass(frozen=True)
class Pair:
    baseline: Experiment
    controlled: Experiment


def _pair(tag: str, controller: str, seed: int, duration: float, mode: str,
          mean_wind: float, events: tuple[dict, ...] = ()) -> Pair:
    def config(ctrl: str) -> dict:
        return {
            "mode": mode,
            "mean_wind": mean_wind,
            "controller": ctrl,
            "duration": duration,
            "eval_start_s": EVAL_START_S,
            "seeds": {"wind": seed, "noise": seed + 1, "excitation": seed + 2},
            "events": list(events),
        }

    return Pair(Experiment(f"{tag}-none", config("none")),
                Experiment(f"{tag}-{controller}", config(controller)))


def closed_loop(seed: int, duration: float) -> list[Pair]:
    """The headline experiment: SPRC 1P/2P at 5 m/s, low and high TI."""
    return [_pair(mode, "sprc-1p2p", seed, duration, mode, 5.0)
            for mode in ("static0", "lidar")]


def sweep_cipc(seed: int, duration: float) -> list[Pair]:
    """The 12-cell grid under the CIPC benchmark controller."""
    return [_pair(f"{mode}-{speed:g}", "cipc", seed, duration, mode, speed)
            for mode in SWEEP_MODES for speed in SWEEP_SPEEDS]


def scenarios(seed: int, duration: float) -> list[Pair]:
    """SPRC 1P only through set-point steps after identification.

    A collective-pitch step 2 -> 10 deg in gusts slows the rotor; a mean
    wind step 4.5 -> 5 m/s in static45 speeds it up, so rotations become
    shorter than the controller's frozen period P (52 vs 56 samples), and
    the run synthesizes the wind twice.
    """
    step_s = IDENT_S + (duration - IDENT_S) / 3.0
    pitch = {"time_s": step_s, "kind": "collective_pitch", "value": 10.0}
    wind = {"time_s": step_s, "kind": "wind_mean", "value": 5.0}
    return [_pair("gusts-pitch-step", "sprc-1p", seed, duration, "gusts",
                  5.0, (pitch,)),
            _pair("static45-wind-step", "sprc-1p", seed, duration,
                  "static45", 4.5, (wind,))]


BUILDERS = {
    "sprc-closed-loop": closed_loop,
    "sweep-cipc": sweep_cipc,
    "sprc-scenarios": scenarios,
}


def build(workload: str, seed: int, duration: float | None = None) -> list[Pair]:
    """Matched pairs for a workload; `duration` overrides the run length."""
    if duration is not None and duration <= EVAL_START_S:
        raise ValueError(f"duration must exceed {EVAL_START_S:g} s")
    return BUILDERS[workload](seed, duration or DURATIONS[workload])
