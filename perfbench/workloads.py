"""Seeded inputs for the three benchmark workloads.

The program only ever sees what these functions generate. The same seed
(and, for query streams, the same pass index) always yields the same inputs.

* ``scan-moller``: the paper's reference map, unpolarized Moller, linear p,
  300 x 300, one job. The seed jitters the grid endpoints by at most 1e-3
  (relative for p, absolute radians for theta); the point count is fixed.
* ``scan-compton-wide``: Compton with the Werner input state, log-spaced p
  over six decades, 300 theta x 600 p, two jobs; same endpoint jitter.
* ``queries``: single-point reports over every process and initial-state
  kind, interleaved with Moller threshold bisections inside the entangled
  cone. Each pass draws its own stream from (seed, pass index).
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

SCAN_WORKLOADS = ("scan-moller", "scan-compton-wide")
WORKLOADS = SCAN_WORKLOADS + ("queries",)

PROCESSES = ("moller", "muon-pair", "annihilation", "bhabha", "electron-muon",
             "compton")
INITIAL_KINDS = ("unpolarized", "ll", "lr", "rl", "rr", "werner", "diag")

POINTS_PER_PASS = 300
BISECTIONS_PER_PASS = 24

#: half-opening of the Moller entangled cone: cos(2 theta) < -1/3
MOLLER_CONE = 0.5 * math.acos(-1.0 / 3.0)


@dataclass(frozen=True)
class ScanSpec:
    """One ``qedtangle scan`` invocation."""

    process: str
    initial: str
    p_min: float
    p_max: float
    p_steps: int
    p_log: bool
    theta_min: float
    theta_max: float
    theta_steps: int
    jobs: int

    @property
    def points(self) -> int:
        return self.p_steps * self.theta_steps

    def argv(self, out_csv: str, plot_script: str) -> list[str]:
        """CLI arguments; floats are written with repr so they parse back exactly."""
        argv = ["scan", "--process", self.process, "--initial", self.initial,
                "--p-min", repr(self.p_min), "--p-max", repr(self.p_max),
                "--p-steps", str(self.p_steps),
                "--theta-min", repr(self.theta_min),
                "--theta-max", repr(self.theta_max),
                "--theta-steps", str(self.theta_steps),
                "--jobs", str(self.jobs),
                "--out", out_csv, "--plot-script", plot_script]
        if self.p_log:
            argv.append("--p-log")
        return argv


def scan_spec(workload: str, seed: int) -> ScanSpec:
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-1e-3, 1e-3, size=3)
    theta_min = abs(float(jitter[2]))
    if workload == "scan-moller":
        return ScanSpec("moller", "unpolarized",
                        0.01 * (1.0 + float(jitter[0])), 3.0 * (1.0 + float(jitter[1])),
                        300, False, theta_min, theta_min + 2.0 * math.pi, 300, 1)
    if workload == "scan-compton-wide":
        return ScanSpec("compton", "werner",
                        0.01 * (1.0 + float(jitter[0])), 1e4 * (1.0 + float(jitter[1])),
                        600, True, theta_min, theta_min + 2.0 * math.pi, 300, 2)
    raise ValueError(f"not a scan workload: {workload!r}")


def warmup_spec(spec: ScanSpec) -> ScanSpec:
    """A 4 x 4 scan with the same process, state and jobs, for warm-up."""
    return ScanSpec(spec.process, spec.initial, spec.p_min, spec.p_max, 4,
                    spec.p_log, spec.theta_min, spec.theta_max, 4, spec.jobs)


def _initial_spec(kind: str, rng: np.random.Generator) -> str:
    if kind != "diag":
        return kind
    w = rng.uniform(0.05, 1.0, size=4)
    w /= w.sum()
    w[3] = 1.0 - w[:3].sum()
    return "diag:" + ",".join(repr(float(x)) for x in w)


def _point_query(rng: np.random.Generator) -> dict:
    process = PROCESSES[int(rng.integers(len(PROCESSES)))]
    if process == "muon-pair":
        p = float(math.exp(rng.uniform(math.log(110.0), math.log(2000.0))))
    else:
        p = float(math.exp(rng.uniform(math.log(0.02), math.log(200.0))))
    # keep clear of the propagator poles at theta = 0 and pi
    theta = float(rng.uniform(0.05, math.pi - 0.05) + math.pi * rng.integers(2))
    kind = INITIAL_KINDS[int(rng.integers(len(INITIAL_KINDS)))]
    return {"kind": "point", "process": process, "initial": _initial_spec(kind, rng),
            "p": p, "theta": theta}


def _bisect_query(rng: np.random.Generator) -> dict:
    theta = float(rng.uniform(MOLLER_CONE + 0.1, math.pi - MOLLER_CONE - 0.1)
                  + math.pi * rng.integers(2))
    return {"kind": "bisect", "theta": theta,
            "lo": float(rng.uniform(0.005, 0.02)), "hi": float(rng.uniform(1.5, 3.0))}


def query_stream(seed: int, pass_index: int) -> list[dict]:
    """POINTS_PER_PASS point reports and BISECTIONS_PER_PASS bisections, shuffled."""
    rng = np.random.default_rng([seed, pass_index])
    ops = ([_point_query(rng) for _ in range(POINTS_PER_PASS)]
           + [_bisect_query(rng) for _ in range(BISECTIONS_PER_PASS)])
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def warmup_stream(seed: int) -> list[dict]:
    """A few untimed queries of each kind, drawn apart from every pass stream."""
    rng = np.random.default_rng([seed, 1 << 30])
    return [_point_query(rng) for _ in range(12)] + [_bisect_query(rng)]


def bisection_evals(lo: float, hi: float, p_star: float) -> int:
    """Amplitude evaluations ``find_threshold`` spent to return ``p_star``.

    Replays the bisection: every midpoint below the returned value moved the
    lower end, every other one the upper end, so the step count is exact.
    Two evaluations check the bracket before the loop.
    """
    steps = 0
    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if mid < p_star:
            lo = mid
        else:
            hi = mid
        steps += 1
    return 2 + steps
