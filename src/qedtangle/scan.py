"""Parameter-space scans over (p, theta) grids, thresholds, CSV output.

Grid conventions: the p grid includes both endpoints (linear or log
spacing); the theta grid is cell-centered, theta_j = min + (j + 1/2) * step,
so a default [0, 2 pi) range never lands on the exact forward/backward rays
or on duplicate 0 / 2 pi rows. Rows are emitted theta-major: all p values
for the first theta, then the next theta. Results are deterministic and
independent of the parallelism degree.

Grid points within 1e-9 rad of a propagator-pole ray are nudged by half a
grid step (the nudged angle is what lands in the output row); points whose
propagator denominators still vanish are reported with status "divergent"
and empty measures. Pure initial states can hit zero-flux points, reported
as status "unfilterable".
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import logging
import math

import numpy as np

from .amplitudes import helicity_amplitudes_batch
from .constants import Constants, DEFAULT
from .entanglement import PPT_TOL, measures_batch
from .errors import InvalidConfigError, QedTangleError
from .kinematics import PROCESS_TABLE, ProcessKind, threshold_momentum
from .qstate import (InitialState, diagonal, evolve_batch, pure, unpolarized,
                     werner_symmetric)
from .xsection import dsigma_domega_from_msq

log = logging.getLogger(__name__)

CSV_HEADER = ("process,initial,p_mev,theta_rad,min_pt_eig,negativity,"
              "log_negativity,entropy,entangled,switching,status")

POLE_NUDGE_TOL = 1e-9
SYMMETRY_AUDIT_TOL = 1e-8


def parse_initial(spec: str) -> InitialState:
    """Initial-state spec: unpolarized|ll|lr|rl|rr|werner|diag:w1,w2,w3,w4."""
    s = spec.strip().lower()
    if s == "unpolarized":
        return unpolarized()
    if s in ("ll", "lr", "rl", "rr"):
        return pure(s.upper())
    if s == "werner":
        return werner_symmetric()
    if s.startswith("diag:"):
        try:
            weights = [float(x) for x in s[5:].split(",")]
        except ValueError as exc:
            raise InvalidConfigError(f"bad diagonal weights in {spec!r}") from exc
        try:
            return diagonal(weights)
        except ValueError as exc:
            raise InvalidConfigError(str(exc)) from exc
    raise InvalidConfigError(f"unknown initial state {spec!r}")


def parse_process(name: str) -> ProcessKind:
    try:
        return ProcessKind(name.strip().lower())
    except ValueError as exc:
        valid = ", ".join(p.value for p in ProcessKind)
        raise InvalidConfigError(f"unknown process {name!r} (valid: {valid})") from exc


@dataclass(frozen=True)
class ScanConfig:
    process: ProcessKind
    initial: str = "unpolarized"
    p_min: float = 0.01
    p_max: float = 3.0
    p_steps: int = 100
    p_log: bool = False
    theta_min: float = 0.0
    theta_max: float = 2.0 * math.pi
    theta_steps: int = 100
    tol: float = PPT_TOL
    out: str | None = None
    jobs: int = 1
    constants: Constants = field(default=DEFAULT, repr=False)

    def validate(self) -> "ScanConfig":
        if not (math.isfinite(self.p_min) and math.isfinite(self.p_max)
                and math.isfinite(self.theta_min) and math.isfinite(self.theta_max)):
            raise InvalidConfigError("non-finite grid bounds")
        if self.p_min <= 0:
            raise InvalidConfigError(f"p_min must be positive, got {self.p_min}")
        if self.p_steps < 1 or self.theta_steps < 1:
            raise InvalidConfigError("step counts must be at least 1")
        if self.p_steps > 1 and not self.p_min < self.p_max:
            raise InvalidConfigError("p_min must be below p_max")
        if self.theta_steps > 1 and not self.theta_min < self.theta_max:
            raise InvalidConfigError("theta_min must be below theta_max")
        if self.tol <= 0:
            raise InvalidConfigError("tol must be positive")
        if self.jobs < 1:
            raise InvalidConfigError("jobs must be at least 1")
        return self

    def p_grid(self) -> np.ndarray:
        if self.p_steps == 1:
            return np.array([self.p_min])
        if self.p_log:
            return np.geomspace(self.p_min, self.p_max, self.p_steps)
        return np.linspace(self.p_min, self.p_max, self.p_steps)

    def theta_grid(self) -> np.ndarray:
        if self.theta_steps == 1:
            return np.array([self.theta_min])
        step = (self.theta_max - self.theta_min) / self.theta_steps
        return self.theta_min + (np.arange(self.theta_steps) + 0.5) * step


@dataclass(frozen=True)
class ScanRow:
    process: str
    initial: str
    p: float
    theta: float
    min_pt_eig: float | None
    negativity: float | None
    log_negativity: float | None
    entropy: float | None
    entangled: bool | None
    switching: bool | None
    status: str                  # ok | divergent | below-threshold | unfilterable


def _nudge_poles(process: ProcessKind, theta: np.ndarray, step: float) -> np.ndarray:
    out = theta.copy()
    nudged = 0
    for pole in PROCESS_TABLE[process]["pole_thetas"]:
        # signed distance to the nearest ray pole + 2 pi k, in [-pi, pi)
        offset = np.remainder(out - pole + math.pi, 2.0 * math.pi) - math.pi
        hit = np.abs(offset) < POLE_NUDGE_TOL
        out[hit] += 0.5 * step
        nudged += int(hit.sum())
    if nudged:
        log.warning("nudged %d grid angle(s) off propagator poles by half a step", nudged)
    return out


def _evaluate(process: ProcessKind, p: np.ndarray, theta: np.ndarray,
              rho_in: np.ndarray, tol: float, consts: Constants) -> dict:
    """Measures and status flags for flat (p, theta) arrays."""
    amps, _, divergent = helicity_amplitudes_batch(process, p, theta, consts)
    amps = np.where(divergent[..., None, None], 0.0, amps)
    rho, flux_ok = evolve_batch(amps, rho_in)
    bad = divergent | ~flux_ok
    safe = np.where(bad[..., None, None], np.eye(4, dtype=complex) / 4.0, rho)
    res = measures_batch(safe, tol, consts)
    res["divergent"] = divergent
    res["unfilterable"] = ~flux_ok & ~divergent
    return res


def run_scan(cfg: ScanConfig) -> list[ScanRow]:
    """Evaluate the full grid; one row per point, theta-major ordering."""
    cfg.validate()
    consts = cfg.constants
    init = parse_initial(cfg.initial)
    rho_in = init.density.entries
    p_grid = cfg.p_grid()
    theta_grid = cfg.theta_grid()
    if len(theta_grid) > 1:
        # single-point grids have no step to nudge by; an exactly requested
        # pole point is honestly reported as divergent instead
        theta_grid = _nudge_poles(cfg.process, theta_grid,
                                  theta_grid[1] - theta_grid[0])

    tt, pp = np.meshgrid(theta_grid, p_grid, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    n = tt.size

    p_thr = threshold_momentum(cfg.process, consts)
    below = pp < p_thr * (1.0 - 1e-15)
    valid = ~below

    results = {}
    if valid.any():
        pv, tv = pp[valid], tt[valid]
        if cfg.jobs > 1 and pv.size > cfg.jobs:
            bounds = np.linspace(0, pv.size, cfg.jobs + 1, dtype=int)
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                parts = list(pool.map(
                    lambda ab: _evaluate(cfg.process, pv[ab[0]:ab[1]], tv[ab[0]:ab[1]],
                                         rho_in, cfg.tol, consts),
                    zip(bounds[:-1], bounds[1:])))
            results = {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
        else:
            results = _evaluate(cfg.process, pv, tv, rho_in, cfg.tol, consts)

    rows: list[ScanRow] = []
    vi = 0
    for i in range(n):
        if below[i]:
            rows.append(ScanRow(cfg.process.value, init.description,
                                float(pp[i]), float(tt[i]),
                                None, None, None, None, None, None,
                                "below-threshold"))
            continue
        if results["divergent"][vi]:
            status = "divergent"
        elif results["unfilterable"][vi]:
            status = "unfilterable"
        else:
            status = "ok"
        if status == "ok":
            rows.append(ScanRow(
                cfg.process.value, init.description, float(pp[i]), float(tt[i]),
                float(results["min_pt_eig"][vi]), float(results["negativity"][vi]),
                float(results["log_negativity"][vi]), float(results["entropy"][vi]),
                bool(results["entangled"][vi]), bool(results["switching"][vi]), status))
        else:
            rows.append(ScanRow(cfg.process.value, init.description,
                                float(pp[i]), float(tt[i]),
                                None, None, None, None, None, None, status))
        vi += 1

    for warning in symmetry_audit(rows, cfg.process):
        log.warning("%s", warning)
    return rows


# ---------------------------------------------------------------------------
# symmetry audits

_MEASURES = ("min_pt_eig", "negativity", "log_negativity", "entropy")


def _audit_pairs(rows, mapper, label):
    """Compare measures between rows paired by a theta mapping."""
    index = {(round(r.theta, 12), round(r.p, 12)): r for r in rows if r.status == "ok"}
    warnings = []
    worst = 0.0
    matched = 0
    for r in rows:
        if r.status != "ok":
            continue
        partner = index.get((round(mapper(r.theta), 12), round(r.p, 12)))
        if partner is None:
            continue
        matched += 1
        for name in _MEASURES:
            a, b = getattr(r, name), getattr(partner, name)
            worst = max(worst, abs(a - b))
    if matched and worst > SYMMETRY_AUDIT_TOL:
        warnings.append(f"symmetry audit {label}: worst deviation {worst:.3e} "
                        f"exceeds {SYMMETRY_AUDIT_TOL:g} over {matched} pairs")
    return warnings


def symmetry_audit(rows: list[ScanRow], process: ProcessKind) -> list[str]:
    """theta -> theta + pi invariance for Moller / muon pair / annihilation,
    theta -> -theta for Bhabha; any violation above 1e-8 is reported."""
    if not rows:
        return []
    two_pi = 2.0 * math.pi
    if process in (ProcessKind.MOLLER, ProcessKind.MUON_PAIR, ProcessKind.ANNIHILATION):
        return _audit_pairs(rows, lambda t: (t + math.pi) % two_pi, "theta -> theta+pi")
    if process is ProcessKind.BHABHA:
        return _audit_pairs(rows, lambda t: (two_pi - t) % two_pi, "theta -> -theta")
    return []


# ---------------------------------------------------------------------------
# threshold bisection

def find_threshold(process: ProcessKind, initial: str, theta: float,
                   p_bracket: tuple[float, float], tol: float = PPT_TOL,
                   consts: Constants = DEFAULT) -> float:
    """Bisect the p where the minimum PT eigenvalue changes sign.

    Raises InvalidConfigError when the bracket does not straddle a sign
    change. Converges to relative width 1e-6.
    """
    rho_in = parse_initial(initial).density.entries

    def min_eig(p: float) -> float:
        amps, _, div = helicity_amplitudes_batch(
            process, np.array([p]), np.array([theta]), consts)
        if bool(div[0]):
            raise QedTangleError(f"bracket point p={p} sits on a propagator pole")
        rho, ok = evolve_batch(amps, rho_in)
        if not bool(ok[0]):
            raise QedTangleError(f"no outgoing flux at bracket point p={p}")
        return float(measures_batch(rho, tol, consts)["min_pt_eig"][0])

    lo, hi = float(p_bracket[0]), float(p_bracket[1])
    if not 0 < lo < hi:
        raise InvalidConfigError(f"bad bracket {p_bracket}")
    f_lo, f_hi = min_eig(lo), min_eig(hi)
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise InvalidConfigError(
            f"no sign change of min PT eigenvalue across bracket "
            f"[{lo}, {hi}]: {f_lo:.3e} vs {f_hi:.3e}")
    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if (min_eig(mid) < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# cross-section validation output

def cross_section_check(process: ProcessKind, kin) -> float:
    """Unpolarized dsigma/dOmega from the helicity matrix at one point [MeV^-2]."""
    from .amplitudes import amplitude
    amp = amplitude(kin)
    msq_avg = amp.spin_summed_msq() / 4.0
    return dsigma_domega_from_msq(msq_avg, kin.s, kin.p, kin.q_out)


# ---------------------------------------------------------------------------
# output: CSV and plot script

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}"


def emit_csv(rows, path) -> None:
    """Fixed-column CSV, 17 significant digits, '\\n' line endings."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join([
                r.process, r.initial, _fmt(r.p), _fmt(r.theta),
                _fmt(r.min_pt_eig), _fmt(r.negativity), _fmt(r.log_negativity),
                _fmt(r.entropy), _fmt(r.entangled), _fmt(r.switching), r.status,
            ]) + "\n")


def parse_csv(path) -> list[ScanRow]:
    """Round-trip reader for emit_csv output."""
    rows = []
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 11:
                raise ValueError(f"bad CSV line: {line!r}")
            opt = lambda s: None if s == "" else float(s)
            optb = lambda s: None if s == "" else s == "true"
            rows.append(ScanRow(parts[0], parts[1], float(parts[2]), float(parts[3]),
                                opt(parts[4]), opt(parts[5]), opt(parts[6]), opt(parts[7]),
                                optb(parts[8]), optb(parts[9]), parts[10]))
    return rows


def emit_plot_script(rows, path, csv_path) -> None:
    """Gnuplot commands rendering the scan as a (theta, p) map from the CSV."""
    process = rows[0].process if rows else "scan"
    initial = rows[0].initial if rows else ""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([
            f"# gnuplot script for {process} ({initial}) scan",
            f"csv = '{csv_path}'",
            "set datafile separator ','",
            "set xlabel 'theta [rad]'",
            "set ylabel 'p [MeV]'",
            "set cblabel 'log-negativity'",
            f"set title '{process} ({initial}): logarithmic negativity'",
            "set palette defined (0 'white', 0.5 'orange', 1 'red')",
            "plot csv skip 1 using 4:3:7 with points pt 5 ps 0.6 palette notitle",
            "pause -1 'press enter to close'",
        ]) + "\n")
