"""Parameter-space scans over (p, theta) grids, thresholds, CSV output.

Grid conventions: the p grid includes both endpoints (linear or log
spacing); the theta grid is cell-centered, theta_j = min + (j + 1/2) * step,
so a default [0, 2 pi) range never lands on the exact forward/backward rays
or on duplicate 0 / 2 pi rows. Rows are emitted theta-major: all p values
for the first theta, then the next theta. A scan's result is a ScanResult
of numpy columns; points are evaluated in fixed chunks of at most
CHUNK_POINTS, each a block of whole theta rows against the live p values
(a longer row is split along p), which a thread pool shares out when
jobs > 1, so results are deterministic and do not depend on jobs.

Spectra: mirror reflection in the scattering plane flips every helicity,
and the engine obeys M = D_out XX M XX D_in (`amplitudes.MIRROR_SIGNS`).
`run_scan` decides once per scan whether the initial state is exactly
mirror-invariant, D_in XX rho_in XX D_in == rho_in. It is for
`unpolarized`, for `diag:` with w1 = w4 and w2 = w3, and for `werner` in
every process but Compton. Then every outgoing state and its partial
transpose commute with A = D_out XX, and both spectra come from closed-form
2 x 2 blocks (`entanglement.mirror_spectra`). Every other input (pure
states, asymmetric `diag:`, Compton `werner`) keeps LAPACK's eigvalsh.

Grid points within 1e-9 rad of a propagator-pole ray are nudged by half a
grid step (the nudged angle is what lands in the output row); points whose
propagator denominators still vanish are reported with status "divergent"
and empty measures. Momenta at which `kinematics._com_energies` gives no
outgoing momentum (a NaN q) are reported as "below-threshold"; pure initial
states can hit zero-flux points, reported as status "unfilterable".
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import logging
import math
import operator

import numpy as np

from .amplitudes import MIRROR_SIGNS, helicity_amplitudes_batch
from .entanglement import measures_batch, partial_transpose
from .errors import (BelowThresholdError, DivergentKinematicsError, InvalidConfigError,
                     InvalidKinematicsError, UnfilterableStateError)
from .kinematics import PROCESS_TABLE, ProcessKind, _com_energies
from .linalg import hermitian_eigenvalues_batch
from .qstate import (InitialState, diagonal, evolve_batch, pure, unpolarized,
                     werner_symmetric)
from .xsection import dsigma_domega_from_msq

log = logging.getLogger(__name__)

CSV_HEADER = ("process,initial,p_mev,theta_rad,min_pt_eig,negativity,"
              "log_negativity,entropy,entangled,switching,status")

POLE_NUDGE_TOL = 1e-9
SYMMETRY_AUDIT_TOL = 1e-8


def parse_initial(spec: str) -> InitialState:
    """Initial-state spec: unpolarized|ll|lr|rl|rr|werner|diag:w1,w2,w3,w4 (or w1;w2;w3;w4)."""
    s = spec.strip().lower()
    if s == "unpolarized":
        return unpolarized()
    if s in ("ll", "lr", "rl", "rr"):
        return pure(s.upper())
    if s == "werner":
        return werner_symmetric()
    if s.startswith("diag:"):
        try:
            weights = [float(x) for x in s[5:].replace(";", ",").split(",")]
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
    out: str | None = None
    jobs: int = 1

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


#: Status names; ScanResult.status holds indices into this tuple.
STATUSES = ("ok", "divergent", "below-threshold", "unfilterable")
_OK, _DIVERGENT, _BELOW, _UNFILTERABLE = range(len(STATUSES))

#: Points per evaluation chunk and per CSV write. A constant, not an option:
#: chunk boundaries never depend on ``jobs``, so neither does any result bit.
CHUNK_POINTS = 8192

_MEASURES = ("min_pt_eig", "negativity", "log_negativity", "entropy")
_FLAGS = ("entangled", "switching")


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


@dataclass(frozen=True, eq=False)
class ScanResult:
    """A scan as numpy columns, one entry per grid point, theta-major.

    Measures are NaN and flags False where the point is not ok; ``status``
    holds indices into STATUSES. ``len``, integer indexing and iteration give
    ScanRow views, with None in the measure and flag fields of non-ok rows.
    """
    process: str
    initial: str
    p: np.ndarray
    theta: np.ndarray
    min_pt_eig: np.ndarray
    negativity: np.ndarray
    log_negativity: np.ndarray
    entropy: np.ndarray
    entangled: np.ndarray
    switching: np.ndarray
    status: np.ndarray
    warnings: list = field(default_factory=list)      # run_scan's symmetry audit

    def _row(self, p, theta, code, values) -> ScanRow:
        if code != _OK:
            values = (None,) * len(values)
        return ScanRow(self.process, self.initial, p, theta, *values, STATUSES[code])

    def __len__(self) -> int:
        return self.p.size

    def __getitem__(self, i) -> ScanRow:
        i = operator.index(i)
        return self._row(self.p[i].item(), self.theta[i].item(), int(self.status[i]),
                         [getattr(self, name)[i].item() for name in _MEASURES + _FLAGS])

    def __iter__(self):
        columns = [getattr(self, name).tolist()
                   for name in ("p", "theta", "status") + _MEASURES + _FLAGS]
        for p, theta, code, *values in zip(*columns):
            yield self._row(p, theta, code, values)


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


def _mirror(process: ProcessKind, rho_in: np.ndarray) -> np.ndarray | None:
    """D_out when rho_in is exactly mirror-invariant, D_in XX rho_in XX D_in
    == rho_in, else None; see the module docstring."""
    d_out, d_in = MIRROR_SIGNS[process]
    flipped = d_in[:, None] * rho_in[::-1, ::-1] * d_in
    return d_out if np.array_equal(flipped, rho_in) else None


def _evaluate(process: ProcessKind, p: np.ndarray, theta: np.ndarray,
              rho_in: np.ndarray, mirror: np.ndarray | None) -> dict:
    """Measures and status flags, flattened, for p and theta broadcast together;
    `mirror` is `_mirror(process, rho_in)`."""
    amps, _, divergent = helicity_amplitudes_batch(process, p, theta)
    amps, divergent = amps.reshape(-1, 4, 4), divergent.ravel()
    amps = np.where(divergent[:, None, None], 0.0, amps)
    rho, flux_ok = evolve_batch(amps, rho_in)
    bad = divergent | ~flux_ok
    safe = np.where(bad[:, None, None], np.eye(4) / 4.0, rho)
    res = measures_batch(safe, mirror=mirror)
    res["divergent"] = divergent
    res["unfilterable"] = ~flux_ok & ~divergent
    return res


def _chunks(n_theta: int, live: np.ndarray) -> list[tuple[slice, np.ndarray]]:
    """(theta rows, live p columns) blocks of at most CHUNK_POINTS points:
    whole rows when a row fits, else single rows split along p."""
    if live.size == 0:
        return []
    step = max(1, CHUNK_POINTS // live.size)
    return [(slice(r, r + step), live[j:j + CHUNK_POINTS])
            for r in range(0, n_theta, step) for j in range(0, live.size, CHUNK_POINTS)]


def run_scan(cfg: ScanConfig) -> ScanResult:
    """Evaluate the full grid in chunks of CHUNK_POINTS; theta-major columns.

    A chunk is a block of whole theta rows against the live p values (a row
    longer than CHUNK_POINTS is split along p), so the amplitude engine
    contracts spinors once per angle. With ``jobs > 1`` the same chunks are
    spread over a thread pool, so the result does not depend on ``jobs``.
    """
    cfg.validate()
    init = parse_initial(cfg.initial)
    rho_in = init.density.entries
    mirror = _mirror(cfg.process, rho_in)
    p_grid = cfg.p_grid()
    theta_grid = cfg.theta_grid()
    if len(theta_grid) > 1:
        # single-point grids have no step to nudge by; an exactly requested
        # pole point is honestly reported as divergent instead
        theta_grid = _nudge_poles(cfg.process, theta_grid,
                                  theta_grid[1] - theta_grid[0])

    tt, pp = np.meshgrid(theta_grid, p_grid, indexing="ij")
    n = tt.size
    result = ScanResult(cfg.process.value, init.description, pp.ravel(), tt.ravel(),
                        *(np.full(n, math.nan) for _ in _MEASURES),
                        *(np.zeros(n, dtype=bool) for _ in _FLAGS),
                        np.full(n, _BELOW, dtype=np.int8))

    # below threshold, as build_kinematics and the engine decide it: q is NaN
    live = np.flatnonzero(~np.isnan(_com_energies(cfg.process, p_grid)[-1]))
    row_index = np.arange(theta_grid.size)

    def fill(chunk: tuple[slice, np.ndarray]) -> None:
        block, cols = chunk
        theta = theta_grid[block]
        # p as a broadcast view: one entry per grid point, stored once
        res = _evaluate(cfg.process, np.broadcast_to(p_grid[cols], (theta.size, cols.size)),
                        theta[:, None], rho_in, mirror)
        idx = (row_index[block, None] * p_grid.size + cols).ravel()
        code = np.where(res["divergent"], _DIVERGENT,
                        np.where(res["unfilterable"], _UNFILTERABLE, _OK))
        ok = code == _OK
        result.status[idx] = code
        for name in _MEASURES:
            getattr(result, name)[idx] = np.where(ok, res[name], math.nan)
        for name in _FLAGS:
            getattr(result, name)[idx] = res[name] & ok

    chunks = _chunks(theta_grid.size, live)
    if cfg.jobs > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            list(pool.map(fill, chunks))        # re-raises a worker's exception
    else:
        for chunk in chunks:
            fill(chunk)

    result.warnings.extend(symmetry_audit(result, cfg.process))
    for warning in result.warnings:
        log.warning("%s", warning)
    return result


# ---------------------------------------------------------------------------
# symmetry audits

_TWO_PI = 2.0 * math.pi

#: process -> (label, theta image under the symmetry)
_SYMMETRIES = {
    ProcessKind.MOLLER: ("theta -> theta+pi", lambda t: t + math.pi),
    ProcessKind.MUON_PAIR: ("theta -> theta+pi", lambda t: t + math.pi),
    ProcessKind.ANNIHILATION: ("theta -> theta+pi", lambda t: t + math.pi),
    ProcessKind.BHABHA: ("theta -> -theta", lambda t: _TWO_PI - t),
}


def _audit_key(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(theta mod 2 pi, p) rounded to 12 digits, as one complex number each:
    numpy orders complex numbers by real part, then imaginary part."""
    return np.round(np.remainder(theta, _TWO_PI), 12) + 1j * np.round(p, 12)


def symmetry_audit(res: ScanResult, process: ProcessKind) -> list[str]:
    """theta -> theta + pi invariance for Moller / muon pair / annihilation,
    theta -> -theta for Bhabha, with angles compared modulo 2 pi.

    Every ok point is paired with the ok point at its image, when the grid
    has one. Each audit logs its worst deviation and pair count at INFO;
    any deviation above 1e-8 is also returned as a warning.
    """
    if process not in _SYMMETRIES:
        return []
    label, image = _SYMMETRIES[process]
    ok = np.flatnonzero(res.status == _OK)
    key = _audit_key(res.theta[ok], res.p[ok])
    want = _audit_key(image(res.theta[ok]), res.p[ok])
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # the last of equal keys in grid order is the partner; pos = -1 (image
    # below every key) reads the largest key, which cannot match
    pos = np.searchsorted(sorted_key, want, side="right") - 1
    hit = sorted_key[pos] == want
    mine, partner = ok[hit], ok[order[pos[hit]]]
    worst = float(np.max([np.abs(getattr(res, name)[mine] - getattr(res, name)[partner])
                          for name in _MEASURES], initial=0.0))
    log.info("symmetry audit %s: worst deviation %.3e over %d pairs",
             label, worst, mine.size)
    if mine.size and worst > SYMMETRY_AUDIT_TOL:
        return [f"symmetry audit {label}: worst deviation {worst:.3e} "
                f"exceeds {SYMMETRY_AUDIT_TOL:g} over {mine.size} pairs"]
    return []


# ---------------------------------------------------------------------------
# threshold bisection

def find_threshold(process: ProcessKind, initial: str, theta: float,
                   p_bracket: tuple[float, float]) -> float:
    """Bisect the p where the minimum PT eigenvalue changes sign.

    Raises InvalidKinematicsError for a non-finite theta, InvalidConfigError
    for a bracket that is not 0 < lo < hi < inf or does not straddle a sign
    change, and at a bracket point the errors of the point path:
    DivergentKinematicsError on a propagator pole, BelowThresholdError below
    threshold, UnfilterableStateError with no outgoing flux. Converges to
    relative width 1e-6.
    """
    rho_in = parse_initial(initial).density.entries

    def min_eig(p: float) -> float:
        amps, _, div = helicity_amplitudes_batch(process, np.asarray(p), np.asarray(theta))
        if div:
            raise DivergentKinematicsError(f"bracket point p={p} sits on a propagator pole")
        if np.isnan(amps).any():        # the engine's below-threshold points
            raise BelowThresholdError(f"{process.value}: bracket point p={p} below threshold")
        rho, ok = evolve_batch(amps[None], rho_in)
        if not bool(ok[0]):
            raise UnfilterableStateError(f"no outgoing flux at bracket point p={p}")
        # only the sign matters: the PT spectrum alone, as `measures_batch` forms it
        return float(hermitian_eigenvalues_batch(partial_transpose(rho))[0, 0])

    lo, hi = float(p_bracket[0]), float(p_bracket[1])
    if not 0 < lo < hi < math.inf:
        raise InvalidConfigError(f"bad bracket {p_bracket}")
    if not math.isfinite(theta):
        raise InvalidKinematicsError(f"non-finite theta={theta}")
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

_BOOL_TEXT = np.array(["false", "true"], dtype=object)
#: one line template per status code: prefix, p, theta and the flags are %s
#: arguments, the measures %.17g ones; non-ok lines take the first three only
_TEMPLATES = np.array(["%s%s,%s,%.17g,%.17g,%.17g,%.17g,%s,%s,ok\n"]
                      + [f"%s%s,%s,,,,,,,{name}\n" for name in STATUSES[1:]], dtype=object)


def _distinct_text(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.17g' text of each distinct value, and each entry's index into it.

    Values are told apart by bit pattern, so -0.0 keeps its sign."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()],
                    dtype=object), index


def emit_csv(res: ScanResult, path) -> None:
    """Fixed-column CSV, 17 significant digits, '\\n' line endings.

    Non-ok rows get empty measure and flag fields. Written CHUNK_POINTS
    lines at a time.
    """
    p_text, p_index = _distinct_text(res.p)
    theta_text, theta_index = _distinct_text(res.theta)
    prefix = f"{res.process},{res.initial},"
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(res), CHUNK_POINTS):
            part = slice(start, start + CHUNK_POINTS)
            status = res.status[part]
            # one row of template arguments per line; a non-ok line uses the first three
            args = np.empty((status.size, 9), dtype=object)
            args[:, 0] = prefix
            args[:, 1] = p_text[p_index[part]]
            args[:, 2] = theta_text[theta_index[part]]
            args[:, 3:7] = np.stack([getattr(res, name)[part] for name in _MEASURES], axis=1)
            for j, name in enumerate(_FLAGS, 7):
                args[:, j] = _BOOL_TEXT[getattr(res, name)[part].astype(np.intp)]
            used = np.ones(args.shape, dtype=bool)
            used[:, 3:] = (status == _OK)[:, None]
            fh.write("".join(_TEMPLATES[status].tolist()) % tuple(args[used].tolist()))


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


def emit_plot_script(res: ScanResult, path, csv_path) -> None:
    """Gnuplot commands rendering the scan as a (theta, p) map from the CSV."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([
            f"# gnuplot script for {res.process} ({res.initial}) scan",
            f"csv = '{csv_path}'",
            "set datafile separator ','",
            "set xlabel 'theta [rad]'",
            "set ylabel 'p [MeV]'",
            "set cblabel 'log-negativity'",
            f"set title '{res.process} ({res.initial}): logarithmic negativity'",
            "set palette defined (0 'white', 0.5 'orange', 1 'red')",
            "plot csv skip 1 using 4:3:7 with points pt 5 ps 0.6 palette notitle",
            "pause -1 'press enter to close'",
        ]) + "\n")
