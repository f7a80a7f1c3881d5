"""Parameter-space scans over (p, theta) grids, thresholds, CSV output.

Grid conventions: the p grid includes both endpoints (linear or log
spacing); the theta grid is cell-centered, theta_j = min + (j + 1/2) * step,
so a default [0, 2 pi) range never lands on the exact forward/backward rays
or on duplicate 0 / 2 pi rows. Rows are emitted theta-major: all p values
for the first theta, then the next theta. A scan's result is a ScanResult
of grid axes and numpy columns; points are evaluated in fixed chunks of at
most CHUNK_POINTS, each a block of whole theta rows against the live p
values (a longer row is split along p), which a thread pool shares out when
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

CSV text: `emit_csv` writes each chunk of CHUNK_POINTS lines as one uint8
slab of NUL-padded fields side by side, with the NUL bytes dropped. Floats
come from `_text17`, an exact vectorised '%.17g': the 17 significant digits
are the integer nearest |v| 10^(16-e), formed with Dekker's error-free
product against a double-double power of ten (Numer. Math. 18, 224 (1971)).
Near-ties, non-finite values and |e| > 99 take Python's own correctly
rounded conversion instead, so every byte is that of f"{v:.17g}".

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


def _read_only(state: InitialState) -> InitialState:
    state.density.entries.setflags(write=False)
    return state


#: the named initial states, built once and shared, so their entries are read-only
_NAMED_INITIAL = {name: _read_only(state) for name, state in [
    ("unpolarized", unpolarized()), ("werner", werner_symmetric()),
    *((pair, pure(pair.upper())) for pair in ("ll", "lr", "rl", "rr"))]}


def parse_initial(spec: str) -> InitialState:
    """Initial-state spec: unpolarized|ll|lr|rl|rr|werner|diag:w1,w2,w3,w4 (or w1;w2;w3;w4)."""
    s = spec.strip().lower()
    if s in _NAMED_INITIAL:
        return _NAMED_INITIAL[s]
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
    """A scan as its grid axes ``p_grid``, ``theta_grid`` (nudged) and columns.

    Columns are flat and theta-major; ``p`` and ``theta`` derive from the axes.
    Measures are NaN and flags False where the point is not ok; ``status``
    holds indices into STATUSES. ``len``, integer indexing and iteration give
    ScanRow views, with None in the measure and flag fields of non-ok rows.
    """
    process: str
    initial: str
    p_grid: np.ndarray
    theta_grid: np.ndarray
    min_pt_eig: np.ndarray
    negativity: np.ndarray
    log_negativity: np.ndarray
    entropy: np.ndarray
    entangled: np.ndarray
    switching: np.ndarray
    status: np.ndarray
    warnings: list = field(default_factory=list)      # run_scan's symmetry audit

    def __post_init__(self):
        n = self.p_grid.size * self.theta_grid.size
        for name in _MEASURES + _FLAGS + ("status",):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column {name} has shape {getattr(self, name).shape}, "
                                 f"not ({n},) for a {self.theta_grid.size} x "
                                 f"{self.p_grid.size} grid")

    @property
    def p(self) -> np.ndarray:
        return np.tile(self.p_grid, self.theta_grid.size)

    @property
    def theta(self) -> np.ndarray:
        return np.repeat(self.theta_grid, self.p_grid.size)

    def _grid(self, name: str) -> np.ndarray:
        return getattr(self, name).reshape(self.theta_grid.size, self.p_grid.size)

    def _row(self, p, theta, code, values) -> ScanRow:
        if code != _OK:
            values = (None,) * len(values)
        return ScanRow(self.process, self.initial, p, theta, *values, STATUSES[code])

    def __len__(self) -> int:
        return self.status.size

    def __getitem__(self, i) -> ScanRow:
        i = range(len(self))[operator.index(i)]
        return self._row(self.p_grid[i % self.p_grid.size].item(),
                         self.theta_grid[i // self.p_grid.size].item(), int(self.status[i]),
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

    n = theta_grid.size * p_grid.size
    result = ScanResult(cfg.process.value, init.description, p_grid, theta_grid,
                        *(np.full(n, math.nan) for _ in _MEASURES),
                        *(np.zeros(n, dtype=bool) for _ in _FLAGS),
                        np.full(n, _BELOW, dtype=np.int8))

    # below threshold, as build_kinematics and the engine decide it: q is NaN
    live = np.flatnonzero(~np.isnan(_com_energies(cfg.process, p_grid)[-1]))

    def fill(chunk: tuple[slice, np.ndarray]) -> None:
        block, cols = chunk
        theta = theta_grid[block]
        # p as a broadcast view: one entry per grid point, stored once
        res = _evaluate(cfg.process, np.broadcast_to(p_grid[cols], (theta.size, cols.size)),
                        theta[:, None], rho_in, mirror)
        code = np.where(res["divergent"], _DIVERGENT,
                        np.where(res["unfilterable"], _UNFILTERABLE, _OK)).reshape(theta.size, -1)
        ok = code == _OK
        result._grid("status")[block, cols] = code
        for name in _MEASURES:
            result._grid(name)[block, cols] = np.where(ok, res[name].reshape(ok.shape), math.nan)
        for name in _FLAGS:
            result._grid(name)[block, cols] = res[name].reshape(ok.shape) & ok

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


def symmetry_audit(res: ScanResult, process: ProcessKind) -> list[str]:
    """theta -> theta + pi invariance for Moller / muon pair / annihilation,
    theta -> -theta for Bhabha, with angles compared modulo 2 pi.

    Each theta row is paired with the last row in grid order at its image
    (theta mod 2 pi to 12 digits), each ok point with the ok point at its p.
    Each audit logs its worst deviation and pair count at INFO; any
    deviation above 1e-8 is also returned as a warning.
    """
    if process not in _SYMMETRIES:
        return []
    label, image = _SYMMETRIES[process]
    key = np.round(np.remainder(res.theta_grid, _TWO_PI), 12)
    want = np.round(np.remainder(image(res.theta_grid), _TWO_PI), 12)
    order = np.argsort(key, kind="stable")
    # pos = -1 (image below every key) reads the largest key, which cannot match
    pos = np.searchsorted(key[order], want, side="right") - 1
    hit = key[order[pos]] == want
    partners = order[pos[hit]]
    ok = res._grid("status") == _OK
    both = ok[hit] & ok[partners]
    pairs = int(both.sum())
    worst = float(np.max([np.abs(res._grid(name)[hit] - res._grid(name)[partners])[both]
                          for name in _MEASURES], initial=0.0))
    log.info("symmetry audit %s: worst deviation %.3e over %d pairs", label, worst, pairs)
    if pairs and worst > SYMMETRY_AUDIT_TOL:
        return [f"symmetry audit {label}: worst deviation {worst:.3e} "
                f"exceeds {SYMMETRY_AUDIT_TOL:g} over {pairs} pairs"]
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

_SPLIT = 134217729.0         # 2^27 + 1, Dekker's splitter for float64


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v = big + small exactly, each with at most 26 significant bits (Dekker)."""
    c = _SPLIT * v
    big = c - (c - v)
    return big, v - big


def _pow10_table() -> np.ndarray:
    """Rows hi, lo and hi's two halves, column e + 99 for e = -99..99: hi is
    10^(16-e) correctly rounded and lo the remainder 10^(16-e) - hi correctly
    rounded, both from exact integer ratios, so hi + lo is 10^(16-e) to 2^-106."""
    pairs = []
    for k in range(115, -84, -1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        a, b = hi.as_integer_ratio()
        pairs.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(pairs).T
    return np.stack([hi, lo, *_halves(hi)])


_POW10 = _pow10_table()
_TENS = 10 ** np.arange(18, dtype=np.int64)
#: row g: the four ASCII digits of g; row g + 10000: the same with trailing zeros as NUL
_PLACES = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000)
_KEPT = np.logical_or.accumulate(_PLACES[::-1] != 0)[::-1]     # a nonzero digit here or after
_DIGITS = np.concatenate([_PLACES + 48, (_PLACES + 48) * _KEPT], axis=1).T.copy()
_DIGIT_COUNT = np.concatenate([np.full(10000, 4), _KEPT.sum(axis=0)])
#: the rest are indexed by decimal exponent, at e + 99 for e = -99..99
_EXPONENTS = np.arange(-99, 100)
_SCIENTIFIC = (_EXPONENTS < -4) | (_EXPONENTS >= 17)
#: digits before the point: e + 1 in fixed notation (0 below 1), 1 in scientific
_WHOLE_DIGITS = np.where(_SCIENTIFIC, 1, np.maximum(_EXPONENTS + 1, 0))
#: the '0.000' lead of fixed notation below 1 and, at e + 99 + 199, the sign
#: before it, right-aligned in 6 bytes: a field whose NUL bytes form fewer
#: runs is compacted faster by bytes.translate. _LEAD_AT indexes '0.000';
#: -1 is the sign's byte
_LEAD_AT = np.arange(-6, 0) + np.where(_WHOLE_DIGITS == 0, 1 - _EXPONENTS, 0)[:, None]
_PREFIX = np.frombuffer(b"0.000", np.uint8)[np.maximum(_LEAD_AT, 0)] * (_LEAD_AT >= 0)
_PREFIX = np.concatenate([_PREFIX, _PREFIX + np.uint8(45) * (_LEAD_AT == -1)])
#: the 'e+XX' after the digits of scientific notation
_SUFFIX = np.column_stack([np.full(199, ord("e")), np.where(_EXPONENTS < 0, ord("-"), ord("+")),
                           _DIGITS[np.abs(_EXPONENTS), 2:]]).astype(np.uint8) \
    * _SCIENTIFIC[:, None]
#: row i: '0' for the first i of 17 digits (an integer part's own zeros)
_INTEGER_ZEROS = np.uint8(48) * (np.arange(17) < np.arange(18)[:, None])
#: row i: the decimal point in slot i - 1 of 16, after digit i - 1; row 0: none
_POINTS = np.uint8(46) * (np.arange(16) == np.arange(18)[:, None] - 1)


def _fallback_text(value: float) -> bytes:
    """Python's correctly rounded conversion, for what the fast path leaves."""
    return f"{value:.17g}".encode()


def _text17(x: np.ndarray) -> np.ndarray:
    """'%.17g' text of each float64 in x, one NUL-padded uint8 row each.

    A row holds the bytes of f"{v:.17g}" once its NUL bytes are dropped.
    With e = floor(log10 |v|), the 17 significant digits are the integer
    nearest y = |v| 10^(16-e), in [1e16, 1e17). hi + lo holds 10^(16-e) to
    2^-106 (`_pow10_table`) and Dekker's split gives |v| hi exactly as
    p + err, so y = p + (err + |v| lo) is known to better than 1e-14. Rounding
    y half to even is then exact unless its fraction lies within 1e-6 of 1/2
    (a tie or near-tie), or log10 misjudged e, which shows as a floor of y
    outside [1e16, 1e17) or a rounding up to 1e17. Those values, non-finite
    ones and |e| > 99 take `_fallback_text`. Zeros print as '0' and '-0';
    when x holds any, only its nonzero entries go through the arithmetic.

    A row is: the sign and the '0.000' lead of fixed notation below 1,
    right-aligned in 6 bytes; the 17 digits, with trailing fraction zeros as
    NUL and a decimal-point slot after each of the first k, k as many as the
    widest integer part in x needs; then the 'e+XX' suffix of scientific
    notation (e < -4 or e >= 17). At 27 + k bytes it has room for any fallback.
    """
    nonzero = np.flatnonzero(x)
    if nonzero.size < x.size:
        inner = _text17(x[nonzero])
        out = np.zeros((x.size, inner.shape[1]), np.uint8)
        out[:, 5] = np.uint8(45) * np.signbit(x)
        out[:, 6] = 48
        out[nonzero] = inner
        return out
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = np.abs(e) <= 99                      # False for nan and inf
    at = np.where(fast, e + 99, 99).astype(np.int64)        # row of the tables by exponent
    a = np.where(fast, a, 1.0)
    hi, lo, hi_big, hi_small = (np.take(table, at) for table in _POW10)
    a_big, a_small = _halves(a)
    p = a * hi
    t = ((a_big * hi_big - p) + a_big * hi_small + a_small * hi_big) + a_small * hi_small \
        + a * lo
    t_floor = np.floor(t)
    frac = t - t_floor
    floor = p.astype(np.int64) + t_floor.astype(np.int64)
    n = floor + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (floor >= _TENS[16]) & (n < 10 * _TENS[16])
    # four groups of four digits after the first, each as a row of _DIGITS:
    # a group loses its trailing zeros when every later digit is zero
    first = n // _TENS[16]
    rest = n - first * _TENS[16]
    rows = []
    for scale in _TENS[12:0:-4]:
        group = rest // scale
        rest = rest - group * scale
        rows.append(group + 10000 * (rest == 0))
    rows.append(rest + 10000)
    digits = np.empty((x.size, 17), np.uint8)
    digits[:, 0] = first + 48
    significant = 1
    for j, row in enumerate(rows):
        digits[:, 1 + 4 * j:5 + 4 * j] = np.take(_DIGITS, row, axis=0)
        significant = significant + np.take(_DIGIT_COUNT, row)
    whole = np.take(_WHOLE_DIGITS, at)
    short = np.flatnonzero(significant < whole)     # integers ending in zeros
    digits[short] = np.maximum(digits[short], np.take(_INTEGER_ZEROS, whole[short], axis=0))
    point = whole * (significant > whole)           # digits before the point, if any after
    k = int(point.max(initial=0))                   # point slots in use
    out = np.empty((x.size, 27 + k), np.uint8)
    out[:, :6] = np.take(_PREFIX, at + 199 * np.signbit(x), axis=0)
    out[:, 6:6 + 2 * k:2] = digits[:, :k]
    out[:, 7:7 + 2 * k:2] = np.take(_POINTS[:, :k], point, axis=0)
    out[:, 6 + 2 * k:23 + k] = digits[:, k:]
    out[:, 23 + k:] = np.take(_SUFFIX, at, axis=0)
    slow = np.flatnonzero(~fast)
    out[slow] = np.array([_fallback_text(v) for v in x[slow].tolist()],
                         dtype=f"S{out.shape[1]}").view(np.uint8).reshape(-1, out.shape[1])
    return out


#: flag fields with their comma, by flag value; row 2 is a non-ok line's empty field
_FLAG_TEXT = np.array([b"false,", b"true,", b","]).view(np.uint8).reshape(3, -1)
_STATUS_TEXT = np.array([f"{name}\n".encode() for name in STATUSES]).view(np.uint8) \
    .reshape(len(STATUSES), -1)
_COMMA = np.array([[ord(",")]], np.uint8)


def emit_csv(res: ScanResult, path) -> None:
    """Fixed-column CSV, 17 significant digits, '\\n' line endings.

    Non-ok rows get empty measure and flag fields. Written CHUNK_POINTS
    lines at a time: each chunk is a uint8 slab of NUL-padded fields side by
    side (`_text17`), written with its NUL bytes dropped.
    """
    # p and theta repeat along the grid: each axis value is formatted once
    p_text, theta_text = _text17(res.p_grid), _text17(res.theta_grid)
    prefix = np.frombuffer(f"{res.process},{res.initial},".encode(), np.uint8)[None]
    with open(path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode())
        for start in range(0, len(res), CHUNK_POINTS):
            part = slice(start, start + CHUNK_POINTS)
            status = res.status[part]
            ok = status == _OK
            n = status.size
            row, col = np.divmod(np.arange(start, start + n), res.p_grid.size)
            fields = [prefix, np.take(p_text, col, axis=0), _COMMA,
                      np.take(theta_text, row, axis=0), _COMMA]
            for name in _MEASURES:
                text = _text17(getattr(res, name)[part][ok])
                if text.shape[0] < n:           # the non-ok lines get empty fields
                    spread = np.zeros((n, text.shape[1]), np.uint8)
                    spread[ok] = text
                    text = spread
                fields += [text, _COMMA]
            fields += [np.take(_FLAG_TEXT, np.where(ok, getattr(res, name)[part], 2), axis=0)
                       for name in _FLAGS]
            fields.append(np.take(_STATUS_TEXT, status, axis=0))
            slab = np.concatenate([np.broadcast_to(f, (n, f.shape[1])) for f in fields], axis=1)
            fh.write(slab.tobytes().translate(None, b"\0"))


_FLAG_VALUES = {"true": True, "false": False, "": None}


def _parse_row(line: str) -> ScanRow:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 11:
        raise ValueError(f"bad CSV line: {line!r}")
    status, fields = parts[10], parts[4:10]
    if status not in STATUSES:
        raise ValueError(f"unknown status {status!r}")
    if not (all(fields) if status == "ok" else not any(fields)):
        want = "every measure and flag" if status == "ok" else "no measure or flag"
        raise ValueError(f"{status} line needs {want}: {line!r}")
    if not all(flag in _FLAG_VALUES for flag in fields[4:]):
        raise ValueError(f"flags must be true or false: {line!r}")
    return ScanRow(parts[0], parts[1], float(parts[2]), float(parts[3]),
                   *(float(s) if s else None for s in fields[:4]),
                   *(_FLAG_VALUES[s] for s in fields[4:]), status)


def parse_csv(path) -> list[ScanRow]:
    """Round-trip reader for emit_csv output; a malformed line raises
    ValueError naming its line number."""
    rows = []
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for number, line in enumerate(fh, start=2):
            try:
                rows.append(_parse_row(line))
            except ValueError as exc:
                raise ValueError(f"CSV line {number}: {exc}") from None
    return rows


def _quoted(text) -> str:
    """A gnuplot single-quoted string: a quote inside is doubled."""
    return "'" + str(text).replace("'", "''") + "'"


def emit_plot_script(res: ScanResult, path, csv_path) -> None:
    """Gnuplot commands rendering the scan as a (theta, p) map from the CSV."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([
            f"# gnuplot script for {res.process} ({res.initial}) scan",
            f"csv = {_quoted(csv_path)}",
            "set datafile separator ','",
            "set xlabel 'theta [rad]'",
            "set ylabel 'p [MeV]'",
            "set cblabel 'log-negativity'",
            f"set title {_quoted(f'{res.process} ({res.initial}): logarithmic negativity')}",
            "set palette defined (0 'white', 0.5 'orange', 1 'red')",
            "plot csv skip 1 using 4:3:7 with points pt 5 ps 0.6 palette notitle",
            "pause -1 'press enter to close'",
        ]) + "\n")
