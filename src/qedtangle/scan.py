"""Parameter-space scans over (p, theta) grids, thresholds, CSV output.

Grid conventions: the p grid includes both endpoints (linear or log
spacing); the theta grid is cell-centered, theta_j = min + (j + 1/2) * step,
so a default [0, 2 pi) range never lands on duplicate 0 / 2 pi rows or on
the forward ray; an odd theta_steps puts its middle row on the backward
ray, theta = pi. Rows are emitted theta-major: all p values for the first
theta, then the next theta. A scan's result is a ScanResult of grid axes
and numpy columns; points are evaluated in fixed chunks of at most
CHUNK_POINTS (`_chunks`), blocks of whole theta rows (a longer row is
split along p), which a pool of `jobs` threads shares out; each chunk
decides its points' statuses, so results are deterministic and do not
depend on jobs.

Spectra: each scan evolves `qstate.evolution_input` of its initial state,
formed once. For an exactly mirror-invariant input (`unpolarized`, `diag:`
with w1 = w4 and w2 = w3, and `werner` in every process but Compton) that
is its two 2 x 2 mirror blocks, each chunk's states are MirrorStates, and
both spectra come in closed form from the evolved blocks
(`entanglement.block_spectra`), with no 4 x 4 state. Every other input
keeps the real 4 x 4 state, whose two spectra come from the vectorised
Jacobi kernel (`linalg.hermitian_eigenvalues_batch`), elementwise numpy
calls that the workers overlap better than LAPACK's; `find_threshold`, at
a few points a call, takes LAPACK's eigvalsh. The blocks read rows 0 and 1
of M alone, so on them the state stage asks the engine for those rows only.

CSV text: one formatter (`_csv_blocks`) turns a `_chunks` block into the
lines of its rows x cols, so a chunk is the unit of evaluation and of CSV
text. `run_scan` given `ScanConfig.out` streams the CSV: each worker formats
the chunk it evaluated and the caller writes the chunks in grid order;
`emit_csv` walks the same blocks over a finished ScanResult. Both write the
same bytes. A block's lines are formatted into one slab of uint64 words, a
line a row, each field written in place and NUL-padded, and the slab goes
out with its NUL bytes dropped by one `bytes.translate`.
The grid axes, formatted once per scan, are Python's own f"{v:.17g}".
The measures come from `_text17`, an exact vectorised '%.17g' of four
words per value (lead and first digit, two words of digits, suffix and
comma). For |v| < 10 (e = -99..0), where every measure lies, the 17
significant digits are the integer nearest |v| 10^(16-e), formed with
Dekker's error-free product against a double-double power of ten (Numer.
Math. 18, 224 (1971)). Near-ties, non-finite values and every other e take
Python's own conversion, so every byte is that of f"{v:.17g}".

Grid angles on a pole ray (`amplitudes.on_pole`) are nudged by half a grid
step, and the nudged angle lands in the output row; a point still on one is
"divergent", with empty measures. Points with NaN engine amplitudes, where
the kinematics give no outgoing momentum (a NaN q), are "below-threshold".
Pure initial states can hit zero-flux points, reported as "unfilterable".
The first status that holds wins: divergent, below-threshold, unfilterable.
One state stage, `_states`, applies that rule (`_status`) to every point of
a scan's chunks (`_evaluate` adds the measure stage) and of
`find_threshold`'s bisection.
"""
from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
import contextlib
from dataclasses import dataclass, field
import itertools
import logging
import math
import operator
import os
import stat

import numpy as np

from .amplitudes import MIRROR_SIGNS, amplitude, helicity_amplitudes_batch, on_pole
from .entanglement import measures_batch, partial_transpose
from .errors import (BelowThresholdError, DivergentKinematicsError, InvalidConfigError,
                     InvalidKinematicsError, UnfilterableStateError)
from .kinematics import P_RANGE, ProcessKind
from .qstate import (InitialState, MirrorInput, diagonal, evolution_input, evolve_batch, pure,
                     unpolarized, werner_symmetric)
from .xsection import dsigma_domega_from_msq

log = logging.getLogger(__name__)

CSV_HEADER = ("process,initial,p_mev,theta_rad,min_pt_eig,negativity,"
              "log_negativity,entropy,entangled,switching,status")

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
        lo, hi = P_RANGE
        if not (lo <= self.p_min <= hi and (self.p_steps == 1 or self.p_max <= hi)):
            raise InvalidConfigError(f"p_min and p_max must lie in {list(P_RANGE)} MeV, "
                                     f"got {self.p_min}, {self.p_max}")
        for name in ("p_steps", "theta_steps", "jobs"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):        # operator.index(True) is 1
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None
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
    hit = on_pole(process, theta)
    if hit.any():
        log.warning("nudged %d grid angle(s) off propagator poles by half a step", hit.sum())
    return np.where(hit, theta + 0.5 * step, theta)


def _status(amps: np.ndarray, divergent: np.ndarray, flux_ok: np.ndarray) -> np.ndarray:
    """Each point's status index in the module docstring's order: divergent,
    then NaN amplitudes (below threshold), then no flux (unfilterable)."""
    status = np.where(divergent, _DIVERGENT, np.where(flux_ok, _OK, _UNFILTERABLE)).astype(np.int8)
    if not flux_ok.all():
        # NaN amplitudes, below threshold, fail the flux test too: only those points are searched
        dead = np.flatnonzero(status == _UNFILTERABLE)
        status[dead[np.isnan(amps[dead]).any(axis=(1, 2))]] = _BELOW
    return status


def _states(process: ProcessKind, p: np.ndarray, theta: np.ndarray, rho_in) -> tuple:
    """The state stage: (state, status (N,)) over p and theta broadcast
    together and flattened, the state being what `evolve_batch` gives for
    `rho_in` (a 4x4 input or a MirrorInput). Divergent points reach it
    zeroed, so they fail its flux test like the NaN ones and hold the
    maximally mixed state: no divergent or NaN state reaches a spectrum.
    Statuses take the module docstring's order (`_status`)."""
    # the mirror blocks read rows 0 and 1 of M alone, so only those are formed
    rows = 2 if isinstance(rho_in, MirrorInput) else 4
    amps, _, divergent = helicity_amplitudes_batch(process, p, theta, rows=rows)
    divergent = divergent.ravel()
    amps = amps.reshape(-1, rows, 4)
    live = np.where(divergent[:, None, None], 0.0, amps) if divergent.any() else amps
    state, flux_ok = evolve_batch(live, rho_in)
    return state, _status(amps, divergent, flux_ok)


def _evaluate(process: ProcessKind, p: np.ndarray, theta: np.ndarray, rho_in) -> dict:
    """Every scan column for p and theta broadcast together, in their shape:
    the state stage `_states` on `rho_in` (a 4x4 input or a MirrorInput),
    then the measure stage. Measures are NaN and flags False off the ok
    points."""
    state, status = _states(process, p, theta, rho_in)
    res = measures_batch(state)
    ok = status == _OK
    if ok.all():
        columns = {name: res[name] for name in _MEASURES + _FLAGS}
    else:
        columns = {name: np.where(ok, res[name], math.nan) for name in _MEASURES}
        columns.update((name, res[name] & ok) for name in _FLAGS)
    columns["status"] = status
    shape = np.broadcast_shapes(np.shape(p), np.shape(theta))
    return {name: column.reshape(shape) for name, column in columns.items()}


def _chunks(n_rows: int, n_cols: int):
    """(row slice, column slice) blocks of at most CHUNK_POINTS points over an
    n_rows x n_cols grid: whole rows when a row fits, else single rows split
    along the columns."""
    step = max(1, CHUNK_POINTS // max(n_cols, 1))
    for r in range(0, n_rows, step):
        for j in range(0, n_cols, CHUNK_POINTS):
            yield slice(r, r + step), slice(j, min(j + CHUNK_POINTS, n_cols))


def run_scan(cfg: ScanConfig) -> ScanResult:
    """Evaluate the full grid in chunks of CHUNK_POINTS; theta-major columns.

    A chunk is a block of whole theta rows (a row longer than CHUNK_POINTS
    is split along p), so the amplitude engine contracts spinors once per
    angle. Each chunk evaluates all of its points. A thread pool of ``jobs``
    workers takes the chunks, so the result does not depend on ``jobs``;
    at most 2 ``jobs`` chunks are submitted and not yet taken in grid order.

    With ``cfg.out`` set, the scan streams its CSV there, with the bytes of
    `emit_csv`: the worker that evaluates a chunk also formats its lines,
    and the caller writes the chunks in grid order as they arrive. A scan
    that raises does so in grid order, cancels the chunks not yet started
    and removes the file it was writing if that is a regular file.
    """
    cfg.validate()
    init = parse_initial(cfg.initial)
    rho_in = evolution_input(init.density.entries, *MIRROR_SIGNS[cfg.process])
    p_grid = cfg.p_grid()
    theta_grid = cfg.theta_grid()
    if len(theta_grid) > 1:     # a single row has no step: on a pole it is divergent
        theta_grid = _nudge_poles(cfg.process, theta_grid, theta_grid[1] - theta_grid[0])

    n = theta_grid.size * p_grid.size
    # every point is written by the chunk that holds it
    result = ScanResult(cfg.process.value, init.description, p_grid, theta_grid,
                        *(np.empty(n) for _ in _MEASURES),
                        *(np.empty(n, dtype=bool) for _ in _FLAGS),
                        np.empty(n, dtype=np.int8))
    block_text = None if cfg.out is None else _csv_blocks(result)

    def fill(block: tuple[slice, slice]) -> bytes | None:
        rows, cols = block
        theta, p = theta_grid[rows, None], p_grid[cols]
        # p as a broadcast view: one entry per grid point, stored once
        columns = _evaluate(cfg.process, np.broadcast_to(p, (theta.size, p.size)), theta, rho_in)
        for name, column in columns.items():
            result._grid(name)[block] = column
        return None if block_text is None else block_text(block)

    blocks = _chunks(theta_grid.size, p_grid.size)
    with _csv_file(cfg.out) as fh:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            # at most 2 jobs chunks ahead of the writer, so finished text
            # cannot pile up behind a slow sink
            pending = deque(pool.submit(fill, block)
                            for block in itertools.islice(blocks, 2 * cfg.jobs))
            try:
                while pending:
                    # in grid order; reading a result re-raises its worker's exception
                    lines = pending.popleft().result()
                    if fh is not None:
                        fh.write(lines)
                    pending.extend(pool.submit(fill, block)
                                   for block in itertools.islice(blocks, 1))
            finally:
                for future in pending:
                    future.cancel()
        result.warnings.extend(symmetry_audit(result))
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


def symmetry_audit(res: ScanResult) -> list[str]:
    """The symmetry of the scan's own process (``res.process``): theta ->
    theta + pi invariance for Moller / muon pair / annihilation, theta ->
    -theta for Bhabha, with angles compared modulo 2 pi.

    Each theta row is paired with the last row in grid order at its image
    (theta mod 2 pi to 12 digits), each ok point with the ok point at its p.
    Each audit logs its worst deviation and pair count at INFO; any
    deviation above 1e-8 is also returned as a warning.
    """
    process = ProcessKind(res.process)
    if process not in _SYMMETRIES:
        return []
    label, image = _SYMMETRIES[process]
    key = np.round(np.remainder(res.theta_grid, _TWO_PI), 12)
    want = np.round(np.remainder(image(res.theta_grid), _TWO_PI), 12)
    order = np.argsort(key, kind="stable")
    # pos = -1 (image below every key) reads the largest key, which cannot match
    pos = np.searchsorted(key[order], want, side="right") - 1
    hit = key[order[pos]] == want
    rows, partners = np.flatnonzero(hit), order[pos[hit]]
    status = res._grid("status")
    pairs, worst = 0, 0.0
    # row pairs in `_chunks` blocks, so no temporary spans the grid
    for block, cols in _chunks(rows.size, res.p_grid.size):
        a, b = (rows[block], cols), (partners[block], cols)
        both = (status[a] == _OK) & (status[b] == _OK)
        pairs += int(both.sum())
        for name in _MEASURES:
            grid = res._grid(name)
            worst = max(worst, float(np.max(np.abs(grid[a] - grid[b]), where=both, initial=0.0)))
    log.info("symmetry audit %s: worst deviation %.3e over %d pairs", label, worst, pairs)
    if pairs and worst > SYMMETRY_AUDIT_TOL:
        return [f"symmetry audit {label}: worst deviation {worst:.3e} "
                f"exceeds {SYMMETRY_AUDIT_TOL:g} over {pairs} pairs"]
    return []


# ---------------------------------------------------------------------------
# threshold bisection

#: Bisection levels per engine call: one call evaluates the midpoints of the
#: next BISECT_LEVELS levels, 2^L - 1 points, and the walk then takes L steps;
#: the last call builds only the levels the walk still reaches.
#: A constant, chosen by timing the benchmark's Moller bisections: a call
#: costs about 100 us at 1 point and 155 us at 31, so 4 and 5 levels tie,
#: and 3 or 6 are slower.
BISECT_LEVELS = 5
#: `find_threshold` bisects [lo, hi] while it is wider than this times hi
BISECT_RTOL = 1e-6

#: non-ok status -> (error class, message) of `find_threshold`
_STATUS_ERRORS = {
    _DIVERGENT: (DivergentKinematicsError, "{at} p={p} sits on a propagator pole"),
    _BELOW: (BelowThresholdError, "{process}: {at} p={p} below threshold"),
    _UNFILTERABLE: (UnfilterableStateError, "no outgoing flux at {at} p={p}"),
}


def _splits(lo: float, hi: float) -> bool:
    """Whether the bisection still splits [lo, hi]."""
    return hi - lo > BISECT_RTOL * hi


def _midpoint_tree(lo: float, hi: float) -> list[float]:
    """The midpoints of the next bisection levels of [lo, hi], at most
    BISECT_LEVELS, in heap order: entry 0 is the midpoint of [lo, hi], and
    entry k's lower and upper halves have theirs at 2k + 1 and 2k + 2. Each
    is 0.5 * (a + b) of the ends a sequential bisection would hold there, so
    it has its bits. A level is built only if the walk can reach it, that is
    if it still splits one of the intervals that end the level before."""
    tree, level = [], [(lo, hi)]
    while len(tree) < 2 ** BISECT_LEVELS - 1 and any(_splits(a, b) for a, b in level):
        mids = [0.5 * (a + b) for a, b in level]
        tree += mids
        level = [half for (a, b), mid in zip(level, mids) for half in ((a, mid), (mid, b))]
    return tree


def find_threshold(process: ProcessKind, initial: str, theta: float,
                   p_bracket: tuple[float, float]) -> float:
    """Bisect the p where the minimum PT eigenvalue changes sign.

    Raises InvalidKinematicsError for a non-finite theta, InvalidConfigError
    for a bracket that is not lo < hi inside kinematics.P_RANGE or does not
    straddle a sign change, and at a bracket point or a bisection midpoint
    the errors of the point path: DivergentKinematicsError on a propagator pole,
    BelowThresholdError below threshold, UnfilterableStateError with no
    outgoing flux. Converges to relative width BISECT_RTOL.

    Each engine call runs the scan's state stage (`_states`) on the
    midpoints of the next BISECT_LEVELS levels (`_midpoint_tree`, which
    leaves out the levels the walk cannot reach), the first call on the
    bracket ends too, and the loop walks that tree as a sequential bisection
    would, midpoint for midpoint. Only the status of a point the walk visits
    can raise; the bracket ends are checked first.
    """
    rho_in = parse_initial(initial).density.entries
    lo, hi = float(p_bracket[0]), float(p_bracket[1])
    if not P_RANGE[0] <= lo < hi <= P_RANGE[1]:
        raise InvalidConfigError(f"bad bracket {p_bracket}")
    if not math.isfinite(theta):
        raise InvalidKinematicsError(f"non-finite theta={theta}")

    def min_eigs(p: list[float]) -> tuple[list[float], list[int]]:
        rho, status = _states(process, np.array(p), np.asarray(theta), rho_in)
        # only the sign matters: the PT spectrum alone, from LAPACK at these few points
        return np.linalg.eigvalsh(partial_transpose(rho))[:, 0].tolist(), status.tolist()

    def check(status: int, at: str, p: float) -> None:
        if status != _OK:
            error, text = _STATUS_ERRORS[status]
            raise error(text.format(at=at, p=p, process=process.value))

    mids = _midpoint_tree(lo, hi)
    f, status = min_eigs([lo, hi, *mids])
    check(status[0], "bracket point", lo)
    check(status[1], "bracket point", hi)
    f_lo, f_hi = f[0], f[1]
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise InvalidConfigError(
            f"no sign change of min PT eigenvalue across bracket "
            f"[{lo}, {hi}]: {f_lo:.3e} vs {f_hi:.3e}")
    f, status = f[2:], status[2:]
    node = 0
    while _splits(lo, hi):
        if node >= len(mids):
            mids = _midpoint_tree(lo, hi)
            f, status = min_eigs(mids)
            node = 0
        mid = mids[node]
        check(status[node], "bisection midpoint", mid)
        if (f[node] < 0.0) == (f_lo < 0.0):
            lo, node = mid, 2 * node + 2
        else:
            hi, node = mid, 2 * node + 1
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# cross-section validation output

def cross_section_check(kin) -> float:
    """Unpolarized dsigma/dOmega of `kin`'s process at its point, from the
    helicity matrix [MeV^-2]."""
    msq_avg = amplitude(kin).spin_summed_msq() / 4.0
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
    """Columns hi, lo and hi's two halves, row e + 99 for e = -99..0: hi is
    10^(16-e) correctly rounded and lo the remainder 10^(16-e) - hi correctly
    rounded, both from exact integers, so hi + lo is 10^(16-e) to 2^-106."""
    pairs = []
    for k in range(115, 15, -1):
        hi = float(10 ** k)
        pairs.append((hi, float(10 ** k - int(hi))))
    hi, lo = np.array(pairs).T
    return np.stack([hi, lo, *_halves(hi)], axis=1)


_POW10 = _pow10_table()
_TENS = 10 ** np.arange(17, dtype=np.int64)


def _words(rows) -> np.ndarray:
    """Byte strings of a multiple of 8 bytes, as rows of uint64 words in memory order."""
    return np.frombuffer(b"".join(rows), np.uint64).reshape(len(rows), -1)


#: row g: the four ASCII digits of g; row g + 10000: the same with trailing
#: zeros as NUL; as uint32 words, so a group is one gather
_PLACES = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000)
_KEPT = np.logical_or.accumulate(_PLACES[::-1] != 0)[::-1]     # a nonzero digit here or after
_DIGITS = np.concatenate([_PLACES + 48, (_PLACES + 48) * _KEPT], axis=1).T.copy() \
    .view(np.uint32).ravel()
#: the rest are indexed by decimal exponent, at e + 99 for e = -99..0
_EXPONENTS = np.arange(-99, 1)


def _lead_words() -> np.ndarray:
    """Word 0 of a value by ((e + 99, sign), first digit, digits after it),
    right-aligned: its sign, the '0.000' lead of fixed notation below 1 and
    its first digit, then the decimal point if more digits follow the first
    and the lead holds no point."""
    leads = [(("-" if negative else "") + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "")).encode()
             for e in _EXPONENTS.tolist() for negative in (False, True)]
    words = [(lead + f"{first}{'.' if more and b'.' not in lead else ''}".encode()).rjust(8, b"\0")
             for lead in leads for first in range(10) for more in (False, True)]
    return _words(words).ravel()


_LEADS = _lead_words()
#: word 3 by e + 99: the 'e-XX' of scientific notation and the field's comma, right-aligned
_SUFFIXES = _words([(f"e{e:+03d}," if e < -4 else ",").encode().rjust(8, b"\0")
                    for e in _EXPONENTS.tolist()]).ravel()
#: the words of '0,' and '-0,', and of a non-ok line's empty field
_ZEROS = _words([b"0".rjust(8, b"\0") + bytes(23) + b",",
                 b"-0".rjust(8, b"\0") + bytes(23) + b","])
_EMPTY = _words([bytes(31) + b","])[0]


def _fallback_text(value: float) -> bytes:
    """Python's correctly rounded conversion, for what the arithmetic leaves."""
    return f"{value:.17g}".encode()


def _text17(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """'%.17g' text of each float64 in x and a comma, as four uint64 words
    per value written into the rows of `out` (n, 4), which it returns.

    Row i holds the bytes of f"{x[i]:.17g}," once its NUL bytes are dropped.
    The arithmetic covers 1e-99 <= |v| < 10, that is e = floor(log10 |v|)
    in -99..0, which holds every scan measure: a unit-trace two-qubit state
    has PT eigenvalues in [-1/2, 1], N <= 1/2, E_N <= 1 and S <= ln 4. There
    the 17 significant digits are the integer nearest y = |v| 10^(16-e), in
    [1e16, 1e17). hi + lo holds 10^(16-e) to 2^-106 (`_pow10_table`) and
    Dekker's split gives |v| hi exactly as p + err, so y = p + (err + |v| lo)
    is known to better than 1e-14. Rounding y half to even is then exact
    unless its fraction lies within 1e-6 of 1/2 (a tie or near-tie), or
    log10 misjudged e, which shows as a floor of y outside [1e16, 1e17) or a
    rounding up to 1e17. Those values, non-finite ones and every e outside
    -99..0 take `_fallback_text`. Zeros print as '0' and '-0'; when x holds
    any, only its nonzero entries go through the arithmetic.

    The words are: the sign, the '0.000' lead of fixed notation below 1
    and the first digit, right-aligned, with the decimal point after that
    digit if more digits follow it and the lead holds no point (`_LEADS`);
    digits 2-9 and 10-17, four per uint32 gather from `_DIGITS`, with
    trailing zeros as NUL; and the 'e-XX' suffix of scientific notation
    (e < -4) with the comma (`_SUFFIXES`).
    """
    if np.count_nonzero(x) < x.size:
        nonzero = np.flatnonzero(x)
        out[...] = _ZEROS[0]
        out[np.signbit(x)] = _ZEROS[1]
        if nonzero.size:
            out[nonzero] = _text17(x[nonzero], np.empty((nonzero.size, 4), np.uint64))
        return out
    a = np.abs(x)
    # non-finite values and e outside -99..0 read the tables at e = -99 or 0
    # and give garbage, clipped into the tables, which the fallback replaces
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(a))
        fast = (e >= -99) & (e <= 0)            # False for nan and inf
        at = np.fmax(np.fmin(e, 0.0), -99.0).astype(np.int64) + 99    # index of the tables by e
        hi, lo, hi_big, hi_small = np.take(_POW10, at, axis=0, mode="clip").T
        a_big, a_small = _halves(a)
        p = a * hi
        t = ((a_big * hi_big - p) + a_big * hi_small + a_small * hi_big) + a_small * hi_small \
            + a * lo
        t_floor = np.floor(t)
        frac = t - t_floor
        floor = p.astype(np.int64) + t_floor.astype(np.int64)
    n = floor + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (floor >= _TENS[16]) & (n < 10 * _TENS[16])
    first = n // _TENS[16]
    rest = n - first * _TENS[16]
    key = at * 40
    key += np.signbit(x) * 20
    key += first * 2
    key += rest != 0
    np.take(_LEADS, key, out=out[:, 0], mode="clip")
    # four groups of four digits after the first, each a row of _DIGITS:
    # a group loses its trailing zeros when every later digit is zero
    halves = out.view(np.uint32)
    for j, scale in enumerate(_TENS[12:0:-4]):
        group = rest // scale
        rest = rest - group * scale
        group[rest == 0] += 10000
        np.take(_DIGITS, group, out=halves[:, 2 + j], mode="clip")
    np.take(_DIGITS, rest + 10000, out=halves[:, 5], mode="clip")
    np.take(_SUFFIXES, at, out=out[:, 3])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.zeros((slow.size, 32), np.uint8)
        text[:, :31] = np.array([_fallback_text(v) for v in x[slow].tolist()],
                                dtype="S31").view(np.uint8).reshape(-1, 31)
        text[:, 31] = 44
        out[slow] = text.view(np.uint64)
    return out


def _axis_words(values: np.ndarray, label: bytes = b"") -> np.ndarray:
    """`label` and Python's '%.17g,' text of each grid axis value,
    left-aligned and NUL-padded in the fewest uint64 words that hold the
    widest, one word for an empty axis."""
    texts = [label + f"{v:.17g},".encode() for v in values.tolist()]
    width = -(-max(map(len, texts), default=1) // 8)
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(len(texts), width)


#: a line's flags and status with its newline, left-aligned in three words,
#: at 4 status + 2 entangled + switching: an ok line's flags, a non-ok
#: line's status with empty flags
_TAILS = _words([(f"{e},{s},ok\n" if k == _OK else f",,{STATUSES[k]}\n").encode().ljust(24, b"\0")
                 for k in range(len(STATUSES))
                 for e in ("false", "true") for s in ("false", "true")])


def _csv_blocks(res: ScanResult):
    """block_text(block), the CSV text of a `_chunks` block of `res`: the
    lines of its rows x cols, so the blocks in order give every line once.
    The lines are formatted into one (n, W) uint64 slab, one line a row,
    every field written in place: the label and p, and theta, broadcast
    from their axes' words (`_axis_words`), the four measures (`_text17`)
    and the flags and status (`_TAILS`). The slab's bytes, NULs dropped, are
    the lines."""
    # p and theta repeat along the grid: each axis value is formatted once
    head = _axis_words(res.p_grid, f"{res.process},{res.initial},".encode())
    theta_words = _axis_words(res.theta_grid)
    columns = np.cumsum([0, head.shape[1], theta_words.shape[1]] + [4] * len(_MEASURES)
                        + [_TAILS.shape[1]])

    def block_text(block: tuple[slice, slice]) -> bytes:
        rows, cols = block
        status = res._grid("status")[block]
        slab = np.empty((status.size, columns[-1]), np.uint64)
        field = [slab[:, a:b] for a, b in zip(columns[:-1], columns[1:])]
        field[0].reshape(*status.shape, head.shape[1])[...] = head[cols]
        field[1].reshape(*status.shape, theta_words.shape[1])[...] = theta_words[rows, None]
        status = status.ravel()
        ok = status == _OK
        live = None if ok.all() else np.flatnonzero(ok)
        for out, name in zip(field[2:], _MEASURES):
            values = res._grid(name)[block].ravel()
            if live is None:
                _text17(values, out)
            else:               # the non-ok lines get empty fields
                out[...] = _EMPTY
                out[live] = _text17(values[live], np.empty((live.size, 4), np.uint64))
        flags = 2 * res._grid("entangled")[block] + res._grid("switching")[block]
        # the codes are in range; "wrap" writes `out` unbuffered
        np.take(_TAILS, 4 * status + ok * flags.ravel(), axis=0, out=field[-1], mode="wrap")
        return slab.tobytes().translate(None, b"\0")

    return block_text


@contextlib.contextmanager
def _csv_file(path):
    """The file at `path` with the CSV header written, or None for no path.
    If the block raises, the file is closed and, if it is a regular file,
    removed; a device such as /dev/null is left alone."""
    if path is None:
        yield None
        return
    fh = open(path, "wb")
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            fh.write(f"{CSV_HEADER}\n".encode())
            yield fh
    except BaseException:
        if regular:
            os.unlink(path)
        raise


def emit_csv(res: ScanResult, path) -> None:
    """Fixed-column CSV, 17 significant digits, '\\n' line endings.

    Non-ok rows get empty measure and flag fields. The lines are formatted
    by `_chunks` block of the whole grid, as `run_scan` streams them.
    """
    block_text = _csv_blocks(res)
    with _csv_file(path) as fh:
        for block in _chunks(res.theta_grid.size, res.p_grid.size):
            fh.write(block_text(block))


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
