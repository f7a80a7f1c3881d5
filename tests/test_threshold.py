"""find_threshold's batched walk against a sequential bisection.

`find_threshold` evaluates the midpoints of several bisection levels in one
engine call and then walks them. `sequential_threshold` below is the
bisection it replaces, one N = 1 engine call per step; the two must return
the same bits, or raise the same error with the same message.
"""
import importlib.util
import math
from pathlib import Path
import sys

import numpy as np
import pytest

from qedtangle import amplitudes, scan
from qedtangle.entanglement import partial_transpose
from qedtangle.errors import (BelowThresholdError, DivergentKinematicsError, InvalidConfigError,
                              InvalidKinematicsError, QedTangleError, UnfilterableStateError)
from qedtangle.kinematics import P_RANGE, ProcessKind
from qedtangle.linalg import hermitian_eigenvalues_batch
from qedtangle.qstate import evolve_batch
from qedtangle.scan import find_threshold, parse_initial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def sequential_threshold(process, initial, theta, p_bracket, visited=None):
    """One engine call per bisection step, through scan's engine name (so a
    test's substitute reaches both); `visited` collects the points evaluated."""
    rho_in = parse_initial(initial).density.entries

    def min_eig(p, at):
        if visited is not None:
            visited.append(p)
        amps, _, div = scan.helicity_amplitudes_batch(process, np.asarray(p), np.asarray(theta))
        if div:
            raise DivergentKinematicsError(f"{at} p={p} sits on a propagator pole")
        if np.isnan(amps).any():
            raise BelowThresholdError(f"{process.value}: {at} p={p} below threshold")
        rho, ok = evolve_batch(amps[None], rho_in)
        if not bool(ok[0]):
            raise UnfilterableStateError(f"no outgoing flux at {at} p={p}")
        return float(hermitian_eigenvalues_batch(partial_transpose(rho))[0, 0])

    lo, hi = float(p_bracket[0]), float(p_bracket[1])
    if not P_RANGE[0] <= lo < hi <= P_RANGE[1]:
        raise InvalidConfigError(f"bad bracket {p_bracket}")
    if not math.isfinite(theta):
        raise InvalidKinematicsError(f"non-finite theta={theta}")
    f_lo, f_hi = min_eig(lo, "bracket point"), min_eig(hi, "bracket point")
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise InvalidConfigError(
            f"no sign change of min PT eigenvalue across bracket "
            f"[{lo}, {hi}]: {f_lo:.3e} vs {f_hi:.3e}")
    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if (min_eig(mid, "bisection midpoint") < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _outcome(fn, *args):
    """(p* bits, None) or (error class, message)."""
    try:
        p_star = fn(*args)
    except QedTangleError as exc:
        return type(exc), str(exc)
    assert type(p_star) is float
    return p_star.hex(), None


CASES = {
    "electron-muon-backward": (ProcessKind.ELECTRON_MUON, "unpolarized", math.pi, (1.0, 10.0)),
    "annihilation-wing": (ProcessKind.ANNIHILATION, "unpolarized", math.pi / 4, (0.30, 0.70)),
    # inputs that are not mirror-invariant, with a sign change in the bracket
    "compton-werner-low": (ProcessKind.COMPTON, "werner", 1.8326, (0.04, 0.06)),
    "compton-werner": (ProcessKind.COMPTON, "werner", 1.8326, (0.3, 0.45)),
    "annihilation-diag": (ProcessKind.ANNIHILATION, "diag:0.4,0.3,0.2,0.1", 0.2618, (0.6, 0.8)),
    # errors: at a bracket end, or no sign change
    "moller-forward-pole": (ProcessKind.MOLLER, "unpolarized", 0.0, (0.5, 2.0)),
    "annihilation-lr-no-flux": (ProcessKind.ANNIHILATION, "lr", math.pi, (0.01, 1.0)),
    "muon-pair-below": (ProcessKind.MUON_PAIR, "unpolarized", 1.0, (50.0, 500.0)),
    "moller-no-sign-change": (ProcessKind.MOLLER, "unpolarized", math.pi / 2, (2.0, 3.0)),
    # bracket ends just outside the momentum range
    "moller-below-range": (ProcessKind.MOLLER, "unpolarized", math.pi / 2,
                           (math.nextafter(P_RANGE[0], 0.0), 2.0)),
    "moller-above-range": (ProcessKind.MOLLER, "unpolarized", math.pi / 2,
                           (0.5, math.nextafter(P_RANGE[1], math.inf))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_walk_matches_the_sequential_bisection(case):
    assert _outcome(find_threshold, *CASES[case]) == _outcome(sequential_threshold, *CASES[case])


def test_error_cases_raise_what_they_should():
    want = {"moller-forward-pole": DivergentKinematicsError,
            "annihilation-lr-no-flux": UnfilterableStateError,
            "muon-pair-below": BelowThresholdError,
            "moller-no-sign-change": InvalidConfigError,
            "moller-below-range": InvalidConfigError,
            "moller-above-range": InvalidConfigError}
    for case, error in want.items():
        got, message = _outcome(find_threshold, *CASES[case])
        assert got is error, case
        assert "midpoint" not in message, case
    # every other case has a sign change and converges
    for case in CASES.keys() - want.keys():
        assert _outcome(find_threshold, *CASES[case])[1] is None, case


def test_benchmark_bisections_match_the_sequential_bisection():
    ops = [op for pass_index in range(6) for op in _workloads().query_stream(1, pass_index)
           if op["kind"] == "bisect"]
    assert len(ops) == 144
    for op in ops:
        args = (ProcessKind.MOLLER, "unpolarized", op["theta"], (op["lo"], op["hi"]))
        got = _outcome(find_threshold, *args)
        assert got[1] is None and got == _outcome(sequential_threshold, *args), op


def _poisoned_engine(monkeypatch, target: float) -> None:
    """scan's engine with NaN amplitudes at p == target, as below threshold."""
    real = amplitudes.helicity_amplitudes_batch

    def engine(process, p, theta, *args, **kwargs):
        total, channels, divergent = real(process, p, theta, *args, **kwargs)
        hit = np.asarray(p) == target
        if hit.any():
            total = np.where(hit[..., None, None], math.nan, total)
        return total, channels, divergent

    monkeypatch.setattr(scan, "helicity_amplitudes_batch", engine)


def _engine_points(monkeypatch, args) -> np.ndarray:
    """Every p find_threshold passes to the engine."""
    real, calls = amplitudes.helicity_amplitudes_batch, []

    def engine(process, p, *rest, **kwargs):
        calls.append(np.asarray(p).ravel())
        return real(process, p, *rest, **kwargs)

    monkeypatch.setattr(scan, "helicity_amplitudes_batch", engine)
    find_threshold(*args)
    monkeypatch.setattr(scan, "helicity_amplitudes_batch", real)
    return np.concatenate(calls)


def test_off_path_points_cannot_raise(monkeypatch):
    args = (ProcessKind.MOLLER, "unpolarized", math.pi / 2, (0.5, 2.0))
    visited = []
    p_star = sequential_threshold(*args, visited=visited)
    assert find_threshold(*args) == p_star
    evaluated = _engine_points(monkeypatch, args)
    off_path = np.setdiff1d(evaluated, visited)
    assert off_path.size > len(visited)
    # NaN amplitudes at a point the walk never visits: masked before the
    # eigensolve, so no LinAlgError, and p* keeps its bits
    for target in off_path[[0, off_path.size // 2, -1]]:
        _poisoned_engine(monkeypatch, float(target))
        assert find_threshold(*args) == p_star
    # at a visited midpoint the walk raises, naming it a midpoint
    _poisoned_engine(monkeypatch, visited[5])
    got = _outcome(find_threshold, *args)
    assert got == _outcome(sequential_threshold, *args)
    assert got == (BelowThresholdError,
                   f"moller: bisection midpoint p={visited[5]} below threshold")
    # at a bracket end, bracket wording
    _poisoned_engine(monkeypatch, visited[1])
    got = _outcome(find_threshold, *args)
    assert got == _outcome(sequential_threshold, *args)
    assert got == (BelowThresholdError, "moller: bracket point p=2.0 below threshold")
