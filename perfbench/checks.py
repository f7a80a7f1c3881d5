"""Output checks for every benchmark operation.

The oracles share no code with the measured path: grids, invariants and the
CSV are rebuilt or read here independently, and the physics references are
the closed forms in ``qedtangle.xsection`` (spin-summed |M|^2 and the
analytic Moller entangled region). Each check returns a list of failure
messages; an operation whose list is non-empty counts as failed.
"""
from __future__ import annotations

import math

import numpy as np

from qedtangle.amplitudes import helicity_amplitudes_batch
from qedtangle.constants import DEFAULT
from qedtangle.kinematics import ProcessKind
from qedtangle.scan import parse_csv
from qedtangle.xsection import moller_entangled_region, msq_summed

HEADER = ("process,initial,p_mev,theta_rad,min_pt_eig,negativity,"
          "log_negativity,entropy,entangled,switching,status")

MSQ_RTOL = 1e-8
MSQ_SAMPLES = 32
#: a point is in the Moller boundary band when the analytic verdict changes
#: within this relative step in p or this step in theta [rad]
BAND_REL_P = 1e-4
BAND_THETA = 1e-4
#: the analytic region must flip across p* (1 -/+ this) for each bisection
FLIP_REL = 1e-5
#: grid angles this close to a propagator pole ray would be nudged [rad]
POLE_TOL = 1e-9

_ME, _MMU = DEFAULT.m_e, DEFAULT.m_mu
MASSES = {
    "moller": (_ME, _ME, _ME, _ME),
    "muon-pair": (_ME, _ME, _MMU, _MMU),
    "annihilation": (_ME, _ME, 0.0, 0.0),
    "bhabha": (_ME, _ME, _ME, _ME),
    "electron-muon": (_ME, _MMU, _ME, _MMU),
    "compton": (_ME, 0.0, _ME, 0.0),
}
POLES = {"moller": (0.0, math.pi), "bhabha": (0.0,), "electron-muon": (0.0,)}


def invariants(process: str, p, theta):
    """(s, t, u) from (p, theta), written with no cancellation at small angles."""
    m1, m2, m3, m4 = MASSES[process]
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    e1, e2 = np.hypot(p, m1), np.hypot(p, m2)
    s = (e1 + e2) ** 2
    lam = (s - (m3 + m4) ** 2) * (s - (m3 - m4) ** 2)
    q = np.sqrt(lam) / (2.0 * (e1 + e2))
    e3, e4 = np.hypot(q, m3), np.hypot(q, m4)
    t = (e1 - e3) ** 2 - (p - q) ** 2 - 4.0 * p * q * np.sin(0.5 * theta) ** 2
    u = (e1 - e4) ** 2 - (p - q) ** 2 - 4.0 * p * q * np.cos(0.5 * theta) ** 2
    return s, t, u


def msq_residual(process: str, p, theta, msq) -> np.ndarray:
    """Relative deviation of program Sigma|M|^2 from the closed form."""
    s, t, u = invariants(process, p, theta)
    want = msq_summed(ProcessKind(process), s, t, u)
    return np.abs(np.asarray(msq) - want) / np.abs(want)


def expected_grid(spec):
    """Independent rebuild of the theta-major (p, theta) grid of a scan."""
    if spec.p_log:
        p = np.exp(np.linspace(math.log(spec.p_min), math.log(spec.p_max), spec.p_steps))
    else:
        p = spec.p_min + (spec.p_max - spec.p_min) * np.arange(spec.p_steps) / (spec.p_steps - 1)
    step = (spec.theta_max - spec.theta_min) / spec.theta_steps
    theta = spec.theta_min + (np.arange(spec.theta_steps) + 0.5) * step
    return np.tile(p, spec.theta_steps), np.repeat(theta, spec.p_steps)


def read_columns(path: str) -> dict:
    """Plain reader for the scan CSV; shares nothing with ``parse_csv``."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n")
        fields = [line.rstrip("\n").split(",") for line in fh]
    cols = list(zip(*fields)) if fields else [()] * 11
    return {
        "header": header,
        "widths": {len(f) for f in fields},
        "p": np.array(cols[2], dtype=float),
        "theta": np.array(cols[3], dtype=float),
        "min_pt_eig": np.array([float(x) if x else math.nan for x in cols[4]]),
        "entangled": np.array([x == "true" for x in cols[8]]),
        "status": np.array(cols[10]),
    }


def _band(p, theta) -> np.ndarray:
    """Points whose analytic Moller verdict is not stable under a tiny shift."""
    ref = moller_entangled_region(p, theta)
    band = np.zeros(p.shape, dtype=bool)
    for dp, dt in ((1 + BAND_REL_P, 0.0), (1 - BAND_REL_P, 0.0),
                   (1.0, BAND_THETA), (1.0, -BAND_THETA)):
        band |= moller_entangled_region(p * dp, theta + dt) != ref
    return band


def check_scan(spec, csv_path: str, cli_stdout: str, seed: int,
               amplitudes=helicity_amplitudes_batch, reader=parse_csv) -> list[str]:
    """All checks on one scan: rows, grid, statuses, round trip, oracles.

    ``amplitudes`` and ``reader`` are the program functions under check; the
    self-test substitutes broken ones.
    """
    fail = []
    n = spec.points
    if f"wrote {n} rows to {csv_path}" not in cli_stdout:
        fail.append(f"CLI did not report writing {n} rows")
    col = read_columns(csv_path)
    if col["header"] != HEADER:
        fail.append(f"bad header {col['header']!r}")
    if col["widths"] - {11}:
        fail.append(f"rows with field counts {sorted(col['widths'] - {11})}")
        return fail
    if col["p"].size != n:
        return fail + [f"{col['p'].size} rows, expected {n}"]

    p_want, t_want = expected_grid(spec)
    if not (np.allclose(col["p"], p_want, rtol=1e-14, atol=0.0)
            and np.allclose(col["theta"], t_want, rtol=1e-14, atol=1e-15)):
        fail.append("grid points differ from the requested grid")

    m1, m2, m3, m4 = MASSES[spec.process]
    # only a pair of equal-mass incoming legs can create heavier outgoing ones
    p_thr = math.sqrt(max((m3 + m4) ** 2 - (m1 + m2) ** 2, 0.0) / 4.0) if m1 == m2 else 0.0
    near_pole = np.zeros(n, dtype=bool)
    for pole in POLES.get(spec.process, ()):
        for ray in (pole, pole + 2 * math.pi):
            near_pole |= np.abs(t_want - ray) < POLE_TOL
    want = {"below-threshold": int(np.sum(p_want < p_thr)),
            "divergent": int(np.sum(near_pole))}
    want["ok"] = n - sum(want.values())
    got = {str(k): int(v) for k, v in zip(*np.unique(col["status"], return_counts=True))}
    if got != {k: v for k, v in want.items() if v}:
        fail.append(f"status counts {got}, expected {want}")

    try:
        rows = reader(csv_path)
    except ValueError as exc:
        rows = []
        fail.append(f"parse_csv rejects the written CSV: {exc}")
    if rows and (len(rows) != n
            or [r.entangled for r in rows] != [bool(x) if s == "ok" else None
                                               for x, s in zip(col["entangled"], col["status"])]
            or not np.array_equal(np.array([r.p for r in rows]), col["p"])
            or not np.array_equal(np.array([math.nan if r.min_pt_eig is None else r.min_pt_eig
                                            for r in rows]),
                                  col["min_pt_eig"], equal_nan=True)):
        fail.append("parse_csv does not read back what was written")

    ok = col["status"] == "ok"
    if spec.process == "moller" and spec.initial == "unpolarized":
        p, th = col["p"][ok], col["theta"][ok]
        wrong = (col["entangled"][ok] != moller_entangled_region(p, th)) & ~_band(p, th)
        if wrong.any():
            fail.append(f"{int(wrong.sum())} entangled flags disagree with the "
                        "analytic Moller region outside the boundary band")

    idx = np.random.default_rng([seed, 7]).choice(np.flatnonzero(ok),
                                                  size=min(MSQ_SAMPLES, int(ok.sum())),
                                                  replace=False)
    p, th = col["p"][idx], col["theta"][idx]
    amps = amplitudes(ProcessKind(spec.process), p, th)[0]
    worst = float(np.max(msq_residual(spec.process, p, th,
                                      np.sum(np.abs(amps) ** 2, axis=(1, 2))), initial=0.0))
    if not worst < MSQ_RTOL:
        fail.append(f"sum |M|^2 off the closed form by {worst:.2e} on sampled grid points")
    return fail


def check_point(rec: dict) -> list[str]:
    """One point report: unit trace, ascending PT spectrum, E_N = log2(2N+1), |M|^2."""
    if "error" in rec:
        return [f"point report raised {rec['error']}"]
    fail = []
    if abs(rec["trace"] - 1.0) > 1e-12:
        fail.append(f"trace {rec['trace']!r}")
    eig = rec["pt_eigenvalues"]
    if any(a > b for a, b in zip(eig, eig[1:])):
        fail.append(f"PT eigenvalues not ascending: {eig}")
    if abs(rec["log_negativity"] - math.log2(2.0 * rec["negativity"] + 1.0)) > 1e-12:
        fail.append("log-negativity is not log2(2N + 1)")
    res = float(msq_residual(rec["process"], rec["p"], rec["theta"], rec["msq"]))
    if not res < MSQ_RTOL:
        fail.append(f"sum |M|^2 off the closed form by {res:.2e}")
    return fail


def check_bisection(rec: dict) -> list[str]:
    """The analytic Moller region must flip across [p*(1-1e-5), p*(1+1e-5)]."""
    if "error" in rec:
        return [f"bisection raised {rec['error']}"]
    p = rec["p_star"]
    inside = bool(moller_entangled_region(p * (1 - FLIP_REL), rec["theta"]))
    outside = bool(moller_entangled_region(p * (1 + FLIP_REL), rec["theta"]))
    if not (inside and not outside):
        return [f"analytic region does not flip across p* = {p!r} at theta = {rec['theta']!r}"]
    return []


def check_query(rec: dict) -> list[str]:
    return check_point(rec) if rec["kind"] == "point" else check_bisection(rec)
