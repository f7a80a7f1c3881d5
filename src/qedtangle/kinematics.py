"""Centre-of-mass kinematics for the six 2->2 processes.

Frame conventions: incoming particle 1 along +z with momentum magnitude p,
incoming particle 2 along -z; outgoing particle 1 in the xz-plane (phi = 0)
at polar angle theta, outgoing particle 2 opposite. theta is taken modulo
2 pi, so the full [0, 2 pi) range of the scans is representable.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .constants import DEFAULT
from .errors import BelowThresholdError, InvalidKinematicsError


class ProcessKind(Enum):
    MOLLER = "moller"            # e- e-  -> e- e-
    MUON_PAIR = "muon-pair"      # e- e+  -> mu- mu+
    ANNIHILATION = "annihilation"  # e- e+ -> gamma gamma
    BHABHA = "bhabha"            # e- e+  -> e- e+
    ELECTRON_MUON = "electron-muon"  # e- mu- -> e- mu-
    COMPTON = "compton"          # e- gamma -> e- gamma


@dataclass(frozen=True)
class ParticleSpec:
    """External leg descriptor: field statistics and mass."""

    name: str
    field: str                  # "u" (fermion) | "v" (antifermion) | "photon"
    mass: float                 # [MeV]


_E = ParticleSpec("e-", "u", DEFAULT.m_e)
_EP = ParticleSpec("e+", "v", DEFAULT.m_e)
_MU = ParticleSpec("mu-", "u", DEFAULT.m_mu)
_MUP = ParticleSpec("mu+", "v", DEFAULT.m_mu)
_PH = ParticleSpec("gamma", "photon", 0.0)

#: incoming pair, outgoing pair, tree-level channels, and polar angles of
#: poles of the photon-propagator channels (only channels whose denominator
#: can vanish exactly at physical kinematics; fermion propagators never do).
#:
#: Legs are numbered 0..3 = in1, in2, out1, out2 (momenta p1, p2, q1, q2). A
#: channel is (name, sign, legs); its name is the Mandelstam invariant x of
#: the propagator, whose momentum is p1 + p2, p1 - q1 or p1 - q2 for s, t, u.
#: Two currents ((bar, leg), (bar, leg)) exchange a photon:
#:     sign e^2 / x  J1 . J2,   J = bar-leg-bar gamma^mu leg.
#: A slash chain (bar, photon, photon, leg) runs a fermion of the bar leg's mass m:
#:     sign e^2 / (x - m^2)  bar  eps_a-slash (k-slash + m) eps_b-slash  leg.
PROCESS_TABLE: dict[ProcessKind, dict] = {
    ProcessKind.MOLLER: {
        "in": (_E, _E), "out": (_E, _E), "pole_thetas": (0.0, math.pi),
        "channels": (("t", 1.0, ((2, 0), (3, 1))), ("u", -1.0, ((2, 1), (3, 0))))},
    ProcessKind.MUON_PAIR: {
        "in": (_E, _EP), "out": (_MU, _MUP), "pole_thetas": (),
        "channels": (("s", 1.0, ((1, 0), (2, 3))),)},
    ProcessKind.ANNIHILATION: {
        "in": (_E, _EP), "out": (_PH, _PH), "pole_thetas": (),
        "channels": (("t", -1.0, (1, 3, 2, 0)), ("u", -1.0, (1, 2, 3, 0)))},
    ProcessKind.BHABHA: {
        "in": (_E, _EP), "out": (_E, _EP), "pole_thetas": (0.0,),
        "channels": (("s", 1.0, ((1, 0), (2, 3))), ("t", -1.0, ((1, 3), (2, 0))))},
    ProcessKind.ELECTRON_MUON: {
        "in": (_E, _MU), "out": (_E, _MU), "pole_thetas": (0.0,),
        "channels": (("t", 1.0, ((2, 0), (3, 1))),)},
    ProcessKind.COMPTON: {
        "in": (_E, _PH), "out": (_E, _PH), "pole_thetas": (),
        "channels": (("s", -1.0, (2, 3, 1, 0)), ("u", -1.0, (2, 1, 3, 0)))},
}


_MASSES = {process: tuple(spec.mass for spec in info["in"] + info["out"])
           for process, info in PROCESS_TABLE.items()}


def process_masses(process: ProcessKind) -> tuple[float, float, float, float]:
    """Masses (m1, m2, m3, m4) of legs in1, in2, out1, out2 [MeV]."""
    return _MASSES[process]  # type: ignore[return-value]


def threshold_momentum(process: ProcessKind) -> float:
    """Smallest incoming COM momentum with enough energy for the outgoing pair.

    Zero unless m3 + m4 > m1 + m2; then the p at sqrt(s) = m3 + m4,
    sqrt(lambda(s, m1^2, m2^2)) / (2 sqrt s): sqrt(m_mu^2 - m_e^2) for the
    muon pair. Whether a given p is below threshold is decided by
    `_com_energies` alone (q is NaN there), not by comparing with this value.
    """
    m1, m2, m3, m4 = process_masses(process)
    rs = m3 + m4
    if rs <= m1 + m2:
        return 0.0
    return math.sqrt((rs * rs - (m1 + m2) ** 2) * (rs * rs - (m1 - m2) ** 2)) / (2.0 * rs)


@dataclass(frozen=True)
class KinematicPoint:
    process: ProcessKind
    p: float                    # incoming COM 3-momentum magnitude [MeV]
    theta: float                # scattering angle of outgoing particle 1 [rad]
    s: float
    t: float
    u: float
    q_out: float
    energies: tuple[float, float, float, float]     # E1, E2, E3, E4 [MeV]


def _com_energies(process: ProcessKind, p: np.ndarray):
    """Batch energies (E1, E2, E3, E4) and outgoing momentum q for |p| = p.

    q = sqrt(lambda(s, m3^2, m4^2)) / (2 sqrt s) with lambda factored as
    gap (sqrt s + m3 + m4) (gap + 2 m3) (gap + 2 m4), where
    gap = sqrt s - m3 - m4 = p^2/(E1 + m1) + p^2/(E2 + m2) + (m1 + m2 - m3 - m4)
    has no cancellation at low p. q is NaN where gap < 0: this is the one
    below-threshold rule, shared by `build_kinematics`, the scan's live mask
    and the amplitude engine.
    """
    m1, m2, m3, m4 = process_masses(process)
    p = np.asarray(p, dtype=float)
    # a pair of equal masses shares one evaluation of its energy terms
    p2 = p * p
    e1 = np.sqrt(p2 + m1 ** 2)
    e2 = e1 if m2 == m1 else np.sqrt(p2 + m2 ** 2)
    rs = e1 + e2
    k1 = p2 / (e1 + m1)
    k2 = k1 if m2 == m1 else p2 / (e2 + m2)
    gap = k1 + k2 + (m1 + m2 - m3 - m4)
    g3 = gap + 2.0 * m3
    g4 = g3 if m4 == m3 else gap + 2.0 * m4
    lam = gap * (rs + m3 + m4) * g3 * g4
    with np.errstate(invalid="ignore"):
        q = np.sqrt(lam) / (2.0 * rs)
    q2 = q * q
    e3 = np.sqrt(q2 + m3 ** 2)
    e4 = e3 if m4 == m3 else np.sqrt(q2 + m4 ** 2)
    return e1, e2, e3, e4, q


def build_kinematics(process: ProcessKind, p: float, theta: float) -> KinematicPoint:
    """COM kinematics for scattering (p, theta).

    Raises BelowThresholdError if the COM energy cannot produce the outgoing
    pair (`_com_energies` gives a NaN q), InvalidKinematicsError for
    non-finite or non-positive inputs.
    """
    if not (math.isfinite(p) and math.isfinite(theta)):
        raise InvalidKinematicsError(f"non-finite inputs p={p}, theta={theta}")
    if p <= 0.0:
        raise InvalidKinematicsError(f"incoming momentum must be positive, got {p}")
    theta = theta % (2.0 * math.pi)

    s, t, u, *energies, q = (float(x) for x in mandelstam_batch(
        process, np.asarray(p), np.asarray(theta)))
    if math.isnan(q):
        raise BelowThresholdError(f"{process.value}: p = {p!r} MeV below threshold "
                                  f"{threshold_momentum(process)!r} MeV")
    return KinematicPoint(process, p, theta, s, t, u, q, tuple(energies))


def mandelstam_batch(process: ProcessKind, p: np.ndarray, theta: np.ndarray):
    """Vectorized (s, t, u) plus energies and q_out over (p, theta) arrays.

    t and u are written as (E1 - E3)^2 - (p - q)^2 - 4 p q sin^2(theta/2) and
    (E1 - E4)^2 - (p - q)^2 - 4 p q cos^2(theta/2), which keep their digits
    at forward and backward angles.

    Zero-dimensional p and theta give numpy scalars, and a point gives the
    same bits as in any batch: squares are written as products, since a
    numpy scalar's x ** 2 is pow(x, 2), which differs from x * x in the
    last bit for about 1 argument in 1,300.
    """
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    e1, e2, e3, e4, q = _com_energies(process, p)
    rs = e1 + e2
    half = 0.5 * theta
    diff, pq4 = p - q, 4.0 * p * q
    diff2 = diff * diff

    def offset(e):              # (E1 - E)^2 - (p - q)^2
        d = e1 - e
        return d * d - diff2
    d3 = offset(e3)
    d4 = d3 if e4 is e3 else offset(e4)
    sin_half, cos_half = np.sin(half), np.cos(half)
    t = d3 - pq4 * (sin_half * sin_half)
    u = d4 - pq4 * (cos_half * cos_half)
    return rs * rs, t, u, e1, e2, e3, e4, q


def momenta_batch(p, theta, e1, e2, e3, e4, q):
    """(..., 4) four-momenta p1, p2, q1, q2 in the phi = 0 scattering plane."""
    zeros = np.zeros_like(p)
    st, ct = np.sin(theta), np.cos(theta)
    return (np.stack([e1, zeros, zeros, p], axis=-1),
            np.stack([e2, zeros, zeros, -p], axis=-1),
            np.stack([e3, q * st, zeros, q * ct], axis=-1),
            np.stack([e4, -q * st, zeros, -q * ct], axis=-1))
