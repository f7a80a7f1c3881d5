"""Centre-of-mass kinematics for the six 2->2 processes.

Frame conventions: incoming particle 1 along +z with momentum magnitude p,
incoming particle 2 along -z; outgoing particle 1 in the xz-plane (phi = 0)
at polar angle theta, outgoing particle 2 opposite. theta is taken modulo
2 pi, so the full [0, 2 pi) range of the scans is representable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
import math

import numpy as np

from .constants import Constants, DEFAULT
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
    """External leg descriptor: field statistics and mass lookup key."""

    name: str
    field: str                  # "u" (fermion) | "v" (antifermion) | "photon"
    mass_key: str               # "e" | "mu" | "photon"

    def mass(self, consts: Constants) -> float:
        if self.mass_key == "e":
            return consts.m_e
        if self.mass_key == "mu":
            return consts.m_mu
        return 0.0


_E = ParticleSpec("e-", "u", "e")
_EP = ParticleSpec("e+", "v", "e")
_MU = ParticleSpec("mu-", "u", "mu")
_MUP = ParticleSpec("mu+", "v", "mu")
_PH = ParticleSpec("gamma", "photon", "photon")

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


def process_masses(process: ProcessKind, consts: Constants = DEFAULT) -> tuple[float, float, float, float]:
    info = PROCESS_TABLE[process]
    return tuple(spec.mass(consts) for spec in info["in"] + info["out"])  # type: ignore[return-value]


def threshold_momentum(process: ProcessKind, consts: Constants = DEFAULT) -> float:
    """Smallest incoming COM momentum with enough energy for the outgoing pair.

    Only the muon pair has a non-zero threshold, p = sqrt(m_mu^2 - m_e^2).
    """
    if process is ProcessKind.MUON_PAIR:
        return math.sqrt(consts.m_mu ** 2 - consts.m_e ** 2)
    return 0.0


@dataclass(frozen=True)
class KinematicPoint:
    process: ProcessKind
    p: float                    # incoming COM 3-momentum magnitude [MeV]
    theta: float                # scattering angle of outgoing particle 1 [rad]
    s: float
    t: float
    u: float
    q_out: float
    masses: tuple[float, float, float, float]
    constants: Constants = field(default=DEFAULT, repr=False)


def _com_energies(process: ProcessKind, p: np.ndarray, consts: Constants):
    """Batch energies (E1, E2, E3, E4) and outgoing momentum q for |p| = p.

    q = sqrt(lambda(s, m3^2, m4^2)) / (2 sqrt s) with lambda factored as
    gap (sqrt s + m3 + m4) (gap + 2 m3) (gap + 2 m4), where
    gap = sqrt s - m3 - m4 = p^2/(E1 + m1) + p^2/(E2 + m2) + (m1 + m2 - m3 - m4)
    has no cancellation at low p. q is NaN below threshold.
    """
    m1, m2, m3, m4 = process_masses(process, consts)
    p = np.asarray(p, dtype=float)
    e1 = np.sqrt(p ** 2 + m1 ** 2)
    e2 = np.sqrt(p ** 2 + m2 ** 2)
    rs = e1 + e2
    gap = p ** 2 / (e1 + m1) + p ** 2 / (e2 + m2) + (m1 + m2 - m3 - m4)
    lam = gap * (rs + m3 + m4) * (gap + 2.0 * m3) * (gap + 2.0 * m4)
    with np.errstate(invalid="ignore"):
        q = np.sqrt(lam) / (2.0 * rs)
    e3 = np.sqrt(q ** 2 + m3 ** 2)
    e4 = np.sqrt(q ** 2 + m4 ** 2)
    return e1, e2, e3, e4, q


def build_kinematics(process: ProcessKind, p: float, theta: float,
                     consts: Constants = DEFAULT) -> KinematicPoint:
    """COM kinematics for scattering (p, theta).

    Raises BelowThresholdError if the COM energy cannot produce the outgoing
    pair, InvalidKinematicsError for non-finite or non-positive inputs.
    """
    if not (math.isfinite(p) and math.isfinite(theta)):
        raise InvalidKinematicsError(f"non-finite inputs p={p}, theta={theta}")
    if p <= 0.0:
        raise InvalidKinematicsError(f"incoming momentum must be positive, got {p}")
    theta = theta % (2.0 * math.pi)

    m1, m2, m3, m4 = process_masses(process, consts)
    p_thr = threshold_momentum(process, consts)
    if p < p_thr and not math.isclose(p, p_thr, rel_tol=1e-15):
        raise BelowThresholdError(
            f"{process.value}: p = {p} MeV below threshold {p_thr:.6f} MeV")

    s, t, u, e1, _, _, _, q = (float(x) for x in mandelstam_batch(
        process, np.asarray(p), np.asarray(theta), consts))
    if not math.isfinite(q):    # p rounds onto the threshold: the pair forms at rest
        q = 0.0
        t, u = (e1 - m3) ** 2 - p ** 2, (e1 - m4) ** 2 - p ** 2
    return KinematicPoint(process, p, theta, s, t, u, q, (m1, m2, m3, m4), consts)


def mandelstam_batch(process: ProcessKind, p: np.ndarray, theta: np.ndarray,
                     consts: Constants = DEFAULT):
    """Vectorized (s, t, u) plus energies and q_out over (p, theta) arrays.

    t and u are written as (E1 - E3)^2 - (p - q)^2 - 4 p q sin^2(theta/2) and
    (E1 - E4)^2 - (p - q)^2 - 4 p q cos^2(theta/2), which keep their digits
    at forward and backward angles.
    """
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    e1, e2, e3, e4, q = _com_energies(process, p, consts)
    s = (e1 + e2) ** 2
    t = (e1 - e3) ** 2 - (p - q) ** 2 - 4.0 * p * q * np.sin(0.5 * theta) ** 2
    u = (e1 - e4) ** 2 - (p - q) ** 2 - 4.0 * p * q * np.cos(0.5 * theta) ** 2
    return s, t, u, e1, e2, e3, e4, q


def momenta_batch(p, theta, e1, e2, e3, e4, q):
    """(..., 4) four-momenta p1, p2, q1, q2 in the phi = 0 scattering plane."""
    zeros = np.zeros_like(p)
    st, ct = np.sin(theta), np.cos(theta)
    return (np.stack([e1, zeros, zeros, p], axis=-1),
            np.stack([e2, zeros, zeros, -p], axis=-1),
            np.stack([e3, q * st, zeros, q * ct], axis=-1),
            np.stack([e4, -q * st, zeros, -q * ct], axis=-1))
