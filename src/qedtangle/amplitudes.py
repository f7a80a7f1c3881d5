"""Tree-level helicity amplitude matrices M[out, in] for the six processes.

Basis order for two-particle helicity labels: LL, LR, RL, RR, first letter =
particle 1 (the leg entering along +z / leaving at theta). Columns are
incoming configurations, rows outgoing ones. Channel matrices are retained
for diagnostics; their sum is the stored total.

One engine evaluates every process from its `PROCESS_TABLE` entry, in batch
over (p, theta) arrays; the per-point functions wrap the batch path with
N = 1. Each leg is a helicity-indexed (..., 2, 4) tensor, and every channel
is evaluated for all 16 helicity configurations at once by broadcasting the
legs onto the (out1, out2, in1, in2) helicity axes. Feynman gauge photon
propagator -i g_munu / q^2, vertices -i e gamma^mu, fermion propagators
i (qslash + m) / (q^2 - m^2).
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .constants import Constants, DEFAULT
from .dirac import (GAMMA0, IDENTITY4, current_batch, eps_batch,
                    lorentz_dot_batch, slash_batch, u_batch, v_batch)
from .errors import DivergentKinematicsError
from .kinematics import (PROCESS_TABLE, KinematicPoint, ProcessKind,
                         build_kinematics, mandelstam_batch, momenta_batch)

#: relative denominator threshold below which a point counts as divergent
POLE_RTOL = 1e-12

#: propagator momentum of channel s, t, u as p1 + sign * (momentum of leg)
_PROPAGATOR = {"s": (1, 1.0), "t": (2, -1.0), "u": (3, -1.0)}


@dataclass(frozen=True)
class AmplitudeMatrix:
    entries: np.ndarray                 # (4, 4) complex, [out, in]
    kin: KinematicPoint
    channels: dict                      # channel name -> (4, 4) complex

    def spin_summed_msq(self) -> float:
        """Sigma |M|^2 over all 16 helicity configurations."""
        return float(np.sum(np.abs(self.entries) ** 2))


def _legs(specs, theta, moduli, consts, photon_vectors):
    """Helicity-indexed leg tensors (..., 2, 4), helicity axis ordered L, R.

    Incoming legs run along +z and -z, outgoing legs at theta and theta + pi;
    `moduli` holds each leg's |momentum|. Outgoing photons carry the
    conjugated polarization vector; a leg listed in `photon_vectors` carries
    the given (..., 4) vector for both helicities.
    """
    z = np.zeros_like(theta)
    angles = (z, z + math.pi, theta, theta + math.pi)
    legs = []
    for k, spec in enumerate(specs):
        if k in photon_vectors:
            vec = np.asarray(photon_vectors[k], dtype=complex)
            legs.append(np.stack([vec, vec], axis=-2))
        elif spec.field == "photon":
            eps = np.stack([eps_batch(angles[k], h) for h in "LR"], axis=-2)
            legs.append(eps.conj() if k >= 2 else eps)
        else:
            build = u_batch if spec.field == "u" else v_batch
            legs.append(np.stack([build(spec.mass(consts), moduli[k], angles[k], h)
                                  for h in "LR"], axis=-2))
    return legs


def _spread(leg_tensor, k):
    """View a (..., 2, X) leg tensor on the (out1, out2, in1, in2) helicity axes."""
    axes = [1, 1, 1, 1]
    axes[(k + 2) % 4] = 2
    return leg_tensor.reshape(leg_tensor.shape[:-2] + tuple(axes) + leg_tensor.shape[-1:])


def _slash_chain(legs, bar, a, b, leg, prop):
    """bar eps_a-slash prop eps_b-slash leg on the helicity axes, (..., 2, 2, 2, 2).

    One photon-helicity pair at a time, which bounds the (..., 4, 4)
    intermediates to what a single pair needs.
    """
    left = _spread(legs[bar].conj() @ GAMMA0, bar)
    right = _spread(legs[leg], leg)
    slashed_a, slashed_b = slash_batch(legs[a]), slash_batch(legs[b])
    out = np.empty(prop.shape[:-2] + (2, 2, 2, 2), dtype=complex)
    for ha in range(2):
        for hb in range(2):
            mid = slashed_a[..., ha, :, :] @ prop @ slashed_b[..., hb, :, :]
            index = [slice(None)] * 4
            index[(a + 2) % 4] = slice(ha, ha + 1)
            index[(b + 2) % 4] = slice(hb, hb + 1)
            out[(Ellipsis, *index)] = np.einsum(
                '...a,...ab,...b->...', left, mid[..., None, None, None, None, :, :], right)
    return out


def helicity_amplitudes_batch(process: ProcessKind, p, theta,
                              consts: Constants = DEFAULT, photon_vectors=None):
    """(total (N,4,4), channels, divergent mask) for arrays of (p, theta).

    `photon_vectors` maps a photon leg (0..3 = in1, in2, out1, out2) to an
    (N, 4) vector used in place of its polarization vectors; substituting the
    photon momentum checks the Ward identity.
    """
    info = PROCESS_TABLE[process]
    specs = info["in"] + info["out"]
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s, t, u, e1, e2, e3, e4, q = mandelstam_batch(process, p, theta, consts)
    invariants = {"s": s, "t": t, "u": u}
    legs = _legs(specs, theta, (p, p, q, q), consts, photon_vectors or {})
    momenta = None
    channels = {}
    divergent = np.zeros(theta.shape, dtype=bool)
    for name, sign, spec in info["channels"]:
        if len(spec) == 2:              # two currents joined by a photon
            (bar1, leg1), (bar2, leg2) = spec
            value = lorentz_dot_batch(
                current_batch(_spread(legs[bar1], bar1), _spread(legs[leg1], leg1)),
                current_batch(_spread(legs[bar2], bar2), _spread(legs[leg2], leg2)))
            m_prop = 0.0
        else:                           # slash chain around a fermion propagator
            if momenta is None:
                momenta = momenta_batch(p, theta, e1, e2, e3, e4, q)
            m_prop = specs[spec[0]].mass(consts)
            k_leg, k_sign = _PROPAGATOR[name]
            prop = slash_batch(momenta[0] + k_sign * momenta[k_leg]) + m_prop * IDENTITY4
            value = _slash_chain(legs, *spec, prop)
        den = invariants[name] - m_prop ** 2
        divergent |= np.abs(den) < POLE_RTOL * s
        # points on a pole give inf/nan here; the divergent mask flags them
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = sign * consts.e2 / den
            channels[name] = (coef[..., None, None, None, None] * value).reshape(
                theta.shape + (4, 4))
    mats = list(channels.values())
    return sum(mats[1:], mats[0].copy()), channels, divergent


def amplitude(kin: KinematicPoint) -> AmplitudeMatrix:
    """Helicity amplitude matrix at one kinematic point.

    Raises DivergentKinematicsError on propagator poles (|denominator|
    < 1e-12 s).
    """
    total, channels, divergent = helicity_amplitudes_batch(
        kin.process, np.array([kin.p]), np.array([kin.theta]), kin.constants)
    if bool(divergent[0]):
        raise DivergentKinematicsError(
            f"{kin.process.value}: propagator pole at p={kin.p}, theta={kin.theta}")
    return AmplitudeMatrix(total[0], kin, {k: v[0] for k, v in channels.items()})


def amplitude_at(process: ProcessKind, p: float, theta: float,
                 consts: Constants = DEFAULT) -> AmplitudeMatrix:
    """Convenience: build kinematics and evaluate in one call."""
    return amplitude(build_kinematics(process, p, theta, consts))
