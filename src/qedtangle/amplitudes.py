"""Tree-level helicity amplitude matrices M[out, in] for the six processes.

Basis order for two-particle helicity labels: LL, LR, RL, RR, first letter =
particle 1 (the leg entering along +z / leaving at theta). Columns are
incoming configurations, rows outgoing ones. Channel matrices are retained
for diagnostics; their sum is the stored total.

One engine evaluates every process from its `PROCESS_TABLE` entry, in batch
over (p, theta) arrays; the per-point functions wrap the batch path with
N = 1. Each leg is a real helicity-indexed (..., 2, 4) tensor (photons as
`dirac` plane vectors); a few small matmuls give a channel's 16 helicity
configurations at once, transposed onto the (out1, out2, in1, in2) axes.
Feynman gauge photon propagator -i g_munu / q^2, vertices -i e gamma^mu,
fermion propagators i (qslash + m) / (q^2 - m^2).
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .constants import Constants, DEFAULT
from .dirac import (GAMMA0, IDENTITY4, PLANE_CONJ, current_batch, eps_batch,
                    lorentz_dot_batch, plane_vector, slash_batch, u_batch,
                    v_batch)
from .errors import DivergentKinematicsError
from .kinematics import (PROCESS_TABLE, KinematicPoint, ProcessKind,
                         build_kinematics, mandelstam_batch, momenta_batch)

#: relative denominator threshold below which a point counts as divergent
POLE_RTOL = 1e-12

#: propagator momentum of channel s, t, u as p1 + sign * (momentum of leg)
_PROPAGATOR = {"s": (1, 1.0), "t": (2, -1.0), "u": (3, -1.0)}

#: diagonal of gamma^0: the Dirac adjoint of a real spinor is u * _GAMMA0_DIAG
_GAMMA0_DIAG = np.diag(GAMMA0).real


@dataclass(frozen=True)
class AmplitudeMatrix:
    entries: np.ndarray                 # (4, 4) real, [out, in]
    kin: KinematicPoint
    channels: dict                      # channel name -> (4, 4) real

    def spin_summed_msq(self) -> float:
        """Sigma |M|^2 over all 16 helicity configurations."""
        return float(np.sum(np.abs(self.entries) ** 2))


def _legs(specs, theta, moduli, consts, photon_vectors):
    """Helicity-indexed real leg tensors (..., 2, 4), helicity axis ordered L, R.

    Incoming legs run along +z and -z, outgoing legs at theta and theta + pi;
    `moduli` holds each leg's |momentum|. Outgoing photons carry the conjugated
    polarization vector; a leg listed in `photon_vectors` carries the given
    (..., 4) in-plane vector, in plane form, for both helicities.
    """
    z = np.zeros_like(theta)
    angles = (z, z + math.pi, theta, theta + math.pi)
    legs = []
    for k, spec in enumerate(specs):
        if k in photon_vectors:
            vec = plane_vector(photon_vectors[k])
            legs.append(np.stack([vec, vec], axis=-2))
        elif spec.field == "photon":
            eps = np.stack([eps_batch(angles[k], h) for h in "LR"], axis=-2)
            legs.append(eps * PLANE_CONJ if k >= 2 else eps)
        else:
            build = u_batch if spec.field == "u" else v_batch
            legs.append(np.stack([build(spec.mass(consts), moduli[k], angles[k], h)
                                  for h in "LR"], axis=-2))
    return legs


def _slash_chain(legs, bar, a, b, leg, prop):
    """(bar eps_a-slash) @ (prop @ (eps_b-slash leg)), (..., [h_a h_bar], [h_b h_leg])."""
    shape = prop.shape[:-2] + (4, 4)
    left = (legs[bar] * _GAMMA0_DIAG)[..., None, :, :] @ slash_batch(legs[a])
    right = legs[leg][..., None, :, :] @ np.swapaxes(slash_batch(legs[b]), -1, -2)
    right = right.reshape(shape) @ np.swapaxes(prop, -1, -2)
    return left.reshape(shape) @ np.swapaxes(right, -1, -2)


def _to_helicity_axes(value, order):
    """(..., 4, 4) over the helicities of legs `order` -> (..., 4, 4) [out, in];
    leg k's helicity lands on axis (k + 2) % 4 of (out1, out2, in1, in2)."""
    lead = value.shape[:-2]
    source = [order.index((j + 2) % 4) - 4 for j in range(4)]
    return np.moveaxis(value.reshape(lead + (2,) * 4), source,
                       range(-4, 0)).reshape(lead + (4, 4))


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
            order = spec[0] + spec[1]
            value = lorentz_dot_batch(*(current_batch(legs[bar], legs[leg]).reshape(
                theta.shape + (4, 4)) for bar, leg in spec))
            m_prop = 0.0
        else:                           # slash chain around a fermion propagator
            if momenta is None:
                momenta = momenta_batch(p, theta, e1, e2, e3, e4, q)
            m_prop = specs[spec[0]].mass(consts)
            k_leg, k_sign = _PROPAGATOR[name]
            prop = slash_batch(momenta[0] + k_sign * momenta[k_leg]) + m_prop * IDENTITY4
            order = (spec[1], spec[0], spec[2], spec[3])
            value = _slash_chain(legs, *spec, prop)
        den = invariants[name] - m_prop ** 2
        divergent |= np.abs(den) < POLE_RTOL * s
        # points on a pole give inf/nan here; the divergent mask flags them
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = sign * consts.e2 / den
            channels[name] = _to_helicity_axes(coef[..., None, None] * value, order)
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
