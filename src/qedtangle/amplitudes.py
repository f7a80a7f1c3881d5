"""Tree-level helicity amplitude matrices M[out, in] for the six processes.

Basis order for two-particle helicity labels: LL, LR, RL, RR, first letter =
particle 1 (the leg entering along +z / leaving at theta). Columns are
incoming configurations, rows outgoing ones. Channel matrices are retained
for diagnostics; their sum is the stored total.

One engine evaluates every process from its `PROCESS_TABLE` entry, over p
and theta arrays that broadcast against each other. Every leg and every
fermion propagator is a short sum of terms, each a p-side weight times a
theta-side tensor:

* a fermion leg of momentum k and energy E is sqrt(E + m) * large(theta)
  + k / sqrt(E + m) * small(theta) (`dirac.spinor_parts`);
* a photon leg is its polarization vectors (`dirac.polarizations`) with
  weight 1, conjugated when outgoing;
* the propagator slash(p1 - q) + m of a t or u channel, q the momentum of
  outgoing leg 2 or 3 with direction khat, is (E1 - E_q) g0-slash
  + (p - |q|) z-slash + |q| (z - khat)-slash + m; an s channel's
  slash(p1 + p2) + m is sqrt(s) g0-slash + m.

A channel's numerator is then sum_k W_k(p) G_k(theta) with K <= 16 terms.
The theta-side tensors G hold the 16 helicity configurations of each term,
already on the (out1, out2, in1, in2) axes, and are contracted once per
distinct angle; only the combine W @ G and the division by the propagator
denominator run once per point. On a scan, theta is a column of grid rows
and p a row of grid momenta; a flat point list is the case where both have
one entry per point, and the two give the same bits. An axis along which an
argument is a broadcast view (stride 0) is evaluated once. A new leg type
supplies its p-side weights and theta-side tensors in `_leg`.

Feynman gauge photon propagator -i g_munu / q^2, vertices -i e gamma^mu,
fermion propagators i (qslash + m) / (q^2 - m^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT
from .dirac import (GAMMA0, IDENTITY4, PLANE_CONJ, current_batch,
                    lorentz_dot_batch, plane_vector, polarizations, slash_batch,
                    spinor_parts, spinor_weights)
from .errors import DivergentKinematicsError
from .kinematics import (PROCESS_TABLE, KinematicPoint, ProcessKind,
                         mandelstam_batch, process_masses)

#: relative denominator threshold below which a point counts as divergent
POLE_RTOL = 1e-12

#: diagonal of gamma^0: the Dirac adjoint of a real spinor is u * _GAMMA0_DIAG
_GAMMA0_DIAG = np.diag(GAMMA0).real

#: spinor parts and polarization vectors of the incoming legs, along +z and -z
_SPINORS_IN = {field: (spinor_parts(field, 1.0, 0.0), spinor_parts(field, 0.0, 1.0))
               for field in "uv"}
_PHOTONS_IN = (polarizations(1.0, 0.0), polarizations(-1.0, 0.0))

_SLASH_T = slash_batch(np.array([1.0, 0.0, 0.0, 0.0]))
_SLASH_X = slash_batch(np.array([0.0, 1.0, 0.0, 0.0]))
_SLASH_Z = slash_batch(np.array([0.0, 0.0, 0.0, 1.0]))
#: propagator tensors: 1 + g0 and g0-slash for an s channel; for t and u
#: also the (z -+ khat)-slash slot, filled from _SIDE_X and _SIDE_Z, and z-slash
_ZERO4 = np.zeros((4, 4))
_PROPAGATOR_S = np.stack([IDENTITY4 + _SLASH_T, _SLASH_T])
_PROPAGATOR_TU = np.stack([IDENTITY4 + _SLASH_T, _SLASH_T, _ZERO4, _SLASH_Z])
_SIDE_X, _SIDE_Z = (np.stack([_ZERO4, _ZERO4, slash, _ZERO4]) for slash in (_SLASH_X, _SLASH_Z))


@dataclass(frozen=True)
class AmplitudeMatrix:
    entries: np.ndarray                 # (4, 4) real, [out, in]
    kin: KinematicPoint
    channels: dict                      # channel name -> (4, 4) real

    def spin_summed_msq(self) -> float:
        """Sigma |M|^2 over all 16 helicity configurations."""
        return float(np.sum(np.abs(self.entries) ** 2))


def _once(a: np.ndarray) -> np.ndarray:
    """`a` with every broadcast (stride-0) axis cut to length 1."""
    if a.ndim == 0:
        return a
    return a[tuple(slice(0, 1) if step == 0 else slice(None) for step in a.strides)]


class _Angles:
    """theta-side quantities of the outgoing legs, computed once per angle."""

    def __init__(self, theta: np.ndarray):
        half = 0.5 * theta
        self.c2, self.s2 = np.cos(half), np.sin(half)
        self.c, self.s = np.cos(theta), np.sin(theta)


def _leg(k, spec, mass, angles, momentum, photon_vectors):
    """Leg k as (p-side weights (..., T), theta-side tensors (..., T, 2, 4)).

    The helicity axis is ordered L, R. Incoming legs (k = 0, 1) run along +z
    and -z, outgoing legs (k = 2, 3) at theta and theta + pi, the latter
    taken as the half angle (-sin, cos)(theta/2) and the direction -khat(theta),
    so theta + pi is never rounded. A leg listed in `photon_vectors` carries
    the given (..., 4) in-plane vector, in plane form, for both helicities.
    """
    if k in photon_vectors:
        vec = plane_vector(photon_vectors[k])
        return 1.0, np.stack([vec, vec], axis=-2)[..., None, :, :]
    if spec.field == "photon":
        if k < 2:
            eps = _PHOTONS_IN[k]
        else:
            sign = 1.0 if k == 2 else -1.0
            eps = polarizations(sign * angles.c, sign * angles.s) * PLANE_CONJ
        return 1.0, eps[..., None, :, :]
    if k < 2:
        parts = _SPINORS_IN[spec.field][k]
    elif k == 2:
        parts = spinor_parts(spec.field, angles.c2, angles.s2)
    else:
        parts = spinor_parts(spec.field, -angles.s2, angles.c2)
    return np.stack(spinor_weights(mass, momentum), axis=-1), parts


def _propagator(name, masses, m, p, q, e1, e2, angles):
    """slash(p1 +- leg momentum) + m as (weights (..., T), tensors (..., T, 4, 4)).

    Its time part c0 g0-slash + m is written as m (1 + g0) + (c0 - m) g0, so
    c0 and m, nearly equal near rest, cancel in the exact projector 1 + g0.
    c0 - m and p - |q| come from mass differences and sqrt(s) - m =
    p^2/(E1 + m1) + (m1 - m) + E2, with no subtraction of nearly equal
    numbers; the z-slash term is left out where its weight vanishes for
    every p (equal masses).
    """
    sq1, sq2, sq3, sq4 = (x * x for x in masses)
    above = p ** 2 / (e1 + masses[0]) + (masses[0] - m) + e2      # sqrt(s) - m
    if name == "s":
        return np.stack([np.full_like(above, m), above], axis=-1), _PROPAGATOR_S
    # 2 sqrt(s) (E1 - E_q) = m1^2 - m2^2 -+ (m3^2 - m4^2), - for t, + for u
    d_energy = (sq1 - sq2) - (sq3 - sq4) if name == "t" else (sq1 - sq2) + (sq3 - sq4)
    # s (p^2 - |q|^2) = s gap_s / 4 + gap_0 / 4, from the two Kallen functions
    gap_s = 2.0 * (sq3 + sq4 - sq1 - sq2)
    gap_0 = (sq1 - sq2) ** 2 - (sq3 - sq4) ** 2
    s = (e1 + e2) ** 2
    weights = np.stack([np.full_like(above, m),
                        ((d_energy - 2.0 * m * m) - 2.0 * m * above) / (2.0 * (e1 + e2)),
                        q, (gap_s * s + gap_0) / (4.0 * s) / (p + q)], axis=-1)
    # (z -+ khat)-slash: z - khat = (-sin theta, 0, 2 sin^2(theta/2)) for t,
    # z + khat = (sin theta, 0, 2 cos^2(theta/2)) for u
    x, z = (-angles.s, 2.0 * angles.s2 ** 2) if name == "t" else (angles.s, 2.0 * angles.c2 ** 2)
    tensors = (_PROPAGATOR_TU + x[..., None, None, None] * _SIDE_X
               + z[..., None, None, None] * _SIDE_Z)
    if gap_s or gap_0:
        return weights, tensors
    return weights[..., :3], tensors[..., :3, :, :]


def _to_helicity_axes(value, order):
    """(..., 4, 4) over the helicities of legs `order` -> (..., 16) [out, in];
    leg k's helicity lands on axis (k + 2) % 4 of (out1, out2, in1, in2)."""
    lead = value.shape[:-2]
    n = len(lead)
    axes = tuple(range(n)) + tuple(n + order.index((j + 2) % 4) for j in range(4))
    return value.reshape(lead + (2,) * 4).transpose(axes).reshape(lead + (16,))


def _currents(legs, bar, leg):
    """bar gamma^mu leg over both legs' terms: (weights (..., T), (..., T, 4 [h_bar h_leg], 4))."""
    (wb, tb), (wl, tl) = legs[bar], legs[leg]
    nb, nl = tb.shape[-3], tl.shape[-3]
    cur = current_batch(tb.reshape(tb.shape[:-3] + (2 * nb, 4)),
                        tl.reshape(tl.shape[:-3] + (2 * nl, 4)))
    cur = np.moveaxis(cur.reshape(cur.shape[:-3] + (nb, 2, nl, 2, 4)), -4, -3)
    weights = wb[..., :, None] * wl[..., None, :]
    return (weights.reshape(weights.shape[:-2] + (nb * nl,)),
            cur.reshape(cur.shape[:-5] + (nb * nl, 4, 4)))


def _current_pair(legs, spec):
    """Two currents joined by a photon: (W (..., K), G (..., K, 16))."""
    (w1, j1), (w2, j2) = (_currents(legs, *pair) for pair in spec)
    n1, n2 = j1.shape[-3], j2.shape[-3]
    dots = lorentz_dot_batch(j1.reshape(j1.shape[:-3] + (4 * n1, 4)),
                             j2.reshape(j2.shape[:-3] + (4 * n2, 4)))
    dots = np.swapaxes(dots.reshape(dots.shape[:-2] + (n1, 4, n2, 4)), -3, -2)
    weights = w1[..., :, None] * w2[..., None, :]
    return (weights.reshape(weights.shape[:-2] + (n1 * n2,)),
            _to_helicity_axes(dots.reshape(dots.shape[:-4] + (n1 * n2, 4, 4)),
                              spec[0] + spec[1]))


def _slash_chain(legs, spec, prop):
    """bar eps_a-slash (prop) eps_b-slash leg: (W (..., K), G (..., K, 16))."""
    bar, a, b, leg = spec
    (wb, tb), (wl, tl), (wp, tp) = legs[bar], legs[leg], prop
    slash_a = slash_batch(legs[a][1][..., 0, :, :])                 # (..., h_a, 4, 4)
    slash_b = slash_batch(legs[b][1][..., 0, :, :])
    left = (tb * _GAMMA0_DIAG)[..., :, None, :, :] @ slash_a[..., None, :, :, :]
    right = tl[..., :, None, :, :] @ np.swapaxes(slash_b, -1, -2)[..., None, :, :, :]
    left = left.reshape(left.shape[:-3] + (4, 4))                   # (..., Tb, [h_a h_bar], 4)
    right = right.reshape(right.shape[:-3] + (4, 4))                # (..., Tl, [h_b h_leg], 4)
    mid = left[..., :, None, :, :] @ tp[..., None, :, :, :]
    value = mid[..., :, :, None, :, :] @ np.swapaxes(right, -1, -2)[..., None, None, :, :, :]
    weights = wb[..., :, None, None] * wp[..., None, :, None] * wl[..., None, None, :]
    k = weights.shape[-3] * weights.shape[-2] * weights.shape[-1]
    return (weights.reshape(weights.shape[:-3] + (k,)),
            _to_helicity_axes(value.reshape(value.shape[:-5] + (k, 4, 4)),
                              (a, bar, b, leg)))


def helicity_amplitudes_batch(process: ProcessKind, p, theta, photon_vectors=None):
    """(total (..., 4, 4), channels, divergent mask (...)) over p and theta.

    p and theta broadcast against each other; the outputs have their
    broadcast shape. `photon_vectors` maps a photon leg (0..3 = in1, in2,
    out1, out2) to a (..., 4) vector used in place of its polarization
    vectors; substituting the photon momentum checks the Ward identity.
    """
    info = PROCESS_TABLE[process]
    specs = info["in"] + info["out"]
    masses = process_masses(process)
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(p.shape, theta.shape)
    p, theta = _once(p), _once(theta)
    s, t, u, e1, e2, _, _, q = mandelstam_batch(process, p, theta)
    invariants = {"s": s, "t": t, "u": u}
    angles = _Angles(theta)
    vectors = photon_vectors or {}
    legs = [_leg(k, spec, masses[k], angles, (p, p, q, q)[k], vectors)
            for k, spec in enumerate(specs)]
    channels = {}
    divergent = np.zeros(shape, dtype=bool)
    for name, sign, spec in info["channels"]:
        if len(spec) == 2:
            m_prop = 0.0
            weights, tensors = _current_pair(legs, spec)
        else:
            m_prop = masses[spec[0]]
            prop = _propagator(name, masses, m_prop, p, q, e1, e2, angles)
            weights, tensors = _slash_chain(legs, spec, prop)
        den = invariants[name] - m_prop ** 2
        if den.shape != shape:
            den = np.broadcast_to(den, shape)
        divergent |= np.abs(den) < POLE_RTOL * s
        value = (weights[..., None, :] @ tensors)[..., 0, :]
        # points on a pole give inf/nan here; the divergent mask flags them
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = sign * DEFAULT.e2 / den
            channels[name] = (coef[..., None] * value).reshape(shape + (4, 4))
    first, *rest = channels.values()
    return (sum(rest, first) if rest else first.copy()), channels, divergent


def amplitude(kin: KinematicPoint) -> AmplitudeMatrix:
    """Helicity amplitude matrix at one kinematic point.

    Raises DivergentKinematicsError on propagator poles (|denominator|
    < 1e-12 s).
    """
    total, channels, divergent = helicity_amplitudes_batch(
        kin.process, np.array([kin.p]), np.array([kin.theta]))
    if bool(divergent[0]):
        raise DivergentKinematicsError(
            f"{kin.process.value}: propagator pole at p={kin.p}, theta={kin.theta}")
    return AmplitudeMatrix(total[0], kin, {k: v[0] for k, v in channels.items()})
