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

A channel's numerator is then sum_k W_k(p) G_k(theta) with K <= 16 terms,
G holding the 16 helicity configurations of each term on the (out1, out2,
in1, in2) axes. Every theta-side tensor is a constant basis contracted with
a short feature vector of its piece:

* an outgoing spinor: (cos, sin)(theta/2);
* an outgoing photon: (1, cos theta, sin theta);
* a t or u propagator: (1, sin theta, sin^2(theta/2)) or (1, sin theta,
  cos^2(theta/2)), which fill its (z -+ khat)-slash slot;
* an incoming leg or an s-channel propagator: constant.

Leg 3, at theta + pi, shares leg 2's features: its half angle
(-sin, cos)(theta/2) and direction -khat(theta) are folded into its basis.

So G(theta) = f(theta) @ T, with f the product of the channel's feature
vectors (F <= 27 entries) and T a constant (F, K * 16) tensor. `_compile`
builds T for every process and channel once, at import, by running the
current and slash-chain contractions on the feature bases, each piece's
basis on its own broadcast axis. A call then forms the invariants, the
p-side weights W, the features once per distinct angle, G = f @ T, and
W @ G divided by the propagator denominator once per point: two small
matmuls, each stacked per item, so a point gives the same bits at any batch
size. On a scan, theta is a column of grid rows and p a row of grid
momenta; a flat point list is the case where both have one entry per point,
and the two give the same bits. An axis along which an argument is a
broadcast view (stride 0) is evaluated once. A leg listed in
`photon_vectors` takes the four plane components of its vector as features
and the unit plane vectors as basis, so its process's T is built at call
time by the same `_compile`. A new leg type supplies its p-side weights
(`_leg_weights`) and its feature basis (`_leg`).

Feynman gauge photon propagator -i g_munu / q^2, vertices -i e gamma^mu,
fermion propagators i (qslash + m) / (q^2 - m^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT
from .dirac import (GAMMA0, IDENTITY4, PLANE_CONJ, POLARIZATION_PARTS, current_batch,
                    lorentz_dot_batch, plane_vector, polarizations, slash_batch,
                    spinor_parts, spinor_weights)
from .errors import DivergentKinematicsError
from .kinematics import (PROCESS_TABLE, KinematicPoint, ProcessKind,
                         mandelstam_batch, process_masses)

#: relative denominator threshold below which a point counts as divergent
POLE_RTOL = 1e-12

#: diagonal of gamma^0: the Dirac adjoint of a real spinor is u * _GAMMA0_DIAG
_GAMMA0_DIAG = np.diag(GAMMA0).real

#: leg bases (F, T, 2, 4): incoming spinors and photon vectors, along +z and
#: -z, are constant (F = 1); outgoing ones are linear in their features
_SPINORS_IN = {field: (spinor_parts(field, 1.0, 0.0)[None], spinor_parts(field, 0.0, 1.0)[None])
               for field in "uv"}
_PHOTONS_IN = (polarizations(1.0, 0.0)[None, None], polarizations(-1.0, 0.0)[None, None])
#: outgoing legs 2 and 3: spinor parts are c A + s B at half angle (c, s),
#: with A and B those of legs 0 and 1, so the basis is (A, B) for leg 2 and
#: (B, -A) for leg 3 at (-s, c); photon vectors are P0 + c Pc + s Ps at
#: direction (c, s), with Pc and Ps negated for leg 3 at -khat
_SPINORS_OUT = {field: (np.concatenate([a, b]), np.concatenate([b, -a]))
                for field, (a, b) in _SPINORS_IN.items()}
_PHOTONS_OUT = tuple((POLARIZATION_PARTS * np.array([1.0, sign, sign])[:, None, None]
                      * PLANE_CONJ)[:, None] for sign in (1.0, -1.0))
#: a leg given in photon_vectors: the unit plane vectors, for both helicities
_VECTOR_BASIS = np.repeat(np.eye(4)[:, None, None, :], 2, axis=2)

_SLASH_T = slash_batch(np.array([1.0, 0.0, 0.0, 0.0]))
_SLASH_X = slash_batch(np.array([0.0, 1.0, 0.0, 0.0]))
_SLASH_Z = slash_batch(np.array([0.0, 0.0, 0.0, 1.0]))
#: propagator bases (F, T, 4, 4): terms 1 + g0 and g0-slash for an s channel
#: (constant); for t and u also the (z -+ khat)-slash slot and z-slash. The
#: slot is z -+ khat = (-sin theta, 0, 2 sin^2(theta/2)) for t and
#: (sin theta, 0, 2 cos^2(theta/2)) for u; the sign and the 2 sit in the basis
_ZERO4 = np.zeros((4, 4))
_PROPAGATOR_S = np.stack([IDENTITY4 + _SLASH_T, _SLASH_T])[None]
_PROPAGATOR_TU = {name: np.stack([np.stack([IDENTITY4 + _SLASH_T, _SLASH_T, _ZERO4, _SLASH_Z]),
                                  np.stack([_ZERO4, _ZERO4, sign * _SLASH_X, _ZERO4]),
                                  np.stack([_ZERO4, _ZERO4, 2.0 * _SLASH_Z, _ZERO4])])
                  for name, sign in (("t", -1.0), ("u", 1.0))}


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


def _stack(arrays) -> np.ndarray:
    """Equal-shape arrays stacked along a new last axis (np.stack at a third of its overhead)."""
    return np.concatenate([a[..., None] for a in arrays], axis=-1)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_i b_j over the last axes, flattened i-major: (..., I * J)."""
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(out.shape[:-2] + (a.shape[-1] * b.shape[-1],))


class _Features(dict):
    """One call's feature vectors (..., F) by name (`_FEATURES`), and their outer
    products by tuple of names, each computed on first use from "theta"."""

    def __missing__(self, key):
        if isinstance(key, tuple):
            value = self[key[0]] if len(key) == 1 else _outer(self[key[:-1]], self[key[-1]])
        else:
            value = _FEATURES[key](self)
        self[key] = value
        return value


#: the trigonometry, then the feature vectors named in `_leg` and `_propagator`
_FEATURES = {
    "theta/2": lambda f: 0.5 * f["theta"],
    "cos/2": lambda f: np.cos(f["theta/2"]),
    "sin/2": lambda f: np.sin(f["theta/2"]),
    "cos": lambda f: np.cos(f["theta"]),
    "sin": lambda f: np.sin(f["theta"]),
    "one": lambda f: np.ones_like(f["theta"]),
    "spinor": lambda f: _stack([f["cos/2"], f["sin/2"]]),
    "photon": lambda f: _stack([f["one"], f["cos"], f["sin"]]),
    "t": lambda f: _stack([f["one"], f["sin"], f["sin/2"] ** 2]),
    "u": lambda f: _stack([f["one"], f["sin"], f["cos/2"] ** 2]),
}


def _leg(k, spec):
    """Leg k's theta side: (feature name or None, basis (F, T, 2, 4)).

    The helicity axis is ordered L, R. Incoming legs (k = 0, 1) run along +z
    and -z, outgoing legs (k = 2, 3) at theta and theta + pi, the latter
    taken as the half angle (-sin, cos)(theta/2) and the direction -khat(theta),
    so theta + pi is never rounded.
    """
    if spec.field == "photon":
        return (None, _PHOTONS_IN[k]) if k < 2 else ("photon", _PHOTONS_OUT[k - 2])
    if k < 2:
        return None, _SPINORS_IN[spec.field][k]
    return "spinor", _SPINORS_OUT[spec.field][k - 2]


def _leg_weights(mass, momentum):
    """p-side weights (..., T) of a fermion leg: sqrt(E + m) and |p|/sqrt(E + m)."""
    return _stack(spinor_weights(mass, momentum))


def _mass_gaps(masses):
    """s (p^2 - |q|^2) = s gap_s / 4 + gap_0 / 4, from the two Kallen functions."""
    sq1, sq2, sq3, sq4 = (x * x for x in masses)
    return 2.0 * (sq3 + sq4 - sq1 - sq2), (sq1 - sq2) ** 2 - (sq3 - sq4) ** 2


def _propagator(name, masses):
    """theta side of slash(p1 +- leg momentum) + m: (feature name or None, basis (F, T, 4, 4)).

    The z-slash term is left out where its weight vanishes for every p
    (equal masses)."""
    if name == "s":
        return None, _PROPAGATOR_S
    basis = _PROPAGATOR_TU[name]
    return name, (basis if any(_mass_gaps(masses)) else basis[:, :3])


def _propagator_weights(name, masses, m, p, q, e1, e2, s):
    """p-side weights (..., T) of slash(p1 +- leg momentum) + m.

    Its time part c0 g0-slash + m is written as m (1 + g0) + (c0 - m) g0, so
    c0 and m, nearly equal near rest, cancel in the exact projector 1 + g0.
    c0 - m and p - |q| come from mass differences and sqrt(s) - m =
    p^2/(E1 + m1) + (m1 - m) + E2, with no subtraction of nearly equal
    numbers.
    """
    sq1, sq2, sq3, sq4 = (x * x for x in masses)
    above = p ** 2 / (e1 + masses[0]) + (masses[0] - m) + e2      # sqrt(s) - m
    if name == "s":
        return _stack([np.full_like(above, m), above])
    # 2 sqrt(s) (E1 - E_q) = m1^2 - m2^2 -+ (m3^2 - m4^2), - for t, + for u
    d_energy = (sq1 - sq2) - (sq3 - sq4) if name == "t" else (sq1 - sq2) + (sq3 - sq4)
    weights = [np.full_like(above, m),
               ((d_energy - 2.0 * m * m) - 2.0 * m * above) / (2.0 * (e1 + e2)), q]
    gap_s, gap_0 = _mass_gaps(masses)
    if gap_s or gap_0:          # s = (E1 + E2)^2
        weights.append((gap_s * s + gap_0) / (4.0 * s) / (p + q))
    return _stack(weights)


def _to_helicity_axes(value, order):
    """(..., 4, 4) over the helicities of legs `order` -> (..., 16) [out, in];
    leg k's helicity lands on axis (k + 2) % 4 of (out1, out2, in1, in2)."""
    lead = value.shape[:-2]
    n = len(lead)
    axes = tuple(range(n)) + tuple(n + order.index((j + 2) % 4) for j in range(4))
    return value.reshape(lead + (2,) * 4).transpose(axes).reshape(lead + (16,))


def _currents(tb, tl):
    """bar gamma^mu leg over both legs' terms, (..., Tb * Tl, 4 [h_bar h_leg], 4)."""
    nb, nl = tb.shape[-3], tl.shape[-3]
    cur = current_batch(tb.reshape(tb.shape[:-3] + (2 * nb, 4)),
                        tl.reshape(tl.shape[:-3] + (2 * nl, 4)))
    cur = np.moveaxis(cur.reshape(cur.shape[:-3] + (nb, 2, nl, 2, 4)), -4, -3)
    return cur.reshape(cur.shape[:-5] + (nb * nl, 4, 4))


def _current_pair(legs, spec):
    """Two currents joined by a photon, G (..., K, 16)."""
    j1, j2 = (_currents(legs[bar], legs[leg]) for bar, leg in spec)
    n1, n2 = j1.shape[-3], j2.shape[-3]
    dots = lorentz_dot_batch(j1.reshape(j1.shape[:-3] + (4 * n1, 4)),
                             j2.reshape(j2.shape[:-3] + (4 * n2, 4)))
    dots = np.swapaxes(dots.reshape(dots.shape[:-2] + (n1, 4, n2, 4)), -3, -2)
    return _to_helicity_axes(dots.reshape(dots.shape[:-4] + (n1 * n2, 4, 4)),
                             spec[0] + spec[1])


def _slash_chain(legs, spec, tp):
    """bar eps_a-slash (prop) eps_b-slash leg, G (..., K, 16)."""
    bar, a, b, leg = spec
    tb, tl = legs[bar], legs[leg]
    slash_a = slash_batch(legs[a][..., 0, :, :])                    # (..., h_a, 4, 4)
    slash_b = slash_batch(legs[b][..., 0, :, :])
    left = (tb * _GAMMA0_DIAG)[..., :, None, :, :] @ slash_a[..., None, :, :, :]
    right = tl[..., :, None, :, :] @ np.swapaxes(slash_b, -1, -2)[..., None, :, :, :]
    left = left.reshape(left.shape[:-3] + (4, 4))                   # (..., Tb, [h_a h_bar], 4)
    right = right.reshape(right.shape[:-3] + (4, 4))                # (..., Tl, [h_b h_leg], 4)
    mid = left[..., :, None, :, :] @ tp[..., None, :, :, :]
    value = mid[..., :, :, None, :, :] @ np.swapaxes(right, -1, -2)[..., None, None, :, :, :]
    k = tb.shape[-3] * tp.shape[-3] * tl.shape[-3]
    return _to_helicity_axes(value.reshape(value.shape[:-5] + (k, 4, 4)), (a, bar, b, leg))


@dataclass(frozen=True)
class _Channel:
    """A compiled channel: its numerator is sum_k W_k(p) G_k with G = f(theta) @ tensor."""

    name: str
    sign: float
    spec: tuple
    features: tuple           # keys of its pieces' feature vectors, in piece order
    tensor: np.ndarray        # (F, K * 16)


def _compile(process: ProcessKind, vector_legs=()) -> tuple[_Channel, ...]:
    """The channels of `process` with G as constant tensors over the feature bases.

    The pieces are legs 0..3, then a slash chain's propagator; piece i puts
    its basis on leading axis i, so the contractions return G over the
    product of the bases, in the order of the outer product of the features.
    A leg in `vector_legs` has the unit plane vectors as basis and its own
    number as feature key.
    """
    info = PROCESS_TABLE[process]
    masses = process_masses(process)
    legs = [(k, _VECTOR_BASIS) if k in vector_legs else _leg(k, spec)
            for k, spec in enumerate(info["in"] + info["out"])]
    channels = []
    for name, sign, spec in info["channels"]:
        pieces = legs if len(spec) == 2 else legs + [_propagator(name, masses)]
        n = len(pieces)
        bases = [basis.reshape((1,) * i + basis.shape[:1] + (1,) * (n - 1 - i) + basis.shape[1:])
                 for i, (_, basis) in enumerate(pieces)]
        g = _current_pair(bases, spec) if len(spec) == 2 else _slash_chain(bases, spec, bases[4])
        channels.append(_Channel(name, sign, spec,
                                 tuple(key for key, _ in pieces if key is not None),
                                 np.ascontiguousarray(g.reshape(-1, g.shape[-2] * 16))))
    return tuple(channels)


_COMPILED = {process: _compile(process) for process in ProcessKind}

#: a leg's helicity signs (L, R) under mirror reflection in the scattering
#: plane, which flips every helicity: sigma_z for a fermion, 1 for a photon
_MIRROR_LEG = {"u": (1.0, -1.0), "v": (1.0, -1.0), "photon": (1.0, 1.0)}


def _mirror_signs(pair) -> np.ndarray:
    """Diagonal of D for a pair of legs, over (LL, LR, RL, RR)."""
    first, second = (np.array(_MIRROR_LEG[spec.field]) for spec in pair)
    return np.outer(first, second).ravel()


#: process -> (D_out, D_in) diagonals of the mirror relation obeyed by every
#: amplitude matrix, M = D_out XX M XX D_in with XX = sigma_x (x) sigma_x
#: (LL <-> RR, LR <-> RL): diag(1, -1, -1, 1) for a fermion pair, 1 for a
#: photon pair, diag(1, 1, -1, -1) for an electron and a photon
MIRROR_SIGNS = {process: (_mirror_signs(info["out"]), _mirror_signs(info["in"]))
                for process, info in PROCESS_TABLE.items()}


def helicity_amplitudes_batch(process: ProcessKind, p, theta, photon_vectors=None,
                              invariants=None):
    """(total (..., 4, 4), channels, divergent mask (...)) over p and theta.

    p and theta broadcast against each other; the outputs have their
    broadcast shape. `photon_vectors` maps a photon leg (0..3 = in1, in2,
    out1, out2) to a (..., 4) in-plane vector used in place of its
    polarization vectors, for both helicities; substituting the photon
    momentum checks the Ward identity. `invariants` is what
    `mandelstam_batch(process, p, theta)` returns, passed by a caller that
    has already formed it; by default the engine forms it.
    """
    masses = process_masses(process)
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast(p, theta).shape
    p, theta = _once(p), _once(theta)
    if invariants is None:
        invariants = mandelstam_batch(process, p, theta)
    s, t, u, e1, e2, _, _, q = invariants
    denominators = {"s": s, "t": t, "u": u}
    vectors = photon_vectors or {}
    compiled = _compile(process, vectors) if vectors else _COMPILED[process]
    features = _Features({k: plane_vector(vec) for k, vec in vectors.items()}, theta=theta)
    momenta = (p, p, q, q)
    weights = {}            # fermion legs' weights, by (mass, outgoing)

    def leg_weights(k):
        key = (masses[k], k > 1)
        if key not in weights:
            weights[key] = _leg_weights(masses[k], momenta[k])
        return weights[key]

    channels = {}
    divergent = np.zeros(shape, dtype=bool)
    pole = POLE_RTOL * s
    for channel in compiled:
        g = (features[channel.features][..., None, :] @ channel.tensor)[..., 0, :]
        g = g.reshape(g.shape[:-1] + (channel.tensor.shape[-1] // 16, 16))
        spec = channel.spec
        if len(spec) == 2:
            m_prop = 0.0
            (b1, l1), (b2, l2) = spec
            w = _outer(_outer(leg_weights(b1), leg_weights(l1)),
                       _outer(leg_weights(b2), leg_weights(l2)))
        else:
            m_prop = masses[spec[0]]
            w = _outer(_outer(leg_weights(spec[0]), _propagator_weights(
                channel.name, masses, m_prop, p, q, e1, e2, s)), leg_weights(spec[3]))
        den = denominators[channel.name] - m_prop ** 2
        if den.shape != shape:
            den = np.broadcast_to(den, shape)
        divergent |= np.abs(den) < pole
        value = (w[..., None, :] @ g)[..., 0, :]
        # points on a pole give inf/nan here; the divergent mask flags them
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = channel.sign * DEFAULT.e2 / den
            channels[channel.name] = (coef[..., None] * value).reshape(shape + (4, 4))
    first, *rest = channels.values()
    return (sum(rest, first) if rest else first.copy()), channels, divergent


def amplitude(kin: KinematicPoint) -> AmplitudeMatrix:
    """Helicity amplitude matrix at one kinematic point.

    Raises DivergentKinematicsError on propagator poles (|denominator|
    < 1e-12 s).
    """
    invariants = (kin.s, kin.t, kin.u, *kin.energies, kin.q_out)
    total, channels, divergent = helicity_amplitudes_batch(
        kin.process, np.array([kin.p]), np.array([kin.theta]),
        invariants=tuple(np.array([x]) for x in invariants))
    if bool(divergent[0]):
        raise DivergentKinematicsError(
            f"{kin.process.value}: propagator pole at p={kin.p}, theta={kin.theta}")
    return AmplitudeMatrix(total[0], kin, {k: v[0] for k, v in channels.items()})
