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
* a photon leg is its polarization vectors, P0 + cos(theta) Pc
  + sin(theta) Ps (`dirac.POLARIZATION_PARTS`), with weight 1, conjugated
  when outgoing;
* the propagator slash(p1 - q) + m of a t or u channel, q the momentum of
  outgoing leg 2 or 3 with direction khat, is (E1 - E_q) g0-slash
  + (p - |q|) z-slash + |q| (z - khat)-slash + m; an s channel's
  slash(p1 + p2) + m is sqrt(s) g0-slash + m.

A channel's numerator is then sum_k W_k(p) G_k(theta) with K <= 16 terms,
G holding the 16 helicity configurations of each term on the (out1, out2,
in1, in2) axes. Every theta-side piece is a polynomial in the half angle,
stored as its coefficients over the monomials c^(D - j) s^j, j = 0..D, with
(c, s) = (cos, sin)(theta/2):

* an incoming leg or an s-channel propagator: D = 0, constant;
* an outgoing spinor: D = 1, linear in (c, s);
* an outgoing photon or a t or u propagator: D = 2, from its terms in 1,
  cos theta and sin theta (the propagator's (z -+ khat)-slash slot) through
  1 = c^2 + s^2, cos theta = c^2 - s^2 and sin theta = 2 c s (`_half_angle`).

Leg 3, at theta + pi, has the same monomials as leg 2: its half angle
(-sin, cos)(theta/2) and direction -khat(theta) are folded into its basis.

So a channel's G(theta) is a polynomial whose degree is the sum of its
pieces', G = f(theta) @ T with f_j = c^(D - j) s^j and T a constant tensor.
`_compile` builds one T per process, at import, by running the current and
slash-chain contractions on the pieces' bases, each on its own broadcast
axis, and collecting the coefficients by total power of s. A channel of
lower degree than the process's is multiplied by c^2 + s^2 = 1, and the
channels stack on one channel axis: T is (D + 1, C * K * 16). A channel
with fewer terms is padded to K with zero tensors and unit weights. A call
then forms the invariants, the powers of c and s once per distinct angle,
one G = f @ T, one product giving every channel's p-side weights W (an
index table into one vector of weight terms), one W @ G over the channel
axis, and one multiply by each channel's sign e^2 / denominator; the total
is channel 0 + channel 1 (a copy of a single-channel process's one
channel) and the `channels` dict holds views into that array. A current
pair's denominator is its invariant x. A slash chain's x - m1^2, with m1
the mass of leg 0 and of the chain's fermion, is (p1 +- k)^2 - m1^2 =
+-2 |k| (m1^2/(E1 + p) + 2 p h^2), k the massless photon of leg 1, 2 or 3
and h = 1, sin(theta/2) or cos(theta/2) for s, t or u
(`_CHAIN_DENOMINATORS`): x itself would lose its digits to m1^2 at
low p. m1^2/(E1 + p) and 2 p are formed once per call for all chains,
and only in a process that has them. The matmuls are stacked per item, so
a point gives the same bits at any batch size, zero-dimensional p and
theta included (`amplitude` passes those, whose p-side arithmetic is numpy
scalar math; squares and powers are products, never `**`, which is pow()
on a scalar). On a scan, theta is a column of grid rows and p a row of grid
momenta; `find_threshold` passes a p vector against a zero-dimensional
theta; a flat point list is the case where both have one entry per point,
and all of them give the same bits. An axis along which an argument is
a broadcast view (stride 0) is evaluated once. Each photon leg also has a
gauge variant, compiled at import: its polarization vectors replaced by its
direction k / E = (1, khat), on the same monomials. The p side is laid out
once per process, also at import: `_compile` builds the function that forms
the weight terms next to the index table that reads them. A new leg type
supplies its weight terms there and its half-angle basis in `_leg`.

Feynman gauge photon propagator -i g_munu / q^2, vertices -i e gamma^mu,
fermion propagators i (qslash + m) / (q^2 - m^2).
"""
from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Callable

import numpy as np

from .constants import DEFAULT
from .dirac import (GAMMA0, IDENTITY4, PLANE_CONJ, POLARIZATION_PARTS, current_batch,
                    lorentz_dot_batch, slash_batch, spinor_parts)
from .errors import DivergentKinematicsError
from .kinematics import (PROCESS_TABLE, KinematicPoint, ProcessKind,
                         mandelstam_batch, process_masses)

#: a point within POLE_TOL [rad] of a pole ray, modulo 2 pi, is divergent
POLE_TOL = 1e-9

#: diagonal of gamma^0: the Dirac adjoint of a real spinor is u * _GAMMA0_DIAG
_GAMMA0_DIAG = np.diag(GAMMA0).real


def _half_angle(b1, b_cos, b_sin) -> np.ndarray:
    """B1 + cos(theta) B_cos + sin(theta) B_sin over (c^2, c s, s^2), with
    (c, s) = (cos, sin)(theta/2): 1 = c^2 + s^2, cos = c^2 - s^2, sin = 2 c s."""
    return np.stack([b1 + b_cos, 2.0 * b_sin, b1 - b_cos])


#: leg bases (D + 1, T, 2, 4): row j is the coefficient of c^(D - j) s^j at
#: the half angle (c, s) = (cos, sin)(theta/2). Incoming spinors and photon
#: vectors, along +z and -z, are constant (D = 0)
_SPINORS_IN = {field: (spinor_parts(field, 1.0, 0.0)[None], spinor_parts(field, 0.0, 1.0)[None])
               for field in "uv"}
#: outgoing spinors (D = 1) of legs 2 and 3: spinor parts are c A + s B at
#: half angle (c, s), with A and B those of legs 0 and 1, so the basis is
#: (A, B) for leg 2 and (B, -A) for leg 3 at (-s, c)
_SPINORS_OUT = {field: (np.concatenate([a, b]), np.concatenate([b, -a]))
                for field, (a, b) in _SPINORS_IN.items()}
#: gauged -> bases of photon legs 0..3, whose vectors at direction theta are
#: P0 + cos(theta) Pc + sin(theta) Ps: the polarization vectors or, gauged,
#: the direction (1, khat) = e0 + cos e_z + sin e_x for both helicities.
#: Legs 0 and 1, at theta = 0 and pi, are constant; legs 2 and 3 (D = 2) are
#: conjugated, with Pc and Ps negated for leg 3 at -khat
_PHOTONS = {gauged: tuple((parts[0] + c * parts[1])[None, None] for c in (1.0, -1.0))
            + tuple(_half_angle(*(parts * np.array([1.0, sign, sign])[:, None, None]
                                  * PLANE_CONJ)[:, None])
                    for sign in (1.0, -1.0))
            for gauged, parts in ((False, POLARIZATION_PARTS),
                                  (True, np.repeat(np.eye(4)[[0, 3, 1], None], 2, axis=1)))}

_SLASH_T = slash_batch(np.array([1.0, 0.0, 0.0, 0.0]))
_SLASH_X = slash_batch(np.array([0.0, 1.0, 0.0, 0.0]))
_SLASH_Z = slash_batch(np.array([0.0, 0.0, 0.0, 1.0]))
_ZERO4 = np.zeros((4, 4))
#: propagator bases (D + 1, T, 4, 4): terms 1 + g0 and g0-slash for an s
#: channel (D = 0); for t and u (D = 2) also the (z -+ khat)-slash slot and
#: z-slash, with khat = (sin theta, 0, cos theta)
_PROPAGATOR_S = np.stack([IDENTITY4 + _SLASH_T, _SLASH_T])[None]
_PROPAGATOR_TU = {name: _half_angle(np.stack([IDENTITY4 + _SLASH_T, _SLASH_T, _SLASH_Z, _SLASH_Z]),
                                    sign * np.stack([_ZERO4, _ZERO4, _SLASH_Z, _ZERO4]),
                                    sign * np.stack([_ZERO4, _ZERO4, _SLASH_X, _ZERO4]))
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
    """Equal-shape arrays stacked along a new last axis, as a view (np.stack at a
    seventh of its overhead)."""
    a = np.array(arrays)
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


_HALF = np.array([0.5, 0.0])


def _half_angles(theta: np.ndarray) -> np.ndarray:
    """(c, 1, s, 0) on a last axis: the cos and sin of theta/2 and 0 (`_HALF`)."""
    half = theta[..., None] * _HALF
    return np.concatenate([np.cos(half), np.sin(half)], axis=-1)


def on_pole(process: ProcessKind, theta, trig=None) -> np.ndarray:
    """Whether theta is within POLE_TOL, modulo 2 pi, of a pole ray: 0 for a t
    and pi for a u channel of two currents (no other channel vanishes at
    p > 0), where |sin| or |cos|(theta/2), `trig` if given, is below POLE_TOL / 2."""
    if trig is None:
        trig = _half_angles(np.asarray(theta, dtype=float))
    return (np.abs(trig) < 0.5 * POLE_TOL) @ _COMPILED[process, None].poles


def _leg(k, spec, gauged=False):
    """Leg k's theta side: its basis (D + 1, T, 2, 4) over c^(D - j) s^j.

    The helicity axis is ordered L, R. Incoming legs (k = 0, 1) run along +z
    and -z, outgoing legs (k = 2, 3) at theta and theta + pi, the latter
    taken as the half angle (-sin, cos)(theta/2) and the direction -khat(theta),
    so theta + pi is never rounded. A `gauged` photon leg has its direction
    in place of its polarization vectors.
    """
    if spec.field == "photon":
        return _PHOTONS[gauged][k]
    if k < 2:
        return _SPINORS_IN[spec.field][k]
    return _SPINORS_OUT[spec.field][k - 2]


def _mass_gaps(masses):
    """s (p^2 - |q|^2) = s gap_s / 4 + gap_0 / 4, from the two Kallen functions."""
    sq1, sq2, sq3, sq4 = (x * x for x in masses)
    return 2.0 * (sq3 + sq4 - sq1 - sq2), (sq1 - sq2) ** 2 - (sq3 - sq4) ** 2


def _propagator(name, masses):
    """theta side of slash(p1 +- leg momentum) + m: its basis (D + 1, T, 4, 4)
    over c^(D - j) s^j.

    The z-slash term is left out where its weight vanishes for every p
    (equal masses)."""
    if name == "s":
        return _PROPAGATOR_S
    basis = _PROPAGATOR_TU[name]
    return basis if any(_mass_gaps(masses)) else basis[:, :3]


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


def _grid(*axes) -> np.ndarray:
    """Every combination of one entry per axis, i-major: (len(axes), product of lengths)."""
    return np.array(list(itertools.product(*axes)), dtype=np.intp).T


#: a slash chain's x - m1^2 = (p1 +- k)^2 - m1^2 = f |k| (m1^2/(E1 + p) + 2 p h^2),
#: k the photon of leg 1, 2 or 3 for s, t or u, with no cancellation at low p:
#: name -> (f, index of |k| = E_k into the invariants, index of h into (c, 1, s, 0))
_CHAIN_DENOMINATORS = {"s": (2.0, 4, 1), "t": (-2.0, 5, 2), "u": (-2.0, 6, 0)}


@dataclass(frozen=True)
class _Compiled:
    """A process's channels on one channel axis c: channel c's numerator is
    sum_k W[c, k](p) G[c, k](theta), with G = f(theta) @ tensor and f_j =
    cos(theta/2)^(D - j) sin(theta/2)^j, j = 0..D."""

    names: tuple              # channel names, in PROCESS_TABLE order
    monomials: np.ndarray     # (D, 2, D + 1) indices into (c, 1, s, 0): f_j = c^(D - j) s^j is
                              # the product down [:, 0, j] times the product down [:, 1, j]
    tensor: np.ndarray        # (D + 1, C * K * 16)
    top: np.ndarray           # its columns of rows 0 and 1 of M, (D + 1, C * K * 8)
    weight_terms: Callable    # (p, invariants) -> the p-side weight terms (..., V)
    weights: np.ndarray       # (4, C, K) indices into `weight_terms`; W = (w0 w1)(w2 w3)
    denominators: tuple       # per channel, (0, x, _) for two currents or a chain's
                              # `_CHAIN_DENOMINATORS` (f, k, h); x and k index the invariants
    poles: np.ndarray         # which of (c, 1, s, 0) vanish on a pole ray: s for a t, c for
                              # a u channel of two currents; bool, for a matmul's any()
    m1_sq: float | None       # m1^2, m1 the mass of leg 0, the slash chains' fermion;
                              # None without slash chains
    scale: np.ndarray         # (C,) sign e^2


def _compile(process: ProcessKind, gauge=None) -> _Compiled:
    """The channels of `process`, with G as one constant tensor over the
    half-angle monomials and W as an index table into its weight terms.

    The pieces are legs 0..3, then a slash chain's propagator. Piece i puts
    its basis on leading axis i, so the contractions return G for every
    choice of one row j_i per piece: a coefficient of c^(D - j) s^j, with
    j = sum j_i and D the sum of the pieces' degrees. A channel's polynomial
    sums these by j. A channel of lower degree than the process's is
    multiplied by c^2 + s^2 = 1, and a channel with fewer terms K is padded
    with zero G and unit W. Leg `gauge`, a photon, is gauged (`_leg`).

    The weight terms, in the order `weight_terms` returns them, are
    sqrt(E + m) of each fermion leg, then |k| / sqrt(E + m) of each; with
    slash chains, whose fermion must have leg 0's mass m1, also 1, m1,
    sqrt(s) - m1, |q|, c0 - m1 of each t or u chain and, with unequal
    masses, p - |q|. A chain's propagator slash(p1 +- leg momentum) + m1 has
    its time part c0 g0-slash + m1 written as m1 (1 + g0) + (c0 - m1) g0, so
    c0 and m1, nearly equal near rest, cancel in the exact projector 1 + g0:
    an s channel's terms are m1 and sqrt(s) - m1, a t or u channel's m1,
    c0 - m1, |q| and p - |q|. c0 - m1 and p - |q| come from mass differences
    and sqrt(s) - m1 = p^2/(E1 + m1) + E2, with no subtraction of nearly
    equal numbers.
    """
    info = PROCESS_TABLE[process]
    masses = process_masses(process)
    specs = info["in"] + info["out"]
    legs = [_leg(k, spec, k == gauge) for k, spec in enumerate(specs)]
    channels = info["channels"]
    if not 1 <= len(channels) <= 2:
        raise ValueError(f"{process.value}: the engine combines one or two channels")
    m1 = masses[0]
    for name, _, spec in channels:
        photon = "stu".index(name) + 1          # the leg the propagator adds or takes
        if len(spec) == 4 and (masses[spec[0]] != m1 or masses[photon] != 0.0):
            raise ValueError(f"{process.value}: the {name} chain needs leg 0's fermion mass "
                             f"and a massless leg {photon}")
    fermions = [k for k, spec in enumerate(specs) if spec.field != "photon"]
    chains = [name for name, _, spec in channels if len(spec) == 4]
    tu = sorted(set(chains) - {"s"})
    gap = _mass_gaps(masses) if tu and any(_mass_gaps(masses)) else ()
    # slots: a fermion leg's two terms at i and nf + i; one holds the
    # constant 1, followed by m1, sqrt(s) - m1, |q|, the c0 - m1 and p - |q|
    nf, one = len(fermions), 2 * len(fermions)
    leg_masses = np.array([masses[k] for k in fermions])
    sq1, sq2, sq3, sq4 = (x * x for x in masses)
    # 2 sqrt(s) (c0 - m1) = d_energy - 2 m1 (sqrt(s) - m1), from 2 sqrt(s) c0 =
    # m1^2 - m2^2 -+ (m3^2 - m4^2), - for t, + for u
    d_energy = np.array([(sq1 - sq2) + (-1.0 if name == "t" else 1.0) * (sq3 - sq4)
                         - 2.0 * m1 * m1 for name in tu])

    def weight_terms(p, invariants):
        s, _, _, e1, e2, e3, e4, q = invariants
        x = _stack([(e1, e2, e3, e4)[k] for k in fermions] + [(p, p, q, q)[k] for k in fermions])
        root = np.sqrt(x[..., :nf] + leg_masses)
        terms = [root, x[..., nf:] / root]
        if chains:
            above = p * p / (e1 + m1) + e2
            terms += [np.full(above.shape + (2,), (1.0, m1)), _stack((above, q)),
                      (d_energy - (2.0 * m1) * above[..., None]) / (2.0 * (e1 + e2))[..., None]]
        if gap:                 # s = (E1 + E2)^2
            gap_s, gap_0 = gap
            terms.append(((gap_s * s + gap_0) / (4.0 * s) / (p + q))[..., None])
        return np.concatenate(terms, axis=-1)

    def leg_terms(k):
        return fermions.index(k), nf + fermions.index(k)

    def propagator_terms(name):
        if name == "s":
            return one + 1, one + 2
        return (one + 1, one + 4 + tu.index(name), one + 3) + ((one + 4 + len(tu),) if gap else ())

    polys, factors = [], []
    for name, _, spec in channels:
        pieces = legs + [_propagator(name, masses)] if len(spec) == 4 else legs
        n = len(pieces)
        bases = [basis.reshape((1,) * i + basis.shape[:1] + (1,) * (n - 1 - i) + basis.shape[1:])
                 for i, basis in enumerate(pieces)]
        if len(spec) == 2:
            g = _current_pair(bases, spec)
            factors.append(_grid(*(leg_terms(k) for pair in spec for k in pair)))
        else:
            g = _slash_chain(bases, spec, bases[4])
            factors.append(_grid(leg_terms(spec[0]), propagator_terms(name),
                                 leg_terms(spec[3]), (one,)))
        # the power of s of each choice of rows, and the sum over each power
        order = np.indices([len(basis) for basis in pieces]).sum(axis=0).ravel()
        poly = (order == np.arange(order.max() + 1)[:, None]) @ g.reshape(order.size, -1)
        polys.append(poly.reshape(-1, *g.shape[-2:]))
    # every channel on the channel axis; the rest of the tensor, padding
    # included, is zero
    degree = max(len(poly) for poly in polys) - 1
    k_max = max(poly.shape[1] for poly in polys)
    tensor = np.zeros((degree + 1, len(polys), k_max, 16))
    for c, poly in enumerate(polys):
        while len(poly) <= degree:                                  # times c^2 + s^2
            zero = np.zeros((2,) + poly.shape[1:])
            poly = np.concatenate([poly, zero]) + np.concatenate([zero, poly])
        tensor[:, c, :poly.shape[1]] = poly
    # padding, which only a process with slash chains needs, reads the constant 1
    weights = np.full((4, len(polys), k_max), one, dtype=np.intp)
    for c, factor in enumerate(factors):
        weights[:, c, :factor.shape[1]] = factor
    step, power = np.arange(degree)[:, None], np.arange(degree + 1)
    return _Compiled(
        names=tuple(name for name, _, _ in channels),
        monomials=np.stack([np.where(step < degree - power, 0, 1),
                            np.where(step < power, 2, 1)], axis=1),
        tensor=np.ascontiguousarray(tensor.reshape(degree + 1, -1)),
        top=np.ascontiguousarray(tensor[..., :8].reshape(degree + 1, -1)),
        weight_terms=weight_terms,
        weights=weights,
        denominators=tuple(_CHAIN_DENOMINATORS[name] if len(spec) == 4
                           else (0.0, "stu".index(name), None) for name, _, spec in channels),
        poles=np.isin(["u", "", "t", ""], [name for name, _, spec in channels if len(spec) == 2]),
        m1_sq=m1 * m1 if chains else None,
        scale=np.array([sign * DEFAULT.e2 for _, sign, _ in channels]))


#: (process, None or a photon leg) -> its channels, plain or with that leg gauged
_COMPILED = {(process, gauge): _compile(process, gauge)
             for process, info in PROCESS_TABLE.items()
             for gauge in [None] + [k for k, spec in enumerate(info["in"] + info["out"])
                                    if spec.field == "photon"]}


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


def helicity_amplitudes_batch(process: ProcessKind, p, theta, gauge=None, invariants=None,
                              rows=4):
    """(total (..., rows, 4), channels, `on_pole` mask (...)) over p and theta.

    p and theta broadcast against each other; the outputs have their
    broadcast shape, () for zero-dimensional p and theta (a (4, 4) total
    and a numpy bool), and each channel is a view into one (..., C, 4, 4)
    array. `gauge`, a photon leg (0..3 = in1, in2, out1, out2), replaces
    that leg's polarization vectors, for both helicities, by its direction
    k / E, so E times the result is M(eps -> k), which the Ward identity
    makes zero; any other leg raises ValueError. `invariants` is what
    `mandelstam_batch(process, p, theta)` returns, passed by a caller that
    has already formed it; by default the engine forms it. `rows` = 2
    forms rows 0 and 1 of M alone, contracting only their 8 columns of the
    compiled tensor, with the bits of the full matrix's rows 0 and 1: what
    the mirror blocks read (`qstate._evolve_blocks`).
    """
    compiled = _COMPILED.get((process, gauge))
    if compiled is None:
        raise ValueError(f"{process.value}: leg {gauge!r} is not a photon leg")
    if rows not in (2, 4):
        raise ValueError(f"rows must be 2 or 4, got {rows!r}")
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast(p, theta).shape
    p, theta = _once(p), _once(theta)
    if invariants is None:
        invariants = mandelstam_batch(process, p, theta)
    trig = _half_angles(theta)
    powers = trig[..., compiled.monomials].prod(axis=-3)                      # (..., 2, D + 1)
    f = powers[..., 0, :] * powers[..., 1, :]
    g = (f[..., None, :] @ (compiled.tensor if rows == 4 else compiled.top))[..., 0, :]
    g = g.reshape(g.shape[:-1] + compiled.weights.shape[1:] + (4 * rows,))    # (..., C, K, 4 rows)
    w = compiled.weight_terms(p, invariants)[..., compiled.weights]
    w = (w[..., 0, :, :] * w[..., 1, :, :]) * (w[..., 2, :, :] * w[..., 3, :, :])
    value = (w[..., None, :] @ g)[..., 0, :]                                  # (..., C, 4 rows)
    den = np.empty(shape + compiled.scale.shape)
    if compiled.m1_sq is not None:              # the slash chains' shared terms
        low, two_p = compiled.m1_sq / (invariants[3] + p), 2.0 * p
    for c, (factor, index, h) in enumerate(compiled.denominators):
        if factor:
            h = trig[..., h]
            den[..., c] = factor * invariants[index] * (low + two_p * (h * h))
        else:
            den[..., c] = invariants[index]
    # points on a pole give inf/nan here; the divergent mask flags them
    with np.errstate(divide="ignore", invalid="ignore"):
        channels = ((compiled.scale / den)[..., None] * value).reshape(den.shape + (rows, 4))
    views = [channels[..., c, :, :] for c in range(len(compiled.names))]
    # one or two channels, combined elementwise. A lone channel is copied as
    # channel + 0, which turns -0 into +0 as a sum over the axis would, so
    # the total never aliases a channel view
    total = views[0] + views[1] if len(views) == 2 else views[0] + 0.0
    divergent = on_pole(process, theta, trig)
    divergent = divergent if divergent.shape == shape else np.full(shape, divergent)
    return total, dict(zip(compiled.names, views)), divergent


def amplitude(kin: KinematicPoint) -> AmplitudeMatrix:
    """Helicity amplitude matrix at one kinematic point: the engine on
    zero-dimensional p and theta, with the point's invariants.

    Raises DivergentKinematicsError on a propagator pole (`on_pole`).
    """
    invariants = tuple(np.array([kin.s, kin.t, kin.u, *kin.energies, kin.q_out]))
    total, channels, divergent = helicity_amplitudes_batch(
        kin.process, np.asarray(kin.p), np.asarray(kin.theta), invariants=invariants)
    if divergent:
        raise DivergentKinematicsError(
            f"{kin.process.value}: propagator pole at p={kin.p}, theta={kin.theta}")
    return AmplitudeMatrix(total, kin, channels)
