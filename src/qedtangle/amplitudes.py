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
in1, in2) axes. Every theta-side tensor is a constant basis contracted with
a short feature vector of its piece:

* an outgoing spinor: (cos, sin)(theta/2);
* an outgoing photon: (1, cos theta, sin theta);
* a t or u propagator: (1, sin theta, sin^2(theta/2)) or (1, sin theta,
  cos^2(theta/2)), which fill its (z -+ khat)-slash slot;
* an incoming leg or an s-channel propagator: constant.

Leg 3, at theta + pi, shares leg 2's features: its half angle
(-sin, cos)(theta/2) and direction -khat(theta) are folded into its basis.

So G(theta) = f(theta) @ T, with f the product of the feature vectors and
T a constant tensor. `_compile` builds one T per process, at import, by
running the current and slash-chain contractions on the feature bases, each
piece's basis on its own broadcast axis, and stacks the channels on one
channel axis: T is (F, C * K * 16). The channels share their legs'
features; a process with slash chains adds one propagator feature, the
union of its channels' columns, and a channel puts its tensor on its own
columns (an s channel, which has none, on the constant 1) and zeros
elsewhere. A channel with fewer terms is padded to K with zero tensors and
unit weights. A call then forms the invariants, the features once per
distinct angle, one product f and one G = f @ T, one product giving every
channel's p-side weights W (an index table into one vector of weight
terms), one W @ G over the channel axis, and one multiply by each channel's
sign e^2 / denominator; the total is the sum over the channel axis and the
`channels` dict holds views into that array. The matmuls are stacked per
item, so a point gives the same bits at any batch size, zero-dimensional
p and theta included (`amplitude` and `find_threshold` pass those, whose
p-side arithmetic is numpy scalar math; squares are products, never
`** 2`, which is pow() on a scalar). On a scan, theta is a column of grid
rows and p a row of grid momenta; a flat point list is the case where both
have one entry per point, and the two give the same bits. An axis along
which an argument is a broadcast view (stride 0) is evaluated once. Each
photon leg also has a gauge variant, compiled at import: its polarization
vectors replaced by its direction k / E = (1, khat) on the same features.
A new leg type supplies its p-side weight terms (`_weight_terms`) and its
feature basis (`_leg`).

Feynman gauge photon propagator -i g_munu / q^2, vertices -i e gamma^mu,
fermion propagators i (qslash + m) / (q^2 - m^2).
"""
from __future__ import annotations

from dataclasses import dataclass
import itertools

import numpy as np

from .constants import DEFAULT
from .dirac import (GAMMA0, IDENTITY4, PLANE_CONJ, POLARIZATION_PARTS, current_batch,
                    lorentz_dot_batch, slash_batch, spinor_parts)
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
#: outgoing legs 2 and 3: spinor parts are c A + s B at half angle (c, s),
#: with A and B those of legs 0 and 1, so the basis is (A, B) for leg 2 and
#: (B, -A) for leg 3 at (-s, c)
_SPINORS_OUT = {field: (np.concatenate([a, b]), np.concatenate([b, -a]))
                for field, (a, b) in _SPINORS_IN.items()}
#: gauged -> bases of photon legs 0..3, whose vectors P0 + c Pc + s Ps at
#: direction (c, s) are the polarization vectors or, gauged, the direction
#: (1, khat) = e0 + c e_z + s e_x for both helicities: legs 0 and 1 at
#: (+-1, 0); legs 2 and 3 conjugated, Pc and Ps negated for leg 3 at -khat
_PHOTONS = {gauged: tuple((parts[0] + c * parts[1])[None, None] for c in (1.0, -1.0))
            + tuple((parts * np.array([1.0, sign, sign])[:, None, None] * PLANE_CONJ)[:, None]
                    for sign in (1.0, -1.0))
            for gauged, parts in ((False, POLARIZATION_PARTS),
                                  (True, np.repeat(np.eye(4)[[0, 3, 1], None], 2, axis=1)))}

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


#: the feature columns of a call (`_columns`): cos and sin of 0, theta/2 and
#: theta, then sin^2 and cos^2 of theta/2; a piece's feature vector is a
#: tuple of column indices
_ONE, _COS_HALF, _COS, _ZERO, _SIN_HALF, _SIN, _SIN_HALF2, _COS_HALF2 = range(8)
_ANGLES = np.array([0.0, 0.5, 1.0])
_SPINOR_FEATURES = (_COS_HALF, _SIN_HALF)
_PHOTON_FEATURES = (_ONE, _COS, _SIN)
_PROPAGATOR_FEATURES = {"t": (_ONE, _SIN, _SIN_HALF2), "u": (_ONE, _SIN, _COS_HALF2)}


def _columns(theta, squares) -> np.ndarray:
    """The feature columns (..., 8) at theta; without `squares` only the first six."""
    angles = theta[..., None] * _ANGLES
    cols = np.concatenate([np.cos(angles), np.sin(angles)], axis=-1)
    if not squares:
        return cols
    return np.concatenate([cols, cols[..., (_SIN_HALF, _COS_HALF)] ** 2], axis=-1)


def _leg(k, spec, gauged=False):
    """Leg k's theta side: (feature columns or None, basis (F, T, 2, 4)).

    The helicity axis is ordered L, R. Incoming legs (k = 0, 1) run along +z
    and -z, outgoing legs (k = 2, 3) at theta and theta + pi, the latter
    taken as the half angle (-sin, cos)(theta/2) and the direction -khat(theta),
    so theta + pi is never rounded. A `gauged` photon leg has its direction
    in place of its polarization vectors.
    """
    if spec.field == "photon":
        return (None if k < 2 else _PHOTON_FEATURES), _PHOTONS[gauged][k]
    if k < 2:
        return None, _SPINORS_IN[spec.field][k]
    return _SPINOR_FEATURES, _SPINORS_OUT[spec.field][k - 2]


def _mass_gaps(masses):
    """s (p^2 - |q|^2) = s gap_s / 4 + gap_0 / 4, from the two Kallen functions."""
    sq1, sq2, sq3, sq4 = (x * x for x in masses)
    return 2.0 * (sq3 + sq4 - sq1 - sq2), (sq1 - sq2) ** 2 - (sq3 - sq4) ** 2


def _propagator(name, masses):
    """theta side of slash(p1 +- leg momentum) + m: (feature columns or None,
    basis (F, T, 4, 4)).

    The z-slash term is left out where its weight vanishes for every p
    (equal masses)."""
    if name == "s":
        return None, _PROPAGATOR_S
    basis = _PROPAGATOR_TU[name]
    return _PROPAGATOR_FEATURES[name], (basis if any(_mass_gaps(masses)) else basis[:, :3])


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


@dataclass(frozen=True)
class _Compiled:
    """A process's channels on one channel axis c: channel c's numerator is
    sum_k W[c, k](p) G[c, k](theta), with G = f(theta) @ tensor."""

    names: tuple              # channel names, in PROCESS_TABLE order
    columns: np.ndarray       # (pieces, F): f is the product over pieces of these columns
    squares: bool             # whether `_columns` forms sin^2 and cos^2 of theta/2
    tensor: np.ndarray        # (F, C * K * 16)
    weights: np.ndarray       # (4, C, K) indices into `_weight_terms`; W = (w0 w1)(w2 w3)
    invariants: tuple         # each channel's invariant, as an index into (s, t, u)
    mass2: np.ndarray         # (C,) propagator mass^2 subtracted from the invariant
    scale: np.ndarray         # (C,) sign e^2
    # what `_weight_terms` needs
    m1: float                 # mass of leg 0
    constants: np.ndarray     # 1 and each slash chain's fermion mass m
    legs: tuple               # one fermion leg per distinct (mass, in or out)
    leg_masses: np.ndarray    # their masses
    offsets: np.ndarray       # m1 - m of each chain
    tu: np.ndarray            # the t and u chains, as indices into the chains
    c1: np.ndarray            # 2 sqrt(s) (E1 - E_q) - 2 m^2 of each t or u chain
    c2: np.ndarray            # 2 m of each t or u chain
    gap: tuple                # `_mass_gaps` when p - |q| is a term, else ()


def _compile(process: ProcessKind, gauge=None) -> _Compiled:
    """The channels of `process`, with G as one constant tensor over the feature bases.

    The pieces are legs 0..3, then a slash chain's propagator; piece i puts
    its basis on leading axis i, so the contractions return G over the
    product of the bases, in the order of the outer product of the features.
    The feature vector f is the product of the legs' features and, when the
    process has slash chains, the union of its propagators' columns: a
    channel puts its tensor on the columns of its own propagator (the
    constant 1 for an s channel) and zeros elsewhere, and a channel with
    fewer terms K is padded with zero G and unit W. Leg `gauge`, a photon,
    is gauged (`_leg`).
    """
    info = PROCESS_TABLE[process]
    masses = process_masses(process)
    specs = info["in"] + info["out"]
    legs = [_leg(k, spec, k == gauge) for k, spec in enumerate(specs)]
    channels = info["channels"]
    keys = {}                 # fermion legs with distinct weights, by (mass, outgoing)
    for k, spec in enumerate(specs):
        if spec.field != "photon":
            keys.setdefault((masses[k], k > 1), k)
    chains = [(name, masses[spec[0]]) for name, _, spec in channels if len(spec) == 4]
    tu = [i for i, (name, _) in enumerate(chains) if name != "s"]
    gap = _mass_gaps(masses) if tu and any(_mass_gaps(masses)) else ()
    # the layout of `_weight_terms`; only slash chains read the constants
    first_leg = 1 + len(chains) if chains else 0
    first_above = first_leg + 2 * len(keys)
    first_d = first_above + len(chains)
    at_q = first_d + len(tu)

    def leg_terms(k):
        slot = first_leg + list(keys).index((masses[k], k > 1))
        return slot, slot + len(keys)

    def propagator_terms(i):
        if chains[i][0] == "s":
            return 1 + i, first_above + i
        return (1 + i, first_d + tu.index(i), at_q) + ((at_q + 1,) if gap else ())

    props = [_propagator(name, masses) if len(spec) == 4 else None for name, _, spec in channels]
    union = sorted({col for prop in props if prop is not None for col in prop[0] or (_ONE,)})
    gs, factors, chain = [], [], iter(range(len(chains)))
    for (name, _, spec), prop in zip(channels, props):
        pieces = legs if prop is None else legs + [prop]
        n = len(pieces)
        bases = [basis.reshape((1,) * i + basis.shape[:1] + (1,) * (n - 1 - i) + basis.shape[1:])
                 for i, (_, basis) in enumerate(pieces)]
        if prop is None:
            g = _current_pair(bases, spec)
            factors.append(_grid(*(leg_terms(k) for pair in spec for k in pair)))
        else:
            g = _slash_chain(bases, spec, bases[4])
            factors.append(_grid(leg_terms(spec[0]), propagator_terms(next(chain)),
                                 leg_terms(spec[3]), (0,)))
        gs.append(g.reshape([basis.shape[0] for _, basis in pieces] + list(g.shape[-2:])))
    # every channel on the channel axis, a chain's propagator columns onto the
    # union; the rest of the tensor, padding included, is zero
    k_max = max(g.shape[-2] for g in gs)
    tensor = np.zeros(gs[0].shape[:len(legs)] + ((len(union),) if union else ())
                      + (len(gs), k_max, 16))
    for c, (g, prop) in enumerate(zip(gs, props)):
        at = (c, slice(0, g.shape[-2]), slice(None))
        if prop is not None:
            at = ([union.index(col) for col in prop[0] or (_ONE,)],) + at
        tensor[(Ellipsis,) + at] = g
    # padding, which only a process with slash chains needs, reads the constant 1
    weights = np.zeros((4, len(gs), k_max), dtype=np.intp)
    for c, factor in enumerate(factors):
        weights[:, c, :factor.shape[1]] = factor
    features = [cols for cols, _ in legs if cols is not None] + ([union] if union else [])
    sq1, sq2, sq3, sq4 = (x * x for x in masses)
    # 2 sqrt(s) (E1 - E_q) = m1^2 - m2^2 -+ (m3^2 - m4^2), - for t, + for u
    d_energy = {"t": (sq1 - sq2) - (sq3 - sq4), "u": (sq1 - sq2) + (sq3 - sq4)}
    return _Compiled(
        names=tuple(name for name, _, _ in channels),
        columns=_grid(*features),
        squares=bool(union),
        tensor=np.ascontiguousarray(tensor.reshape(-1, len(gs) * k_max * 16)),
        weights=weights,
        invariants=tuple("stu".index(name) for name, _, _ in channels),
        mass2=np.array([masses[spec[0]] ** 2 if len(spec) == 4 else 0.0
                        for _, _, spec in channels]),
        scale=np.array([sign * DEFAULT.e2 for _, sign, _ in channels]),
        m1=masses[0],
        constants=np.array([1.0] + [m for _, m in chains] if chains else []),
        legs=tuple(keys.values()),
        leg_masses=np.array([masses[k] for k in keys.values()]),
        offsets=np.array([masses[0] - m for _, m in chains]),
        tu=np.array(tu, dtype=np.intp),
        c1=np.array([d_energy[chains[i][0]] - 2.0 * chains[i][1] * chains[i][1] for i in tu]),
        c2=np.array([2.0 * chains[i][1] for i in tu]),
        gap=gap)


#: (process, None or a photon leg) -> its channels, plain or with that leg gauged
_COMPILED = {(process, gauge): _compile(process, gauge)
             for process, info in PROCESS_TABLE.items()
             for gauge in [None] + [k for k, spec in enumerate(info["in"] + info["out"])
                                    if spec.field == "photon"]}


def _weight_terms(compiled: _Compiled, p, invariants) -> np.ndarray:
    """The p-side weight terms (..., V) that `compiled.weights` indexes.

    They are 1 and each slash chain's fermion mass m; sqrt(E + m) and then
    |k| / sqrt(E + m) of each weight leg; sqrt(s) - m of each chain; then,
    for t and u chains, c0 - m, |q| and, with unequal masses, p - |q|.
    A chain's propagator slash(p1 +- leg momentum) + m has its time part
    c0 g0-slash + m written as m (1 + g0) + (c0 - m) g0, so c0 and m, nearly
    equal near rest, cancel in the exact projector 1 + g0: an s channel's
    terms are m and sqrt(s) - m, a t or u channel's m, c0 - m, |q| and
    p - |q|. c0 - m and p - |q| come from mass differences and sqrt(s) - m =
    p^2/(E1 + m1) + (m1 - m) + E2, with no subtraction of nearly equal
    numbers.
    """
    s, _, _, e1, e2, e3, e4, q = invariants
    energies, momenta = (e1, e2, e3, e4), (p, p, q, q)
    root = np.sqrt(_stack([energies[k] for k in compiled.legs]) + compiled.leg_masses)
    legs = [root, _stack([momenta[k] for k in compiled.legs]) / root]
    if not compiled.offsets.size:           # no slash chains
        return np.concatenate(legs, axis=-1)
    above = ((p * p / (e1 + compiled.m1))[..., None] + compiled.offsets) + e2[..., None]
    terms = [np.full(root.shape[:-1] + compiled.constants.shape, compiled.constants),
             *legs, above]
    if compiled.tu.size:
        terms += [(compiled.c1 - compiled.c2 * above[..., compiled.tu])
                  / (2.0 * (e1 + e2))[..., None], q[..., None]]
    if compiled.gap:            # s = (E1 + E2)^2
        gap_s, gap_0 = compiled.gap
        terms.append(((gap_s * s + gap_0) / (4.0 * s) / (p + q))[..., None])
    return np.concatenate(terms, axis=-1)


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


def helicity_amplitudes_batch(process: ProcessKind, p, theta, gauge=None, invariants=None):
    """(total (..., 4, 4), channels, divergent mask (...)) over p and theta.

    p and theta broadcast against each other; the outputs have their
    broadcast shape, () for zero-dimensional p and theta (a (4, 4) total
    and a numpy bool), and each channel is a view into one (..., C, 4, 4)
    array. `gauge`, a photon leg (0..3 = in1, in2, out1, out2), replaces
    that leg's polarization vectors, for both helicities, by its direction
    k / E, so E times the result is M(eps -> k), which the Ward identity
    makes zero; any other leg raises ValueError. `invariants` is what
    `mandelstam_batch(process, p, theta)` returns, passed by a caller that
    has already formed it; by default the engine forms it.
    """
    compiled = _COMPILED.get((process, gauge))
    if compiled is None:
        raise ValueError(f"{process.value}: leg {gauge!r} is not a photon leg")
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast(p, theta).shape
    p, theta = _once(p), _once(theta)
    if invariants is None:
        invariants = mandelstam_batch(process, p, theta)
    cols = _columns(theta, compiled.squares)[..., compiled.columns]            # (..., pieces, F)
    f = cols[..., 0, :]
    for i in range(1, cols.shape[-2]):          # the outer product, left to right
        f = f * cols[..., i, :]
    g = (f[..., None, :] @ compiled.tensor)[..., 0, :]
    g = g.reshape(g.shape[:-1] + compiled.weights.shape[1:] + (16,))          # (..., C, K, 16)
    w = _weight_terms(compiled, p, invariants)[..., compiled.weights]
    w = (w[..., 0, :, :] * w[..., 1, :, :]) * (w[..., 2, :, :] * w[..., 3, :, :])
    value = (w[..., None, :] @ g)[..., 0, :]                                  # (..., C, 16)
    den = np.empty(shape + compiled.scale.shape)
    for c, index in enumerate(compiled.invariants):
        den[..., c] = invariants[index]
    den -= compiled.mass2
    divergent = (np.abs(den) < (POLE_RTOL * invariants[0])[..., None]).any(axis=-1)
    # points on a pole give inf/nan here; the divergent mask flags them
    with np.errstate(divide="ignore", invalid="ignore"):
        channels = ((compiled.scale / den)[..., None] * value).reshape(den.shape + (4, 4))
    return (channels.sum(axis=-3),
            {name: channels[..., c, :, :] for c, name in enumerate(compiled.names)}, divergent)


def amplitude(kin: KinematicPoint) -> AmplitudeMatrix:
    """Helicity amplitude matrix at one kinematic point: the engine on
    zero-dimensional p and theta, with the point's invariants.

    Raises DivergentKinematicsError on propagator poles (|denominator|
    < 1e-12 s).
    """
    invariants = tuple(np.array([kin.s, kin.t, kin.u, *kin.energies, kin.q_out]))
    total, channels, divergent = helicity_amplitudes_batch(
        kin.process, np.asarray(kin.p), np.asarray(kin.theta), invariants=invariants)
    if divergent:
        raise DivergentKinematicsError(
            f"{kin.process.value}: propagator pole at p={kin.p}, theta={kin.theta}")
    return AmplitudeMatrix(total, kin, channels)
