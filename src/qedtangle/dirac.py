"""Gamma-matrix and helicity-spinor algebra.

Conventions (documented so Bell-state phases are reproducible):

* Metric (+,-,-,-); Dirac (standard) representation:
  gamma^0 = diag(1,1,-1,-1), gamma^i = [[0, sigma_i], [-sigma_i, 0]],
  gamma5 = i g0 g1 g2 g3.
* Two-component helicity spinors, Jacob-Wick style, in the phi = 0 plane,
      chi_+(theta) = ( cos(theta/2),  sin(theta/2) )
      chi_-(theta) = ( -sin(theta/2),  cos(theta/2) ),
  so (sigma . phat) chi_± = ± chi_±.  R means helicity +, L helicity -.
* u(p, h) = ( sqrt(E+m) chi_h, ±sqrt(E-m) chi_h ) with + for R, - for L;
  normalisation ubar u = 2m, u+ u = 2E. The builders take |p| and form
  sqrt(E-m) as |p|/sqrt(E+m), which keeps its digits at low p.
* v spinors are labelled by the *physical* helicity of the antiparticle:
  v(p, R) = ( -sqrt(E-m) chi_-, sqrt(E+m) chi_- ),
  v(p, L) = ( +sqrt(E-m) chi_+, sqrt(E+m) chi_+ ),
  giving vbar v = -2m and (Sigma . phat) v(h) = -(h) v(h).
* Photon helicity vectors eps(±, khat=z) = ∓(0, 1, ±i, 0)/sqrt(2), rotated to
  direction theta with e_theta, e_phi.

Everything lives in the phi = 0 scattering plane; the builders therefore
take a bare polar angle, which may be any real number (theta + pi for the
recoiling particle, theta > pi for the lower half plane). The resulting
spinors are real and smooth in theta everywhere, including theta = pi.
`u_batch` and `v_batch` are sqrt(E+m) * large + |p|/sqrt(E+m) * small, with
the weights from `spinor_weights` (momentum only) and the parts from
`spinor_parts` (angle only, linear in cos and sin of theta/2); photon
vectors are linear in cos and sin of theta (`polarizations`). The amplitude
engine uses the same split to contract spinors once per angle.
A 4-vector's y component is then zero (momenta) or imaginary (photon
vectors), so it is stored as the real *plane vector* (v^0, v^x, Im v^y, v^z).
With PLANE_GAMMA = (g0, g1, -i g2, g3), real, and PLANE_METRIC =
(+,-,+,-), slash(v) = sum_mu PLANE_METRIC PLANE_GAMMA^mu v_mu, a.b = sum_mu
PLANE_METRIC a_mu b_mu, and ubar PLANE_GAMMA^mu u' is the plane form of
ubar gamma^mu u'; all are real. Conjugating a plane vector flips slot 2
(PLANE_CONJ).

For its legs the amplitude engine reads only `spinor_parts` and
`POLARIZATION_PARTS`. `u_batch`, `v_batch` and `eps_batch` are off its path
and stay for two callers: tests check the conventions above against them,
and the benchmark's tracer (`perfbench/tracer.py`) times them by name.
"""
from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# constant matrices

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

GAMMA = np.stack([np.block([[_I2, _Z2], [_Z2, -_I2]])]     # (4,4,4): [mu, a, b]
                 + [np.block([[_Z2, s], [-s, _Z2]]) for s in (_SX, _SY, _SZ)])
GAMMA0, GAMMA1, GAMMA2, GAMMA3 = GAMMA
GAMMA5 = 1j * GAMMA0 @ GAMMA1 @ GAMMA2 @ GAMMA3
METRIC = np.array([1.0, -1.0, -1.0, -1.0])
IDENTITY4 = np.eye(4)

PLANE_GAMMA = np.stack([GAMMA0, GAMMA1, -1j * GAMMA2, GAMMA3]).real
PLANE_METRIC = np.array([1.0, -1.0, 1.0, -1.0])
PLANE_CONJ = np.array([1.0, 1.0, -1.0, 1.0])

# slash(v) = v @ _SLASH, reshaped to (..., 4, 4)
_SLASH = (PLANE_METRIC[:, None, None] * PLANE_GAMMA).reshape(4, 16)
# ubar PLANE_GAMMA^mu u' = u^T (g0 PLANE_GAMMA^mu) u'; [b, (a, mu)] after the transpose
_CURRENT = (PLANE_GAMMA[0] @ PLANE_GAMMA).transpose(2, 1, 0).reshape(4, 16)


# ---------------------------------------------------------------------------
# batch builders (phi = 0 scattering plane); theta may be any real array

def _helicity(hel: str) -> int:
    """Index of helicity 'L' or 'R' on a helicity axis ordered L, R."""
    if hel not in ("L", "R"):
        raise ValueError(f"helicity must be 'L' or 'R', got {hel!r}")
    return "LR".index(hel)


def _parts_at(field: str, c: float, s: float) -> np.ndarray:
    """spinor_parts at one half angle with cosine c and sine s."""
    chi_l, chi_r = [-s, c], [c, s]
    zero = [0.0, 0.0]
    if field == "u":        # ( chi_h, 0 ) and ( 0, ±chi_h ), + for R
        return np.array([[chi_l + zero, chi_r + zero],
                         [zero + [s, -c], zero + chi_r]])
    if field == "v":        # ( 0, chi_-h ) and ( ∓chi_-h, 0 ), - for R
        return np.array([[zero + chi_r, zero + chi_l],
                         [chi_r + zero, [s, -c] + zero]])
    raise ValueError(f"spinor field must be 'u' or 'v', got {field!r}")


#: the parts at half angle (c, s) are c * A + s * B, with A, B the parts at 0 and pi
_PARTS_AB = {field: (_parts_at(field, 1.0, 0.0), _parts_at(field, 0.0, 1.0))
             for field in "uv"}


def spinor_parts(field: str, c, s) -> np.ndarray:
    """Large and small parts of u or v spinors, (..., 2 [large, small], 2 [L, R], 4).

    c and s are cos(theta/2) and sin(theta/2) of the direction theta. A spinor
    of momentum |p| and energy E is sqrt(E + m) * large + |p|/sqrt(E + m) * small;
    both parts are linear in (c, s), so the spinor at theta + pi is the one at
    (-s, c).
    """
    a, b = _PARTS_AB[field]
    return (np.asarray(c, dtype=float)[..., None, None, None] * a
            + np.asarray(s, dtype=float)[..., None, None, None] * b)


def spinor_weights(mass: float, momentum) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(E + m), sqrt(E - m)), the latter as |p| / sqrt(E + m)."""
    momentum = np.asarray(momentum, dtype=float)
    wp = np.sqrt(np.sqrt(momentum ** 2 + mass ** 2) + mass)
    return wp, momentum / wp


def _spinor_batch(field, mass, momentum, theta, hel):
    half = 0.5 * np.asarray(theta, dtype=float)
    large, small = np.moveaxis(
        spinor_parts(field, np.cos(half), np.sin(half))[..., _helicity(hel), :], -2, 0)
    wp, wm = spinor_weights(mass, momentum)
    return wp[..., None] * large + wm[..., None] * small


def u_batch(mass: float, momentum: np.ndarray, theta: np.ndarray, hel: str) -> np.ndarray:
    """u spinors for on-shell particles of momentum |p|, direction theta, (N, 4)."""
    return _spinor_batch("u", mass, momentum, theta, hel)


def v_batch(mass: float, momentum: np.ndarray, theta: np.ndarray, hel: str) -> np.ndarray:
    """v spinors labelled by physical antiparticle helicity, (N, 4)."""
    return _spinor_batch("v", mass, momentum, theta, hel)


#: polarization vectors at direction theta are P0 + cos(theta) Pc + sin(theta) Ps,
#: (3 [P0, Pc, Ps], 2 [L, R], 4)
POLARIZATION_PARTS = np.array([
    [[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, -1.0, 0.0]],
    [[0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 1.0]]]) / math.sqrt(2.0)


def polarizations(c, s) -> np.ndarray:
    """Photon polarization vectors, plane form (..., 2 [L, R], 4), for the
    direction theta with c = cos(theta) and s = sin(theta).

    eps(±) = ∓ (e_theta ± i e_phi)/sqrt(2) with e_theta = (cos t, 0, -sin t),
    e_phi = (0, 1, 0); time component zero (radiation gauge along k).
    """
    p0, pc, ps = POLARIZATION_PARTS
    return (p0 + np.asarray(c, dtype=float)[..., None, None] * pc
            + np.asarray(s, dtype=float)[..., None, None] * ps)


def eps_batch(theta: np.ndarray, hel: str) -> np.ndarray:
    """Photon polarization vectors for direction theta, plane form (N, 4)."""
    theta = np.asarray(theta, dtype=float)
    return polarizations(np.cos(theta), np.sin(theta))[..., _helicity(hel), :]


def slash_batch(vec: np.ndarray) -> np.ndarray:
    """slash(v) = gamma^mu v_mu of plane vectors (..., 4), real (..., 4, 4)."""
    vec = np.asarray(vec)
    return (vec @ _SLASH).reshape(vec.shape[:-1] + (4, 4))


def current_batch(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Plane currents bar(left_i) gamma^mu right_j of real spinors, (..., i, j, 4)."""
    mid = (right @ _CURRENT).reshape(right.shape[:-1] + (4, 4))     # [j, a, mu]
    return np.swapaxes(left[..., None, :, :] @ mid, -3, -2)


def lorentz_dot_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dots a_i . b_j of plane vectors a (..., i, 4) and b (..., j, 4), (..., i, j)."""
    return (a * PLANE_METRIC) @ np.swapaxes(b, -1, -2)
