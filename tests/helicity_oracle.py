"""Independent tree-level helicity amplitudes for the six QED 2->2 processes.

This module is a second implementation of the physics in `qedtangle`,
written to check it. It imports nothing from `qedtangle` and makes its own
choices wherever a convention is free:

* Weyl (chiral) representation, gamma^mu = [[0, sigma^mu], [sigmabar^mu, 0]]
  with sigma^mu = (1, sigma), sigmabar^mu = (1, -sigma); metric (+,-,-,-).
* Spinors u = (sqrt(p.sigma) xi, sqrt(p.sigmabar) xi) and
  v = (sqrt(p.sigma) eta, -sqrt(p.sigmabar) eta). The 2x2 square roots are
  spectral: p.sigma = (E - |p|) P+ + (E + |p|) P-, P+- = (1 +- sigma.phat)/2,
  with E - |p| evaluated as m^2 / (E + |p|) so that no digits cancel at
  high energy.
* Two-spinors are eigenvectors of sigma.phat from `numpy.linalg.eigh`.
  A particle of helicity h uses the eigenvalue 2h; an antiparticle of
  physical helicity h uses -2h (the hole of the opposite spin).
* Photon vectors rotate (0, 1, i lambda, 0)/sqrt(2) from +z to khat, which
  satisfies i khat x eps = lambda eps; incoming photons carry eps, outgoing
  photons eps*.

The phases of these basis vectors differ from `qedtangle`'s, so amplitude
matrices agree only up to rephasing of rows and columns. Compare them with
rephasing invariants (|M_ij| and plaquettes M_ij M_kl M*_il M*_kj), and
compare states only through quantities that local diagonal phases leave
alone: diagonal weights, partial-transpose spectra, and Bell fidelities
maximised over local phases.

Kinematics follow the physical set-up of the package under test: particle 1
enters along +z with momentum p, particle 2 along -z; outgoing particle 1
leaves at polar angle theta in the xz-plane and particle 2 opposite. Two-
particle helicity labels are ordered LL, LR, RL, RR, first letter particle 1;
M has shape (N, 4, 4) indexed [out, in].
"""
import math

import numpy as np

M_E = 0.51099895          # CODATA electron mass [MeV]
M_MU = 105.6583755        # CODATA muon mass [MeV]
E2 = 4.0 * math.pi / 137.035999084

_S0 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = np.stack([_SX, _SY, _SZ])
_Z2 = np.zeros((2, 2), dtype=complex)
GAMMA = np.stack([np.block([[_Z2, s], [sb, _Z2]]) for s, sb in
                  zip([_S0, _SX, _SY, _SZ], [_S0, -_SX, -_SY, -_SZ])])
METRIC = np.array([1.0, -1.0, -1.0, -1.0])

_HEL = {"L": -1, "R": +1}
_PAIRS = [(a, b) for a in "LR" for b in "LR"]

#: (incoming legs, outgoing legs); "ebar" and "mubar" are the antiparticles
PROCESSES = {
    "moller": (("e", "e"), ("e", "e")),
    "muon-pair": (("e", "ebar"), ("mu", "mubar")),
    "annihilation": (("e", "ebar"), ("gamma", "gamma")),
    "bhabha": (("e", "ebar"), ("e", "ebar")),
    "electron-muon": (("e", "mu"), ("e", "mu")),
    "compton": (("e", "gamma"), ("e", "gamma")),
}
_MASS = {"e": M_E, "ebar": M_E, "mu": M_MU, "mubar": M_MU, "gamma": 0.0}


class Leg:
    """An on-shell external particle: mass and 3-momenta of shape (N, 3)."""

    def __init__(self, mass, vec):
        self.m = mass
        self.vec = vec
        self.mag = np.linalg.norm(vec, axis=-1)
        self.e = np.sqrt(self.mag ** 2 + mass ** 2)
        self.hat = vec / self.mag[:, None]

    def four(self):
        return np.concatenate([self.e[:, None], self.vec], axis=-1)


def dot(a: Leg, b: Leg) -> np.ndarray:
    """a.b for on-shell legs without cancellation between E_a E_b and |a||b|.

    E_a E_b - |a||b| = (m_a^2 |b|^2 + m_b^2 |a|^2 + m_a^2 m_b^2)/(E_a E_b + |a||b|)
    and 1 - cos(angle) = |ahat - bhat|^2 / 2.
    """
    gap = ((a.m * b.mag) ** 2 + (b.m * a.mag) ** 2 + (a.m * b.m) ** 2) \
        / (a.e * b.e + a.mag * b.mag)
    one_minus_cos = 0.5 * np.sum((a.hat - b.hat) ** 2, axis=-1)
    return gap + a.mag * b.mag * one_minus_cos


def diff2(a: Leg, b: Leg) -> np.ndarray:
    """(a - b)^2 for on-shell legs without cancellation at small momentum transfer.

    E_a - E_b = ((|a| - |b|)(|a| + |b|) + (m_a - m_b)(m_a + m_b)) / (E_a + E_b)
    and |a - b|^2 = (|a| - |b|)^2 + |a||b| |ahat - bhat|^2.
    """
    de = ((a.mag - b.mag) * (a.mag + b.mag) + (a.m - b.m) * (a.m + b.m)) / (a.e + b.e)
    dvec2 = (a.mag - b.mag) ** 2 + a.mag * b.mag * np.sum((a.hat - b.hat) ** 2, axis=-1)
    return de ** 2 - dvec2


def _sigma_dot(hat):
    return np.einsum('ni,iab->nab', hat, _PAULI)


def _sqrt_pdotsigma(leg: Leg, bar: bool):
    """sqrt(p.sigma) (bar=False) or sqrt(p.sigmabar) (bar=True), (N, 2, 2)."""
    small = leg.m ** 2 / (leg.e + leg.mag)          # E - |p|
    big = leg.e + leg.mag
    proj_plus = 0.5 * (_S0 + _sigma_dot(leg.hat))
    proj_minus = _S0 - proj_plus
    lo, hi = np.sqrt(small), np.sqrt(big)
    if bar:
        lo, hi = hi, lo
    return lo[:, None, None] * proj_plus + hi[:, None, None] * proj_minus


def _two_spinor(hat, sign):
    """Eigenvector of sigma.phat with eigenvalue sign (+1 or -1), (N, 2)."""
    _, vecs = np.linalg.eigh(_sigma_dot(hat))
    return vecs[..., 0 if sign < 0 else 1]


def u_spinor(leg: Leg, hel: str) -> np.ndarray:
    xi = _two_spinor(leg.hat, _HEL[hel])
    return np.concatenate([
        np.einsum('nab,nb->na', _sqrt_pdotsigma(leg, False), xi),
        np.einsum('nab,nb->na', _sqrt_pdotsigma(leg, True), xi)], axis=-1)


def v_spinor(leg: Leg, hel: str) -> np.ndarray:
    eta = _two_spinor(leg.hat, -_HEL[hel])
    return np.concatenate([
        np.einsum('nab,nb->na', _sqrt_pdotsigma(leg, False), eta),
        -np.einsum('nab,nb->na', _sqrt_pdotsigma(leg, True), eta)], axis=-1)


def polarization(leg: Leg, hel: str) -> np.ndarray:
    """Circular polarization four-vector eps^mu(k, lambda), (N, 4)."""
    lam = _HEL[hel]
    theta = np.arccos(np.clip(leg.hat[:, 2], -1.0, 1.0))
    phi = np.arctan2(leg.hat[:, 1], leg.hat[:, 0])
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    zero, one = np.zeros_like(theta), np.ones_like(theta)
    rot_y = np.stack([np.stack([ct, zero, st], -1), np.stack([zero, one, zero], -1),
                      np.stack([-st, zero, ct], -1)], -2)
    rot_z = np.stack([np.stack([cp, -sp, zero], -1), np.stack([sp, cp, zero], -1),
                      np.stack([zero, zero, one], -1)], -2)
    eps_z = np.array([1.0, 1j * lam, 0.0]) / math.sqrt(2.0)
    eps3 = np.einsum('nij,njk,k->ni', rot_z, rot_y, eps_z)
    return np.concatenate([np.zeros((len(theta), 1), dtype=complex), eps3], axis=-1)


def slash(vec):
    """gamma^mu a_mu for (N, 4) contravariant vectors, (N, 4, 4)."""
    return np.einsum('nm,m,mab->nab', np.asarray(vec, dtype=complex), METRIC, GAMMA)


def _bar(psi):
    return psi.conj() @ GAMMA[0]


def _sandwich(left_bar, mid, right):
    return np.einsum('na,nab,nb->n', left_bar, mid, right)


def _current(left, right):
    return np.einsum('na,mab,nb->nm', _bar(left), GAMMA, right)


def _jdot(j, k):
    return np.einsum('nm,m,nm->n', j, METRIC, k)


def kinematics(process: str, p, theta):
    """Incoming and outgoing legs (p1, p2, q1, q2) at COM momentum p, angle theta."""
    (k1, k2), (k3, k4) = PROCESSES[process]
    m1, m2, m3, m4 = (_MASS[k] for k in (k1, k2, k3, k4))
    p, theta = np.broadcast_arrays(np.asarray(p, float), np.asarray(theta, float))
    p, theta = p.ravel(), theta.ravel()
    z = np.zeros_like(p)
    e1, e2 = np.sqrt(p ** 2 + m1 ** 2), np.sqrt(p ** 2 + m2 ** 2)
    root_s = e1 + e2
    # d = sqrt(s) - m3 - m4, with each E - m taken as p^2 / (E + m) so that no
    # digits cancel at low p; then s - (m3 + m4)^2 = d (d + 2 m3 + 2 m4) and
    # s - (m3 - m4)^2 = (d + 2 m3)(d + 2 m4)
    d = p ** 2 / (e1 + m1) + p ** 2 / (e2 + m2) + (m1 + m2 - m3 - m4)
    q = np.sqrt(d * (d + 2.0 * (m3 + m4)) * (d + 2.0 * m3) * (d + 2.0 * m4)) \
        / (2.0 * root_s)
    out = np.stack([q * np.sin(theta), z, q * np.cos(theta)], axis=-1)
    in_ = np.stack([z, z, p], axis=-1)
    return (Leg(m1, in_), Leg(m2, -in_), Leg(m3, out), Leg(m4, -out))


def amplitudes(process: str, p, theta) -> np.ndarray:
    """Tree-level helicity amplitude matrices M[out, in], shape (N, 4, 4).

    `process` is one of PROCESSES; p and theta broadcast against each other.
    """
    p1, p2, q1, q2 = kinematics(process, p, theta)
    n = len(p1.mag)
    amp = np.zeros((n, 4, 4), dtype=complex)
    if process in ("moller", "electron-muon", "bhabha", "muon-pair"):
        anti_in = process in ("bhabha", "muon-pair")
        a1 = {h: u_spinor(p1, h) for h in "LR"}
        a2 = {h: (v_spinor if anti_in else u_spinor)(p2, h) for h in "LR"}
        b1 = {h: u_spinor(q1, h) for h in "LR"}
        b2 = {h: (v_spinor if anti_in else u_spinor)(q2, h) for h in "LR"}
        s = p1.m ** 2 + p2.m ** 2 + 2.0 * dot(p1, p2)
        t, u = diff2(p1, q1), diff2(p1, q2)
        for io, (r1, r2) in enumerate(_PAIRS):
            for ii, (s1, s2) in enumerate(_PAIRS):
                if anti_in:
                    # e-(1) fbar(2) -> f(3) fbar(4); annihilation graph s, scattering graph t
                    m_s = _jdot(_current(a2[s2], a1[s1]), _current(b1[r1], b2[r2])) / s
                    m_t = 0.0
                    if process == "bhabha":
                        m_t = _jdot(_current(b1[r1], a1[s1]), _current(a2[s2], b2[r2])) / t
                    amp[:, io, ii] = E2 * (m_s - m_t)
                else:
                    m_t = _jdot(_current(b1[r1], a1[s1]), _current(b2[r2], a2[s2])) / t
                    m_u = 0.0
                    if process == "moller":
                        m_u = _jdot(_current(b2[r2], a1[s1]), _current(b1[r1], a2[s2])) / u
                    amp[:, io, ii] = E2 * (m_t - m_u)
        return amp
    if process == "annihilation":
        # e-(p1) e+(p2) -> gamma(q1) gamma(q2), electron exchanged in t and u
        u_in = {h: u_spinor(p1, h) for h in "LR"}
        vbar = {h: _bar(v_spinor(p2, h)) for h in "LR"}
        eps1 = {h: slash(polarization(q1, h).conj()) for h in "LR"}
        eps2 = {h: slash(polarization(q2, h).conj()) for h in "LR"}
        m = p1.m
        num_t = slash(p1.four() - q1.four()) + m * np.eye(4)
        num_u = slash(p1.four() - q2.four()) + m * np.eye(4)
        den_t, den_u = -2.0 * dot(p1, q1), -2.0 * dot(p1, q2)
        for io, (l1, l2) in enumerate(_PAIRS):
            chain = (eps2[l2] @ num_t @ eps1[l1]) / den_t[:, None, None] \
                + (eps1[l1] @ num_u @ eps2[l2]) / den_u[:, None, None]
            for ii, (s1, s2) in enumerate(_PAIRS):
                amp[:, io, ii] = E2 * _sandwich(vbar[s2], chain, u_in[s1])
        return amp
    if process == "compton":
        # e-(p1) gamma(p2) -> e-(q1) gamma(q2), electron in s and u channels
        u_in = {h: u_spinor(p1, h) for h in "LR"}
        ubar_out = {h: _bar(u_spinor(q1, h)) for h in "LR"}
        eps_in = {h: slash(polarization(p2, h)) for h in "LR"}
        eps_out = {h: slash(polarization(q2, h).conj()) for h in "LR"}
        m = p1.m
        num_s = slash(p1.four() + p2.four()) + m * np.eye(4)
        num_u = slash(p1.four() - q2.four()) + m * np.eye(4)
        den_s, den_u = 2.0 * dot(p1, p2), -2.0 * dot(p1, q2)
        for r2 in "LR":
            for s2 in "LR":
                chain = (eps_out[r2] @ num_s @ eps_in[s2]) / den_s[:, None, None] \
                    + (eps_in[s2] @ num_u @ eps_out[r2]) / den_u[:, None, None]
                for r1 in "LR":
                    for s1 in "LR":
                        amp[:, _PAIRS.index((r1, r2)), _PAIRS.index((s1, s2))] = \
                            E2 * _sandwich(ubar_out[r1], chain, u_in[s1])
        return amp
    raise ValueError(f"unknown process {process!r}")


# ---------------------------------------------------------------------------
# outgoing states and local-phase-invariant measures

def evolve(amp, rho_in):
    """Filtered outgoing states M rho M+ / Tr(...), shape (N, 4, 4)."""
    out = amp @ rho_in @ amp.conj().transpose(0, 2, 1)
    return out / np.trace(out, axis1=1, axis2=2).real[:, None, None]


def states(process: str, p, theta, rho_in):
    """Outgoing states for the input state rho_in, shape (N, 4, 4)."""
    return evolve(amplitudes(process, p, theta), np.asarray(rho_in, dtype=complex))


def pt_eigenvalues(rho):
    """Ascending spectra of the partial transposes on qubit 2, (N, 4)."""
    n = rho.shape[0]
    pt = rho.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)
    return np.linalg.eigvalsh(pt)


def negativity(rho):
    return np.sum(np.clip(-pt_eigenvalues(rho), 0.0, None), axis=-1)


def phi_fidelity(rho):
    """max over local phases of <phi|rho|phi>, phi = (LL + e^{ia} RR)/sqrt2."""
    return 0.5 * (rho[:, 0, 0] + rho[:, 3, 3]).real + np.abs(rho[:, 0, 3])


def psi_fidelity(rho):
    """max over local phases of <psi|rho|psi>, psi = (LR + e^{ia} RL)/sqrt2."""
    return 0.5 * (rho[:, 1, 1] + rho[:, 2, 2]).real + np.abs(rho[:, 1, 2])


# ---------------------------------------------------------------------------
# root and maximum finding on scalar functions

def bisect(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign."""
    fa = f(a)
    if (fa > 0) == (f(b) > 0):
        raise ValueError(f"no sign change on [{a}, {b}]")
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if (f(mid) > 0) == (fa > 0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def argmax(f, a: float, b: float, xtol: float, samples: int = 17):
    """(x, f(x)) maximizing a vectorized f on [a, b] by repeated zooming.

    Each round samples f at `samples` points and narrows the interval to the
    two cells around the best one, so f must be unimodal near its maximum
    at the scale of the first sampling.
    """
    while True:
        xs = np.linspace(a, b, samples)
        vals = f(xs)
        k = int(np.argmax(vals))
        if b - a <= xtol:
            return float(xs[k]), float(vals[k])
        a, b = xs[max(k - 1, 0)], xs[min(k + 1, samples - 1)]
