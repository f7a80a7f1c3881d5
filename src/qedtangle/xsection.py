"""Closed-form spin-summed squared amplitudes and differential cross sections.

These are the independent cross-checks for the helicity amplitude matrices:
they are functions of the Mandelstam invariants and masses only, evaluated
from textbook trace theorems (re-derived once, symbolically, from the gamma
algebra; the exact massive interference terms for Moller and Bhabha are kept
in full).

`msq_summed` returns Sigma |M|^2 over all 16 helicity configurations, so a
comparison with an AmplitudeMatrix is sum(|entries|^2) == msq_summed. The
spin-averaged value is that divided by 4.
"""
from __future__ import annotations

import math

import numpy as np

from .constants import DEFAULT
from .kinematics import KinematicPoint, ProcessKind


def moller_msq_summed(s, t, u, m, e2: float):
    """e- e- -> e- e-: t/u channels plus exchange interference."""
    num_t = (s - 2 * m ** 2) ** 2 + (u - 2 * m ** 2) ** 2 + 4 * m ** 2 * t
    num_u = (s - 2 * m ** 2) ** 2 + (t - 2 * m ** 2) ** 2 + 4 * m ** 2 * u
    num_tu = 2 * (s - 2 * m ** 2) * (s - 6 * m ** 2)
    return 8 * e2 ** 2 * (num_t / t ** 2 + num_u / u ** 2 + num_tu / (t * u))


def bhabha_msq_summed(s, t, u, m, e2: float):
    """e- e+ -> e- e+: s/t channels plus annihilation-exchange interference."""
    num_t = (s - 2 * m ** 2) ** 2 + (u - 2 * m ** 2) ** 2 + 4 * m ** 2 * t
    num_s = (t - 2 * m ** 2) ** 2 + (u - 2 * m ** 2) ** 2 + 4 * m ** 2 * s
    num_st = 2 * (u - 2 * m ** 2) * (u - 6 * m ** 2)
    return 8 * e2 ** 2 * (num_t / t ** 2 + num_s / s ** 2 + num_st / (s * t))


def muon_pair_msq_summed(s, t, u, m_e, m_mu, e2: float):
    """e- e+ -> mu- mu+ (single s-channel)."""
    msum = m_e ** 2 + m_mu ** 2
    return 8 * e2 ** 2 * ((t - msum) ** 2 + (u - msum) ** 2 + 2 * s * msum) / s ** 2


def electron_muon_msq_summed(s, t, u, m_e, m_mu, e2: float):
    """e- mu- -> e- mu- (single t-channel); crossing s <-> t of the muon pair."""
    msum = m_e ** 2 + m_mu ** 2
    return 8 * e2 ** 2 * ((s - msum) ** 2 + (u - msum) ** 2 + 2 * t * msum) / t ** 2


def compton_msq_summed(ka, kb, kb_minus_ka, m, e2: float):
    """e- gamma -> e- gamma, Klein-Nishina in invariant form.

    ka = kappa = p.k = (s - m^2)/2, kb = kappa' = p.k' = (m^2 - u)/2 and
    kb_minus_ka = kappa' - kappa = t/2; 1/kappa - 1/kappa' is formed as
    (kappa' - kappa)/(kappa kappa'). Pass all three in a cancellation-free
    form (`msq_oracle`) to keep digits near the Thomson limit.
    """
    inv_diff = kb_minus_ka / (ka * kb)
    return 8 * e2 ** 2 * (kb / ka + ka / kb + 2 * m ** 2 * inv_diff
                          + m ** 4 * inv_diff ** 2)


def annihilation_msq_summed(s, t, u, m, e2: float):
    """e- e+ -> gamma gamma; crossing of Compton."""
    ta = (m ** 2 - t) / 2
    tb = (m ** 2 - u) / 2
    inv_sum = 1 / ta + 1 / tb
    return 8 * e2 ** 2 * (tb / ta + ta / tb + 2 * m ** 2 * inv_sum
                          - m ** 4 * inv_sum ** 2)


def msq_summed(process: ProcessKind, s, t, u):
    """Dispatch Sigma_{16} |M|^2 for any process from invariants alone."""
    e2 = DEFAULT.e2
    m, mm = DEFAULT.m_e, DEFAULT.m_mu
    if process is ProcessKind.MOLLER:
        return moller_msq_summed(s, t, u, m, e2)
    if process is ProcessKind.BHABHA:
        return bhabha_msq_summed(s, t, u, m, e2)
    if process is ProcessKind.MUON_PAIR:
        return muon_pair_msq_summed(s, t, u, m, mm, e2)
    if process is ProcessKind.ELECTRON_MUON:
        return electron_muon_msq_summed(s, t, u, m, mm, e2)
    if process is ProcessKind.COMPTON:
        return compton_msq_summed((s - m ** 2) / 2, (m ** 2 - u) / 2, t / 2, m, e2)
    if process is ProcessKind.ANNIHILATION:
        return annihilation_msq_summed(s, t, u, m, e2)
    raise ValueError(f"unknown process {process}")


def dsigma_domega_from_msq(msq_avg, s, p_in, q_out):
    """COM differential cross section dsigma/dOmega = |Mbar|^2 q / (64 pi^2 s p)."""
    return msq_avg / (64.0 * math.pi ** 2 * s) * (q_out / p_in)


def msq_oracle(kin: KinematicPoint):
    """Closed-form Sigma_{16} |M|^2 at a kinematic point.

    Compton takes kappa = p sqrt(s), kappa' = p (m^2/(E1 + p)
    + 2 p cos^2(theta/2)) and kappa' - kappa = -2 p^2 sin^2(theta/2) instead
    of (s - m^2)/2, (m^2 - u)/2 and their difference, which cancel at low p.
    """
    if kin.process is ProcessKind.COMPTON:
        m, p, half = DEFAULT.m_e, kin.p, 0.5 * kin.theta
        ka = p * math.sqrt(kin.s)
        kb = p * (m ** 2 / (math.hypot(p, m) + p) + 2.0 * p * math.cos(half) ** 2)
        return compton_msq_summed(ka, kb, -2.0 * p ** 2 * math.sin(half) ** 2, m, DEFAULT.e2)
    return msq_summed(kin.process, kin.s, kin.t, kin.u)


def dsigma_domega_oracle(kin: KinematicPoint):
    """Closed-form dsigma/dOmega at a kinematic point (validation reference)."""
    return dsigma_domega_from_msq(msq_oracle(kin) / 4.0, kin.s, kin.p, kin.q_out)


def moller_nonrelativistic_dsigma(p, theta):
    """Soft-limit Moller cross section m^2 alpha^2 (1 + 3 cos^2)/(4 p^4 sin^4)."""
    return (DEFAULT.m_e ** 2 * DEFAULT.alpha ** 2 * (1 + 3 * np.cos(theta) ** 2)
            / (4 * p ** 4 * np.sin(theta) ** 4))


def moller_entangled_region(p, theta):
    """Analytic tree-level entanglement condition for unpolarized Moller.

    True where cos(2 theta) < -1/3 and p is below the closed-form boundary
    curve; the boundary reaches its maximum sqrt(sqrt(5) + 2) m_e at
    theta = pi/2 (mod pi).
    """
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c2 = np.cos(2 * theta)
    angular = c2 < -1.0 / 3.0
    radicand = (c2 - 9) * (3 * c2 + 1)
    with np.errstate(invalid="ignore"):
        inner = (np.sqrt(np.where(radicand >= 0, radicand, np.nan))
                 * np.abs(np.sin(theta)) - 6 * c2 - 2)
        bound = 2 * DEFAULT.m_e * np.sqrt(inner / (28 * c2 + np.cos(4 * theta) + 35))
    return angular & (p < np.where(np.isfinite(bound), bound, -np.inf))
