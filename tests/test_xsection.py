import math

import numpy as np
import pytest

from qedtangle.amplitudes import helicity_amplitudes_batch
from qedtangle.constants import DEFAULT
from qedtangle.kinematics import ProcessKind, build_kinematics
from qedtangle.scan import cross_section_check
from qedtangle import xsection

E2 = DEFAULT.e2
ME = DEFAULT.m_e


def test_massless_limits_of_closed_forms():
    # the frozen massive forms must collapse to the textbook massless ones
    s, t = 400.0, -120.0
    u = -s - t
    want = 8 * E2 ** 2 * ((s ** 2 + u ** 2) / t ** 2 + (s ** 2 + t ** 2) / u ** 2
                          + 2 * s ** 2 / (t * u))
    assert xsection.moller_msq_summed(s, t, u, 0.0, E2) == pytest.approx(want, rel=1e-12)
    want = 8 * E2 ** 2 * ((s ** 2 + u ** 2) / t ** 2 + (t ** 2 + u ** 2) / s ** 2
                          + 2 * u ** 2 / (s * t))
    assert xsection.bhabha_msq_summed(s, t, u, 0.0, E2) == pytest.approx(want, rel=1e-12)
    want = 8 * E2 ** 2 * (t ** 2 + u ** 2) / s ** 2
    assert xsection.muon_pair_msq_summed(s, t, u, 0.0, 0.0, E2) == pytest.approx(want, rel=1e-12)
    want = 8 * E2 ** 2 * (u / t + t / u)
    assert xsection.annihilation_msq_summed(s, t, u, 0.0, E2) == pytest.approx(want, rel=1e-12)
    want = 8 * E2 ** 2 * (-u / s - s / u)
    assert xsection.compton_msq_summed(s / 2, -u / 2, t / 2, 0.0, E2) == pytest.approx(want, rel=1e-12)


def test_crossing_identity():
    s, t, u = 91.0, -17.0, 4 * (ME ** 2 + DEFAULT.m_mu ** 2) / 2 - 91.0 + 17.0
    a = xsection.electron_muon_msq_summed(s, t, u, ME, DEFAULT.m_mu, E2)
    b = xsection.muon_pair_msq_summed(t, s, u, ME, DEFAULT.m_mu, E2)
    assert a == pytest.approx(b, rel=1e-12)


def test_moller_nonrelativistic_cross_section():
    # soft limit: ratio of angles matches (1 + 3 cos^2) / sin^4 within 1%
    p = 1e-3 * ME
    a = cross_section_check(build_kinematics(ProcessKind.MOLLER, p, math.pi / 4))
    b = cross_section_check(build_kinematics(ProcessKind.MOLLER, p, math.pi / 2))
    formula = xsection.moller_nonrelativistic_dsigma
    assert a / b == pytest.approx(formula(p, math.pi / 4) / formula(p, math.pi / 2), rel=1e-2)
    # absolute normalization in the soft limit
    assert b == pytest.approx(formula(p, math.pi / 2), rel=1e-2)


def test_muon_pair_high_energy_shape():
    # 1 + cos^2(theta) within 0.1% at p = 50 GeV
    p = 5e4
    ref = cross_section_check(build_kinematics(ProcessKind.MUON_PAIR, p, math.pi / 2))
    for theta in (0.4, 1.0, 2.2, 2.9):
        got = cross_section_check(build_kinematics(ProcessKind.MUON_PAIR, p, theta))
        assert got / ref == pytest.approx(1 + math.cos(theta) ** 2, rel=1e-3)


def test_compton_matches_invariant_klein_nishina():
    rng = np.random.default_rng(3)
    for _ in range(3):
        p = float(rng.uniform(0.1, 30.0))
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        kin = build_kinematics(ProcessKind.COMPTON, p, theta)
        got = cross_section_check(kin)
        want = xsection.dsigma_domega_oracle(kin)
        assert got == pytest.approx(want, rel=1e-6)


def test_compton_lab_frame_klein_nishina():
    # boost the COM result to the electron rest frame and compare with the
    # classic wavelength-shift formula dsigma/dOmega_lab
    p, theta = 0.8, 2.1
    kin = build_kinematics(ProcessKind.COMPTON, p, theta)
    # lab quantities from invariants: omega = (s - m^2)/(2m),
    # omega' = -(u - m^2)/(2m), cos(theta_lab) = 1 - m (1/w' - 1/w)... inverted:
    w = (kin.s - ME ** 2) / (2 * ME)
    wp = (ME ** 2 - kin.u) / (2 * ME)
    cos_lab = 1.0 - ME * (1.0 / wp - 1.0 / w)
    assert -1.0 <= cos_lab <= 1.0
    msq_avg = xsection.msq_summed(ProcessKind.COMPTON, kin.s, kin.t, kin.u) / 4.0
    dsig_lab = msq_avg / (64 * math.pi ** 2 * ME ** 2) * (wp / w) ** 2
    alpha = DEFAULT.alpha
    kn = (alpha ** 2 / (2 * ME ** 2)) * (wp / w) ** 2 * (
        wp / w + w / wp - (1 - cos_lab ** 2))
    assert dsig_lab == pytest.approx(kn, rel=1e-10)


def test_moller_region_boundary_peak():
    # closed-form boundary reaches sqrt(sqrt(5) + 2) m_e at theta = pi/2
    peak = math.sqrt(math.sqrt(5.0) + 2.0) * ME
    assert xsection.moller_entangled_region(peak * 0.999, math.pi / 2)
    assert not xsection.moller_entangled_region(peak * 1.001, math.pi / 2)
    # no entanglement for cos(2 theta) >= -1/3 at any momentum
    assert not xsection.moller_entangled_region(0.2, 0.3)
    assert not xsection.moller_entangled_region(1e-4, math.pi / 6)


@pytest.mark.parametrize("p", [1e-6, 1e-5, 1e-4, 1e-3])
def test_compton_engine_matches_kappa_form_at_low_p(p):
    # kappa = p sqrt(s), kappa' = p (m^2/(E1 + p) + 2 p cos^2(theta/2)) and
    # kappa' - kappa = -2 p^2 sin^2(theta/2) carry no cancellation, unlike
    # (s - m^2)/2, (m^2 - u)/2 and their difference; the engine's slash-chain
    # denominators take the same form
    theta = np.linspace(-2 * math.pi, 4 * math.pi, 241)
    total, _, _ = helicity_amplitudes_batch(ProcessKind.COMPTON, p, theta)
    e1 = math.hypot(p, ME)
    ka = p * (e1 + p)
    kb = p * (ME ** 2 / (e1 + p) + 2 * p * np.cos(0.5 * theta) ** 2)
    want = xsection.compton_msq_summed(ka, kb, -2 * p ** 2 * np.sin(0.5 * theta) ** 2, ME, E2)
    got = np.sum(total ** 2, axis=(1, 2))
    assert np.max(np.abs(got - want) / want) <= 1e-14
    # the point oracle takes the same kappa form
    for i in range(0, theta.size, 40):
        kin = build_kinematics(ProcessKind.COMPTON, p, float(theta[i]))
        assert abs(xsection.msq_oracle(kin) / got[i] - 1.0) <= 1e-14


@pytest.mark.parametrize("p", [1e-5, 1e-4, 1e-3])
def test_compton_closed_form_against_mpmath_near_thomson_limit(p):
    # Klein-Nishina at 50 digits, with kappa = p (E + p) and kappa' =
    # p (E + p cos theta) at the point's own p and theta: the closed form
    # must keep 1/kappa - 1/kappa' free of cancellation as kappa' -> kappa
    import mpmath
    mpmath.mp.dps = 50
    e2, m, mp_p = mpmath.mpf(E2), mpmath.mpf(ME), mpmath.mpf(p)
    energy = mpmath.sqrt(mp_p ** 2 + m ** 2)
    worst = 0.0
    for theta in np.linspace(-2 * math.pi, 4 * math.pi, 197):
        kin = build_kinematics(ProcessKind.COMPTON, p, float(theta))
        ka = mp_p * (energy + mp_p)
        kb = mp_p * (energy + mp_p * mpmath.cos(mpmath.mpf(kin.theta)))
        inv_diff = 1 / ka - 1 / kb
        want = 8 * e2 ** 2 * (kb / ka + ka / kb + 2 * m ** 2 * inv_diff
                              + m ** 4 * inv_diff ** 2)
        worst = max(worst, abs(float((xsection.msq_oracle(kin) - want) / want)))
    assert worst <= 1e-14
