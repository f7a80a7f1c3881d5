import math

import numpy as np
import pytest

from qedtangle.constants import DEFAULT
from qedtangle.errors import BelowThresholdError, InvalidKinematicsError
from qedtangle.kinematics import (P_RANGE, ProcessKind, build_kinematics,
                                  mandelstam_batch, momenta_batch,
                                  process_masses, threshold_momentum)

RNG = np.random.default_rng(7)


def _momenta(proc, p, theta):
    p, theta = np.asarray(p, dtype=float), np.asarray(theta, dtype=float)
    return momenta_batch(p, theta, *mandelstam_batch(proc, p, theta)[3:])


def _minkowski_square(k):
    return k[..., 0] ** 2 - k[..., 1] ** 2 - k[..., 2] ** 2 - k[..., 3] ** 2


def test_com_momentum_balance_and_energy_conservation():
    for proc in ProcessKind:
        p = 200.0 if proc is ProcessKind.MUON_PAIR else 2.5
        p1, p2, q1, q2 = _momenta(proc, [p], [0.9])
        total_in, total_out = p1 + p2, q1 + q2
        assert np.all(np.abs(total_in[:, 1:]) < 1e-12)
        assert np.all(np.abs(total_out[:, 1:]) < 1e-9)
        assert total_in[0, 0] == pytest.approx(total_out[0, 0], rel=1e-9)
        masses = process_masses(proc)
        for k, m in zip((p1, p2, q1, q2), masses):
            assert _minkowski_square(k)[0] == pytest.approx(m ** 2, abs=1e-9 * p ** 2)


def test_mandelstam_sum_rule():
    for proc in ProcessKind:
        for _ in range(5):
            p = RNG.uniform(120.0, 900.0) if proc is ProcessKind.MUON_PAIR \
                else RNG.uniform(0.05, 40.0)
            theta = RNG.uniform(0.0, 2 * math.pi)
            kin = build_kinematics(proc, p, theta)
            mass_sum = sum(m ** 2 for m in process_masses(kin.process))
            assert kin.s + kin.t + kin.u == pytest.approx(mass_sum, rel=1e-6, abs=1e-9)
            # the same invariants as Minkowski squares of the momenta
            p1, p2, q1, q2 = _momenta(proc, [p], [theta])
            for got, k in ((kin.s, p1 + p2), (kin.t, p1 - q1), (kin.u, p1 - q2)):
                assert _minkowski_square(k)[0] == pytest.approx(got, rel=1e-6, abs=1e-9)


def test_muon_pair_threshold():
    thr = threshold_momentum(ProcessKind.MUON_PAIR)
    assert thr == pytest.approx(math.sqrt(DEFAULT.m_mu ** 2 - DEFAULT.m_e ** 2))
    kin = build_kinematics(ProcessKind.MUON_PAIR, thr, 1.0)
    # q ~ sqrt(eps) * m_mu at the floating-point threshold
    assert kin.q_out == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(BelowThresholdError):
        build_kinematics(ProcessKind.MUON_PAIR, 0.9 * thr, 1.0)


#: 1e-16 relative below the muon-pair threshold 105.65713981256592 MeV
JUST_BELOW_MUON_THRESHOLD = 105.65713981256582


def test_one_below_threshold_rule():
    # build_kinematics raises exactly where mandelstam_batch gives a NaN q,
    # and the engine gives finite amplitudes exactly where it does not; at
    # the threshold and one ulp below it the pair forms at rest
    from qedtangle.amplitudes import helicity_amplitudes_batch
    thr = threshold_momentum(ProcessKind.MUON_PAIR)
    ps = [JUST_BELOW_MUON_THRESHOLD, math.nextafter(thr, 0.0), thr]
    for _ in range(12):
        ps.append(math.nextafter(ps[-1], math.inf))
        ps.insert(0, math.nextafter(ps[0], 0.0))
    q = mandelstam_batch(ProcessKind.MUON_PAIR, np.array(ps), 1.0)[-1]
    amps = helicity_amplitudes_batch(ProcessKind.MUON_PAIR, np.array(ps), 1.0)[0]
    assert np.isnan(q).any() and not np.isnan(q).all()
    assert np.array_equal(np.isfinite(amps).all(axis=(1, 2)), ~np.isnan(q))
    for p, below in zip(ps, np.isnan(q)):
        if below:
            with pytest.raises(BelowThresholdError, match="below threshold"):
                build_kinematics(ProcessKind.MUON_PAIR, p, 1.0)
        else:
            assert build_kinematics(ProcessKind.MUON_PAIR, p, 1.0).q_out >= 0.0
    assert np.isnan(q[ps.index(JUST_BELOW_MUON_THRESHOLD)])
    assert q[ps.index(thr)] == 0.0 and q[ps.index(math.nextafter(thr, 0.0))] == 0.0


def test_compton_energies():
    kin = build_kinematics(ProcessKind.COMPTON, 2.0, 1.0)
    p1, p2, _, _ = _momenta(ProcessKind.COMPTON, [2.0], [1.0])
    assert p2[0, 0] == pytest.approx(2.0)                     # photon energy = |p|
    assert p1[0, 0] == pytest.approx(math.sqrt(4.0 + DEFAULT.m_e ** 2))
    assert kin.q_out == pytest.approx(2.0)                    # elastic in COM


def test_moller_t_equals_u_at_perpendicular():
    kin = build_kinematics(ProcessKind.MOLLER, 1.3, math.pi / 2)
    assert kin.t == pytest.approx(kin.u, rel=1e-12)


def test_forward_limit_t_zero_elastic():
    kin = build_kinematics(ProcessKind.MOLLER, 1.3, 0.0)
    assert kin.t == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("proc", [ProcessKind.MOLLER, ProcessKind.BHABHA,
                                  ProcessKind.ELECTRON_MUON, ProcessKind.COMPTON])
def test_forward_t_matches_exact_elastic_form(proc):
    # elastic in the COM frame: t = -4 p^2 sin^2(theta/2) exactly, which the
    # naive m1^2 + m3^2 - 2 (E1 E3 - p q cos theta) misses by up to 1e-3
    p = np.repeat([0.01, 3.0, 1e4], 4)
    theta = np.tile([1e-6, 1e-5, 1e-3, math.pi - 1e-4], 3)
    want = -4.0 * p ** 2 * np.sin(0.5 * theta) ** 2
    _, t, *_ = mandelstam_batch(proc, p, theta)
    assert np.max(np.abs(t - want) / np.abs(want)) <= 1e-14
    for i in range(p.size):
        kin = build_kinematics(proc, float(p[i]), float(theta[i]))
        assert abs(kin.t - want[i]) <= 1e-14 * abs(want[i])
        assert abs(kin.q_out - p[i]) <= 1e-15 * p[i]


def test_elastic_q_out_equals_p():
    for proc in (ProcessKind.MOLLER, ProcessKind.BHABHA,
                 ProcessKind.ELECTRON_MUON, ProcessKind.COMPTON):
        for theta in (0.3, 1.7, 4.4):
            kin = build_kinematics(proc, 5.0, theta)
            assert kin.q_out == pytest.approx(5.0, rel=1e-12)


def test_t_u_swap_under_theta_reflection():
    # identical outgoing particles: theta -> pi - theta swaps t and u
    kin_a = build_kinematics(ProcessKind.MOLLER, 2.0, 0.7)
    kin_b = build_kinematics(ProcessKind.MOLLER, 2.0, math.pi - 0.7)
    assert kin_a.t == pytest.approx(kin_b.u, rel=1e-12)
    assert kin_a.u == pytest.approx(kin_b.t, rel=1e-12)


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidKinematicsError):
        build_kinematics(ProcessKind.MOLLER, -1.0, 0.5)
    with pytest.raises(InvalidKinematicsError):
        build_kinematics(ProcessKind.MOLLER, float("inf"), 0.5)
    with pytest.raises(InvalidKinematicsError):
        build_kinematics(ProcessKind.MOLLER, 1.0, float("nan"))
    # just outside the momentum range, and 0
    for p in (math.nextafter(P_RANGE[0], 0.0), math.nextafter(P_RANGE[1], math.inf), 0.0):
        with pytest.raises(InvalidKinematicsError, match="must lie in"):
            build_kinematics(ProcessKind.COMPTON, p, 1.0)


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_momentum_range_ends(proc):
    # at both ends of P_RANGE every process has finite kinematics (the muon
    # pair is below threshold at the low end)
    lo, hi = P_RANGE
    for p in (lo, hi):
        if p < threshold_momentum(proc):
            with pytest.raises(BelowThresholdError):
                build_kinematics(proc, p, 1.0)
            continue
        kin = build_kinematics(proc, p, 1.0)
        assert all(math.isfinite(x) for x in (kin.s, kin.t, kin.u, kin.q_out, *kin.energies))
        assert kin.q_out > 0.0


def test_theta_wraps_modulo_two_pi():
    kin_a = build_kinematics(ProcessKind.BHABHA, 1.0, 1.0)
    kin_b = build_kinematics(ProcessKind.BHABHA, 1.0, 1.0 + 2 * math.pi)
    assert kin_a.theta == pytest.approx(kin_b.theta)
    assert kin_a.t == pytest.approx(kin_b.t)


def test_batch_matches_scalar():
    p = np.array([0.7, 2.4, 9.0])
    theta = np.array([0.3, 2.0, 5.1])
    s, t, u, *_ = mandelstam_batch(ProcessKind.BHABHA, p, theta)
    for i in range(3):
        kin = build_kinematics(ProcessKind.BHABHA, float(p[i]), float(theta[i]))
        assert s[i] == pytest.approx(kin.s, rel=1e-12)
        assert t[i] == pytest.approx(kin.t, rel=1e-12)
        assert u[i] == pytest.approx(kin.u, rel=1e-12)


def test_process_masses():
    m = process_masses(ProcessKind.COMPTON)
    assert m == (DEFAULT.m_e, 0.0, DEFAULT.m_e, 0.0)
    m = process_masses(ProcessKind.MUON_PAIR)
    assert m == (DEFAULT.m_e, DEFAULT.m_e, DEFAULT.m_mu, DEFAULT.m_mu)


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_point_gives_the_batch_bits(proc):
    # build_kinematics runs mandelstam_batch on zero-dimensional arrays, whose
    # arithmetic is numpy scalar math; a point must still give the batch's
    # bits (a scalar's x ** 2 is pow(), which can differ from x * x)
    rng = np.random.default_rng(17)
    lo = 110.0 if proc is ProcessKind.MUON_PAIR else 1e-3
    p = np.exp(rng.uniform(math.log(lo), math.log(1e4), 400))
    theta = rng.uniform(0.0, 2 * math.pi, 400)
    s, t, u, e1, e2, e3, e4, q = mandelstam_batch(proc, p, theta)
    for i in range(p.size):
        kin = build_kinematics(proc, float(p[i]), float(theta[i]))
        assert (kin.s, kin.t, kin.u, kin.q_out) == (s[i], t[i], u[i], q[i])
        assert kin.energies == (e1[i], e2[i], e3[i], e4[i])
