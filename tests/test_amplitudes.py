import math

import numpy as np
import pytest

from qedtangle.amplitudes import POLE_TOL, amplitude, helicity_amplitudes_batch, on_pole
from qedtangle.constants import DEFAULT
from qedtangle.errors import DivergentKinematicsError
from qedtangle.kinematics import (P_RANGE, PROCESS_TABLE, ProcessKind, build_kinematics,
                                  mandelstam_batch, process_masses, threshold_momentum)
from qedtangle.qstate import evolve, unpolarized
from qedtangle.entanglement import analyze
from qedtangle import xsection

RNG = np.random.default_rng(11)


def sample_point(proc):
    if proc is ProcessKind.MUON_PAIR:
        p = RNG.uniform(110.0, 5000.0)
    else:
        p = RNG.uniform(0.05, 50.0)
    theta = RNG.uniform(0.1, math.pi - 0.1)
    return build_kinematics(proc, float(p), float(theta))


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_spin_summed_matches_trace_oracle(proc):
    for _ in range(10):
        kin = sample_point(proc)
        amp = amplitude(kin)
        want = xsection.msq_summed(proc, kin.s, kin.t, kin.u)
        assert amp.spin_summed_msq() == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_channel_sum_and_finiteness(proc):
    kin = sample_point(proc)
    amp = amplitude(kin)
    total = sum(amp.channels.values())
    assert np.allclose(total, amp.entries)
    assert np.all(np.isfinite(amp.entries.view(float)))
    # on a grid through the pole rays, where electron-muon's lone channel
    # holds -0 entries at theta = 0, the total has the bits of a sum over
    # the channel axis (-0 turned +0) and shares no memory with the channels
    p = np.geomspace(0.01, 1e3, 30) + (110.0 if proc is ProcessKind.MUON_PAIR else 0.0)
    total, channels, _ = helicity_amplitudes_batch(proc, p, np.linspace(0.0, 2 * math.pi, 9)[:, None])
    stacked = np.stack(list(channels.values()), axis=-3)
    assert total.tobytes() == stacked.sum(axis=-3).tobytes()
    assert not any(np.shares_memory(total, view) for view in channels.values())


def test_channel_counts():
    assert set(amplitude(sample_point(ProcessKind.MUON_PAIR)).channels) == {"s"}
    assert set(amplitude(sample_point(ProcessKind.ELECTRON_MUON)).channels) == {"t"}
    assert set(amplitude(sample_point(ProcessKind.MOLLER)).channels) == {"t", "u"}
    assert set(amplitude(sample_point(ProcessKind.BHABHA)).channels) == {"s", "t"}
    assert set(amplitude(sample_point(ProcessKind.COMPTON)).channels) == {"s", "u"}
    assert set(amplitude(sample_point(ProcessKind.ANNIHILATION)).channels) == {"t", "u"}


#: the pole rays of each process: t channels of two currents at theta = 0,
#: u channels at pi
POLE_RAYS = {ProcessKind.MOLLER: (0.0, math.pi), ProcessKind.BHABHA: (0.0,),
             ProcessKind.ELECTRON_MUON: (0.0,)}


def test_divergent_poles_raise():
    # exactly on a ray, and 0.4 POLE_TOL off it, in three turns, at every p of
    # the momentum range; nowhere else, and never for Compton, annihilation
    # or the muon pair
    for proc in ProcessKind:
        rays = POLE_RAYS.get(proc, ())
        on = np.array([ray + offset * POLE_TOL + turn for ray in rays
                       for offset in (0.0, -0.4, 0.4) for turn in (0.0, 2 * math.pi, -2 * math.pi)])
        off = np.array([ray + offset * POLE_TOL for ray in (0.0, math.pi) for offset in (-2.0, 2.0)]
                       + [ray for ray in (0.0, math.pi) if ray not in rays] + [1.0, 2.0, 4.0, 5.5])
        p = np.geomspace(*P_RANGE, 25)
        if proc is ProcessKind.MUON_PAIR:
            p = p[p > threshold_momentum(proc)]
        _, _, divergent = helicity_amplitudes_batch(proc, p, on[:, None])
        assert divergent.shape == (on.size, p.size) and divergent.all()
        assert on_pole(proc, on).all() and not on_pole(proc, off).any()
        _, _, divergent = helicity_amplitudes_batch(proc, p, off[:, None])
        assert divergent.shape == (off.size, p.size) and not divergent.any()
        for theta in on:
            for p_point in (p[0], 1.0, p[-1]):
                with pytest.raises(DivergentKinematicsError):
                    amplitude(build_kinematics(proc, float(p_point), float(theta)))


def _measures(proc, p, theta, rho=None):
    amp = amplitude(build_kinematics(proc, p, theta))
    state = evolve(amp, unpolarized() if rho is None else rho)
    rep = analyze(state)
    return np.array([rep.negativity, rep.entropy, rep.purity,
                     rep.pt_eigenvalues[0]])


@pytest.mark.parametrize("proc", [ProcessKind.MOLLER, ProcessKind.MUON_PAIR,
                                  ProcessKind.ANNIHILATION])
def test_theta_shift_invariance(proc):
    p = 300.0 if proc is ProcessKind.MUON_PAIR else 0.9
    for theta in (0.6, 1.9):
        a = _measures(proc, p, theta)
        b = _measures(proc, p, theta + math.pi)
        assert np.allclose(a, b, atol=1e-10)


def test_bhabha_reflection_but_not_shift():
    a = _measures(ProcessKind.BHABHA, 0.8, 1.1)
    b = _measures(ProcessKind.BHABHA, 0.8, 2 * math.pi - 1.1)
    assert np.allclose(a, b, atol=1e-10)
    c = _measures(ProcessKind.BHABHA, 0.8, 1.1 + math.pi)
    assert np.max(np.abs(a - c)) > 1e-4


def test_parity_flip_magnitudes():
    # flipping every helicity label (L<->R on rows and columns) preserves
    # entry magnitudes in a parity-symmetric theory
    for proc in ProcessKind:
        kin = sample_point(proc)
        m = amplitude(kin).entries
        flip = [3, 2, 1, 0]
        assert np.allclose(np.abs(m), np.abs(m[np.ix_(flip, flip)]), rtol=1e-9)


def test_moller_exchange_antisymmetry():
    # swapping the outgoing legs (theta -> theta + pi together with swapping
    # the outgoing helicity labels) reproduces the same matrix up to a global
    # phase, as required for identical fermions
    p, theta = 1.7, 0.8
    m_a = amplitude(build_kinematics(ProcessKind.MOLLER, p, theta)).entries
    m_b = amplitude(build_kinematics(ProcessKind.MOLLER, p, theta + math.pi)).entries
    swap = [0, 2, 1, 3]          # LL, RL, LR, RR: exchange the two labels
    m_b_swapped = m_b[swap, :]
    ratios = m_b_swapped[np.abs(m_a) > 1e-10 * np.max(np.abs(m_a))] / \
        m_a[np.abs(m_a) > 1e-10 * np.max(np.abs(m_a))]
    assert np.allclose(ratios, ratios[0], atol=1e-9)
    assert abs(abs(ratios[0]) - 1.0) < 1e-9


def test_bhabha_t_channel_drives_backscattering_entanglement():
    kin = build_kinematics(ProcessKind.BHABHA, 0.32, math.pi)
    amp = amplitude(kin)
    assert np.linalg.norm(amp.channels["t"]) > np.linalg.norm(amp.channels["s"])
    # the photon-exchange channel generates the entanglement on its own;
    # the annihilation channel alone yields a separable state
    t_only = analyze(evolve(amp.channels["t"], unpolarized()))
    s_only = analyze(evolve(amp.channels["s"], unpolarized()))
    assert t_only.entangled
    assert not s_only.entangled


def _ward_residual(proc, p, theta, leg):
    """max |M| with photon `leg`'s polarization replaced by its momentum k = E n,
    over max |M|, per point; also the same for each channel alone."""
    invariants = mandelstam_batch(proc, p, theta)
    energy = invariants[3 + leg][..., None, None]
    total, _, _ = helicity_amplitudes_batch(proc, p, theta, invariants=invariants)
    gauged, channels, _ = helicity_amplitudes_batch(proc, p, theta, gauge=leg,
                                                    invariants=invariants)
    scale = np.max(np.abs(total), axis=(-2, -1))
    return (np.max(np.abs(energy * gauged), axis=(-2, -1)) / scale,
            {name: np.max(np.abs(energy * mat), axis=(-2, -1)) / scale
             for name, mat in channels.items()})


def test_ward_identity_annihilation():
    for leg in (2, 3):
        assert _ward_residual(ProcessKind.ANNIHILATION, 1.7, 1.1, leg)[0] < 1e-8


def test_ward_identity_compton_both_legs():
    for leg in (1, 3):
        assert _ward_residual(ProcessKind.COMPTON, 2.9, 2.2, leg)[0] < 1e-8


@pytest.mark.parametrize("proc, leg", [(ProcessKind.ANNIHILATION, 2), (ProcessKind.ANNIHILATION, 3),
                                       (ProcessKind.COMPTON, 1), (ProcessKind.COMPTON, 3)])
def test_ward_identity_on_a_seeded_grid(proc, leg):
    # every photon leg, from p = 1e-3 to 1e4 MeV and over several turns of
    # theta: only the channel sum is gauge invariant, so each channel alone
    # must stay well away from zero while the sum vanishes
    rng = np.random.default_rng(31)
    p = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 400))
    theta = rng.uniform(-7.0, 14.0, 400)
    residual, channels = _ward_residual(proc, p, theta, leg)
    assert np.max(residual) < 1e-10
    for alone in channels.values():
        assert np.min(alone) > 1e-6


def test_gauge_takes_only_a_photon_leg():
    for proc, leg in ((ProcessKind.COMPTON, 0), (ProcessKind.COMPTON, 2),
                      (ProcessKind.MOLLER, 2), (ProcessKind.ANNIHILATION, 4)):
        with pytest.raises(ValueError, match="not a photon leg"):
            helicity_amplitudes_batch(proc, 1.0, 1.0, gauge=leg)


def test_slash_chains_need_leg_0s_mass_and_a_massless_photon(monkeypatch):
    # a chain's denominator x - m1^2 = +-2 |k| (m1^2/(E1 + p) + 2 p h^2) holds
    # for a propagator around leg 0's fermion that adds or takes a massless leg
    from qedtangle import amplitudes
    for proc, chain in ((ProcessKind.ELECTRON_MUON, ("t", 1.0, (3, 1, 2, 0))),
                        (ProcessKind.MOLLER, ("s", 1.0, (2, 1, 3, 0)))):
        monkeypatch.setitem(PROCESS_TABLE, proc, {**PROCESS_TABLE[proc], "channels": (chain,)})
        with pytest.raises(ValueError, match="chain needs leg 0's fermion mass"):
            amplitudes._compile(proc)


def test_crossing_electron_muon_vs_muon_pair():
    # single-photon-exchange processes related by s <-> t crossing at the
    # level of the closed-form spin sums
    kin = sample_point(ProcessKind.ELECTRON_MUON)
    amp = amplitude(kin)
    crossed = xsection.muon_pair_msq_summed(kin.t, kin.s, kin.u,
                                            DEFAULT.m_e, DEFAULT.m_mu, DEFAULT.e2)
    assert amp.spin_summed_msq() == pytest.approx(crossed, rel=1e-8)


def _spin_projector(gamma, k, mass, hel):
    """(kslash + mass)(1 + g5 sslash)/2 for a leg of 4-momentum k and helicity
    sign hel: u(h) ubar(h) with mass = m, v(h) vbar(h) with mass = -m and h
    the antiparticle's physical helicity (Bouchiat & Michel, Nucl. Phys. 5,
    416 (1958)); s = hel (|k|/m, E khat/m) is the spin 4-vector."""
    def slash(vec):
        return np.einsum('m,m,mab->ab', np.asarray(vec, dtype=complex),
                         np.array([1.0, -1.0, -1.0, -1.0]), gamma)

    m = abs(mass)
    g5 = 1j * gamma[0] @ gamma[1] @ gamma[2] @ gamma[3]
    k = np.asarray(k, dtype=float)
    kmag = np.linalg.norm(k[1:])
    spin = hel * np.concatenate([[kmag / m], k[0] * k[1:] / (kmag * m)])
    return 0.5 * (slash(k) + mass * np.eye(4)) @ (np.eye(4) + g5 @ slash(spin))


def test_spin_projectors_match_the_oracle_spinors():
    # pins the sign of g5 sslash for u and v against the independent spinors
    # of tests/helicity_oracle.py (Weyl representation)
    import helicity_oracle as oracle
    m = DEFAULT.m_e
    for p, direction in [(0.6, 1.0), (0.45, -1.0), (2.0, -1.0)]:
        leg = oracle.Leg(m, np.array([[0.0, 0.0, direction * p]]))
        k = leg.four()[0].real
        for hel, sign in (("L", -1.0), ("R", 1.0)):
            for spinor, mass in ((oracle.u_spinor, m), (oracle.v_spinor, -m)):
                psi = spinor(leg, hel)[0]
                outer = np.outer(psi, psi.conj() @ oracle.GAMMA[0])
                want = _spin_projector(oracle.GAMMA, k, mass, sign)
                assert np.max(np.abs(outer - want)) < 1e-12 * max(1.0, k[0])


def test_annihilation_unpolarized_density_from_closed_traces():
    # with all fermion spins summed, the unpolarized output density matrix is
    # expressible through closed spin-sum traces alone: an oracle completely
    # independent of the spinor construction; its gamma algebra is complex,
    # built here from dirac.GAMMA, not the package's real plane-vector slash.
    # At the low-p points the four pure helicity inputs are checked too, with
    # spin projectors in place of the spin sums: unlike the unpolarized input
    # they see the conjugation of the outgoing photon vectors (eps(h) =
    # -eps*(-h) only relabels both photon helicities, which parity hides when
    # the input is unpolarized). s ~ p/m loses digits at 1 GeV, so the pure
    # inputs stay at low p.
    from qedtangle.dirac import GAMMA, GAMMA0, IDENTITY4, METRIC, eps_batch
    from qedtangle.qstate import evolve_batch

    def slash(vec):
        return np.einsum('m,m,mab->ab', np.asarray(vec, dtype=complex), METRIC, GAMMA)

    def eps_out(theta, hel):
        """Outgoing (conjugated) polarization vector, y component made imaginary."""
        return (eps_batch(np.array([theta]), hel)[0] * np.array([1, 1, 1j, 1])).conj()

    m = DEFAULT.m_e
    pairs = [(a, b) for a in "LR" for b in "LR"]
    for p, th in [(0.6, 0.9), (0.45, 1.07), (1000.0, math.pi / 2)]:
        s, t, u, e1, e2, e3, e4, q = mandelstam_batch(
            ProcessKind.ANNIHILATION, np.array([p]), np.array([th]))
        s, t, u, e1, e2, e3, e4, q = (float(x[0]) for x in (s, t, u, e1, e2, e3, e4, q))
        st, ct = math.sin(th), math.cos(th)
        p1 = np.array([e1, 0, 0, p])
        p2 = np.array([e2, 0, 0, -p])
        q1 = np.array([e3, q * st, 0, q * ct])
        q2 = np.array([e4, -q * st, 0, -q * ct])
        eps1 = {h: eps_out(th, h) for h in "LR"}
        eps2 = {h: eps_out(th + math.pi, h) for h in "LR"}
        prop_t = slash(p1 - q1) + m * IDENTITY4
        prop_u = slash(p1 - q2) + m * IDENTITY4

        def gamma(l1, l2):
            return (slash(eps2[l2]) @ prop_t @ slash(eps1[l1]) / (t - m ** 2)
                    + slash(eps1[l1]) @ prop_u @ slash(eps2[l2]) / (u - m ** 2))

        def traced(electron, positron):
            """Output state for the electron u ubar and positron v vbar given."""
            rho = np.zeros((4, 4), complex)
            for i, (l1, l2) in enumerate(pairs):
                g1 = gamma(l1, l2)
                for j, (l1p, l2p) in enumerate(pairs):
                    g2bar = GAMMA0 @ gamma(l1p, l2p).conj().T @ GAMMA0
                    rho[i, j] = np.trace(positron @ g1 @ electron @ g2bar)
            return rho / np.trace(rho).real

        inputs = [(np.eye(4) / 4, slash(p1) + m * IDENTITY4, slash(p2) - m * IDENTITY4)]
        if p < 1.0:
            for k, (h1, h2) in enumerate(pairs):
                hel1, hel2 = (1.0 if h == "R" else -1.0 for h in (h1, h2))
                inputs.append((np.diag(np.eye(4)[k]),
                               _spin_projector(GAMMA, p1, m, hel1),
                               _spin_projector(GAMMA, p2, -m, hel2)))
        amps, _, _ = helicity_amplitudes_batch(
            ProcessKind.ANNIHILATION, np.array([p]), np.array([th]))
        for rho_in, electron, positron in inputs:
            rho_pkg, _ = evolve_batch(amps, rho_in.astype(complex))
            assert np.max(np.abs(traced(electron, positron) - rho_pkg[0])) < 1e-12


def test_electron_muon_backscattering_band_width():
    # the entangled band around theta = pi has angular half-width eps(p)
    # that grows up to roughly 50 MeV and shrinks again at high momentum
    from qedtangle.qstate import evolve_batch
    from qedtangle.entanglement import measures_batch

    def width(p):
        ths = math.pi + np.linspace(0.0, 1.2, 400)
        amps, _, _ = helicity_amplitudes_batch(
            ProcessKind.ELECTRON_MUON, np.full_like(ths, p), ths)
        rho, _ = evolve_batch(amps, np.eye(4, dtype=complex) / 4)
        ent = measures_batch(rho)["entangled"]
        idx = int(np.argmax(~ent))
        return float(ths[idx] - math.pi) if idx > 0 else 0.0

    w = [width(p) for p in (5.0, 50.0, 1000.0)]
    assert 0.0 < w[0] < w[1]
    assert w[2] < w[1]


def test_annihilation_wing_entry_at_quarter_pi():
    # the lower boundary of the separable wing at theta = pi/4, pinned to the
    # band certified by the closed-trace density-matrix oracle
    from qedtangle.scan import find_threshold
    got = find_threshold(ProcessKind.ANNIHILATION, "unpolarized", math.pi / 4,
                         (0.30, 0.70))
    assert 0.40 < got < 0.55


def test_batch_matches_per_point():
    # the engine broadcasts over helicity axes and batch points alike, so a
    # point evaluated inside a batch must equal its N = 1 evaluation exactly
    rng = np.random.default_rng(5)
    for proc in ProcessKind:
        lo, hi = (110.0, 5000.0) if proc is ProcessKind.MUON_PAIR else (0.05, 50.0)
        p = rng.uniform(lo, hi, 7)
        th = rng.uniform(0.05, 2 * math.pi - 0.05, 7)
        total, channels, divergent = helicity_amplitudes_batch(proc, p, th)
        for i in range(p.size):
            single = amplitude(build_kinematics(proc, float(p[i]), float(th[i])))
            assert np.array_equal(total[i], single.entries)
            for name, mat in channels.items():
                assert np.array_equal(mat[i], single.channels[name])
        assert not divergent.any()


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_grid_equals_flat_point_list(proc):
    # a theta column against a p row is the same computation as the flat list
    # of its points, bit for bit, angles outside [0, 2 pi) included
    lo = 110.0 if proc is ProcessKind.MUON_PAIR else 1e-3
    p = np.geomspace(lo, 1e4, 29)
    theta = np.linspace(-2 * math.pi + 0.01, 4 * math.pi - 0.01, 17)
    grid = helicity_amplitudes_batch(proc, np.broadcast_to(p, (theta.size, p.size)),
                                     theta[:, None])
    tt, pp = np.meshgrid(theta, p, indexing="ij")
    flat = helicity_amplitudes_batch(proc, pp.ravel(), tt.ravel())
    assert grid[0].shape == (theta.size, p.size, 4, 4)
    assert np.array_equal(grid[0].reshape(-1, 4, 4), flat[0])
    for name, mat in grid[1].items():
        assert np.array_equal(mat.reshape(-1, 4, 4), flat[1][name])
    assert np.array_equal(grid[2].ravel(), flat[2])
    # a plain p row broadcasts like the stored-once view
    row = helicity_amplitudes_batch(proc, p, theta[:, None])
    assert np.array_equal(row[0], grid[0])


def test_no_runtime_contraction(monkeypatch):
    # the theta-side algebra is compiled once per process at import; a call
    # only forms features and weights and runs two matmuls per process
    from qedtangle import amplitudes

    def forbidden(*args, **kwargs):
        raise AssertionError("helicity algebra contracted at call time")

    for name in ("_current_pair", "_slash_chain", "_to_helicity_axes"):
        monkeypatch.setattr(amplitudes, name, forbidden)
    theta = np.linspace(0.1, 2 * math.pi - 0.1, 4)
    for proc in ProcessKind:
        lo, hi = (110.0, 5000.0) if proc is ProcessKind.MUON_PAIR else (0.05, 50.0)
        p = np.geomspace(lo, hi, 5)
        # the plain engine and the gauge variant of every photon leg
        specs = PROCESS_TABLE[proc]["in"] + PROCESS_TABLE[proc]["out"]
        for gauge in [None] + [k for k, spec in enumerate(specs) if spec.field == "photon"]:
            total, _, divergent = helicity_amplitudes_batch(proc, p[2:3], np.array([0.7]),
                                                            gauge=gauge)
            assert total.shape == (1, 4, 4) and np.all(np.isfinite(total))
            assert not divergent[0]
            total, _, divergent = helicity_amplitudes_batch(
                proc, np.broadcast_to(p, (theta.size, p.size)), theta[:, None], gauge=gauge)
            assert total.shape == (theta.size, p.size, 4, 4)
            assert np.all(np.isfinite(total)) and not divergent.any()


def _at_half_angle(basis, c, s):
    """A piece's basis (D + 1, ...) at the half angle (c, s): sum_j c^(D - j) s^j basis[j]."""
    d = len(basis) - 1
    return sum(c ** (d - j) * s ** j * basis[j] for j in range(d + 1))


#: rows of each process's compiled tensor: one more than its degree in the half angle
_TENSOR_ROWS = {ProcessKind.MOLLER: 3, ProcessKind.MUON_PAIR: 3, ProcessKind.ANNIHILATION: 7,
                ProcessKind.BHABHA: 3, ProcessKind.ELECTRON_MUON: 3, ProcessKind.COMPTON: 6}


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_compiled_tensor_is_the_contraction_at_theta(proc):
    # the compiled tensor at the half-angle monomials of theta equals the
    # helicity algebra contracted on the pieces at theta, and each outgoing
    # piece at theta is its spinor, polarization or propagator slot
    from qedtangle import amplitudes
    from qedtangle.dirac import PLANE_CONJ, POLARIZATION_PARTS, slash_batch, spinor_parts

    info = PROCESS_TABLE[proc]
    specs = info["in"] + info["out"]
    masses = process_masses(proc)
    rows = _TENSOR_ROWS[proc]
    rng = np.random.default_rng(37)
    thetas = [1e-9, -1e-9, math.pi, 2 * math.pi - 1e-9, 2 * math.pi + 1e-9, -13.5, 4 * math.pi + 0.3]
    thetas += rng.uniform(-14.0, 14.0, 43).tolist()
    for gauge in [None] + [k for k, spec in enumerate(specs) if spec.field == "photon"]:
        compiled = amplitudes._COMPILED[(proc, gauge)]
        assert compiled.tensor.shape[0] == rows
        tensor = compiled.tensor.reshape((rows,) + compiled.weights.shape[1:] + (16,))
        for theta in thetas:
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            khat = np.array([0.0, math.sin(theta), 0.0, math.cos(theta)])
            legs = [_at_half_angle(amplitudes._leg(k, spec, k == gauge), c, s)
                    for k, spec in enumerate(specs)]
            for k in (2, 3):
                sign = 1.0 if k == 2 else -1.0
                if specs[k].field != "photon":
                    want = spinor_parts(specs[k].field, *((c, s) if k == 2 else (-s, c)))
                elif k == gauge:
                    want = np.broadcast_to(np.array([1.0, 0, 0, 0]) + sign * khat, (1, 2, 4))
                else:
                    p0, pc, ps = POLARIZATION_PARTS
                    want = (p0 + sign * khat[3] * pc + sign * khat[1] * ps)[None] * PLANE_CONJ
                assert np.max(np.abs(legs[k] - want)) <= 1e-15
            got = np.tensordot([c ** (rows - 1 - j) * s ** j for j in range(rows)], tensor, 1)
            for ch, (name, _, spec) in enumerate(info["channels"]):
                if len(spec) == 2:
                    want = amplitudes._current_pair(legs, spec)
                else:
                    prop = _at_half_angle(amplitudes._propagator(name, masses), c, s)
                    if name != "s":         # its slot is (z -+ khat)-slash, - for t
                        slot = np.array([0.0, 0, 0, 1]) + (1.0 if name == "u" else -1.0) * khat
                        assert np.max(np.abs(prop[2] - slash_batch(slot))) <= 1e-15
                    want = amplitudes._slash_chain(legs, spec, prop)
                terms = want.shape[0]
                assert np.max(np.abs(got[ch, :terms] - want)) <= 1e-15 * np.max(np.abs(want))
                assert not got[ch, terms:].any()


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_point_engine_gives_the_batch_bits(proc):
    # amplitude(kin) and find_threshold run the engine on zero-dimensional
    # p and theta; every point must equal its entry in a flat batch exactly
    rng = np.random.default_rng(23)
    lo = 110.0 if proc is ProcessKind.MUON_PAIR else 1e-3
    p = np.exp(rng.uniform(math.log(lo), math.log(1e4), 150))
    th = rng.uniform(0.01, 2 * math.pi - 0.01, 150)
    total, channels, divergent = helicity_amplitudes_batch(proc, p, th)
    for i in range(p.size):
        point = helicity_amplitudes_batch(proc, np.asarray(p[i]), np.asarray(th[i]))
        assert point[0].shape == (4, 4) and point[2].shape == ()
        assert np.array_equal(point[0], total[i]) and point[2] == divergent[i]
        single = amplitude(build_kinematics(proc, float(p[i]), float(th[i])))
        assert np.array_equal(single.entries, total[i])
        for name, mat in channels.items():
            assert np.array_equal(point[1][name], mat[i])
            assert np.array_equal(single.channels[name], mat[i])


def _weight_terms_to_40_digits(proc, p):
    """The weight terms of `proc` at momentum p, in the order `_compile`
    documents, each from its definition at 40 digits."""
    import mpmath
    info = PROCESS_TABLE[proc]
    specs = info["in"] + info["out"]
    chains = sorted({name for name, _, spec in info["channels"] if len(spec) == 4})
    tu = [name for name in chains if name != "s"]
    with mpmath.workdps(40):
        masses = [mpmath.mpf(m) for m in process_masses(proc)]
        m1, m2, m3, m4 = masses
        p = mpmath.mpf(p)
        e1, e2 = mpmath.sqrt(p * p + m1 * m1), mpmath.sqrt(p * p + m2 * m2)
        rs = e1 + e2
        q = mpmath.sqrt((rs * rs - (m3 + m4) ** 2) * (rs * rs - (m3 - m4) ** 2)) / (2 * rs)
        energies = [e1, e2, mpmath.sqrt(q * q + m3 * m3), mpmath.sqrt(q * q + m4 * m4)]
        momenta = [p, p, q, q]
        fermions = [k for k, spec in enumerate(specs) if spec.field != "photon"]
        roots = [mpmath.sqrt(energies[k] + masses[k]) for k in fermions]
        terms = roots + [momenta[k] / root for k, root in zip(fermions, roots)]
        if chains:
            # 1, m1, sqrt(s) - m1, |q|, then c0 - m1 with c0 = E1 - E3 (t) or E1 - E4 (u)
            terms += [mpmath.mpf(1), m1, rs - m1, q]
            terms += [e1 - energies[2 if name == "t" else 3] - m1 for name in tu]
            if tu and sorted(masses[:2]) != sorted(masses[2:]):
                terms.append(p - q)
        return terms


@pytest.mark.parametrize("proc", list(ProcessKind))
def test_weight_terms_against_mpmath(proc):
    # every p-side weight term keeps its digits from 1e-6 MeV to 1e4 MeV,
    # near rest included, where sqrt(s) - m1, c0 - m1 and p - |q| would cancel
    # if formed as differences. The muon pair starts at 1.01 times its
    # threshold: closer in, |q| itself carries the float64 rounding of
    # sqrt(s) - m3 - m4 magnified by p / (p - threshold)
    from qedtangle import amplitudes
    import mpmath
    lo = 1e-6 if proc is not ProcessKind.MUON_PAIR else 1.01 * threshold_momentum(proc)
    p = np.geomspace(lo, 1e4, 40)
    terms = amplitudes._COMPILED[(proc, None)].weight_terms(p, mandelstam_batch(proc, p, 1.0))
    for i, p_i in enumerate(p):
        want = _weight_terms_to_40_digits(proc, p_i)
        assert terms.shape[-1] == len(want)
        with mpmath.workdps(40):
            worst = max(abs((mpmath.mpf(got) - w) / w) for got, w in zip(terms[i], want))
        assert worst <= 2e-15, (p_i, worst)
