import math

import numpy as np
import pytest

from qedtangle.amplitudes import helicity_amplitudes_batch
from qedtangle.constants import DEFAULT
from qedtangle.entanglement import (BELL_STATES, analyze, bell_fidelities,
                                    bell_fidelities_phase_opt,
                                    measures_batch, partial_transpose)
from qedtangle.errors import NonHermitianError
from qedtangle.kinematics import ProcessKind
from qedtangle.linalg import hermitian_eigenvalues, hermitian_eigenvalues_batch
from qedtangle.qstate import evolve_batch
from qedtangle.scan import ScanConfig, parse_initial, run_scan
from spectral_bounds import measure_deviations

RNG = np.random.default_rng(13)


def bell_density(label):
    b = BELL_STATES[label]
    return np.outer(b, b.conj())


def random_density(n=1):
    g = RNG.normal(size=(n, 4, 4)) + 1j * RNG.normal(size=(n, 4, 4))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.einsum('nii->n', rho).real[:, None, None]
    return rho if n > 1 else rho[0]


def random_local_unitary():
    def u2():
        g = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        q, _ = np.linalg.qr(g)
        return q
    return np.kron(u2(), u2())


# ---------------------------------------------------------------- eigensolver

def test_eigenvalues_diagonal():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, 2, 3, 4])), [1, 2, 3, 4])
    assert np.allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)


def test_eigenvalues_trace_identities():
    for _ in range(10):
        g = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        h = g + g.conj().T
        eig = hermitian_eigenvalues(h)
        assert np.sum(eig) == pytest.approx(np.trace(h).real, abs=1e-12 * np.abs(h).max())
        assert np.sum(eig ** 2) == pytest.approx(np.trace(h @ h).real, rel=1e-12)


def test_eigenvalues_against_reference_solver():
    # the batch solver is numpy's eigvalsh on a complex stack and the Jacobi
    # kernel on a real one; check both against the trace identities
    # sum l = tr H and sum l^2 = tr H^2 = sum |H_ij|^2
    g = RNG.normal(size=(300, 4, 4))
    real = g @ g.transpose(0, 2, 1)
    real /= np.einsum('nii->n', real)[:, None, None]
    for h in (random_density(300), real):
        eig = hermitian_eigenvalues_batch(h)
        assert eig.shape == (300, 4) and np.all(np.diff(eig, axis=1) >= 0.0)
        assert np.max(np.abs(np.sum(eig, axis=1) - np.einsum('nii->n', h).real)) < 1e-14
        tr_h2 = np.sum(np.abs(h) ** 2, axis=(1, 2))
        assert np.max(np.abs(np.sum(eig ** 2, axis=1) / tr_h2 - 1.0)) < 1e-13


def test_eigenvalues_degenerate_and_zero():
    assert np.allclose(hermitian_eigenvalues(np.zeros((4, 4))), [0.0] * 4)
    h = np.diag([2.0, 2.0, 2.0, 2.0])
    assert np.allclose(hermitian_eigenvalues(h), [2.0] * 4)


def test_non_hermitian_rejected():
    h = np.eye(4, dtype=complex)
    h[0, 1] = 1.0
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(h)


# ---------------------------------------------------------------- partial transpose

def test_partial_transpose_product_state_stays_psd():
    a = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    b = np.array([[0.4, -0.3j], [0.3j, 0.6]])
    rho = np.kron(a, b)
    pt = partial_transpose(rho)
    assert np.allclose(pt, np.kron(a, b.T))
    assert np.min(np.linalg.eigvalsh(pt)) > -1e-12


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(bell_density("phi+"))
    eig = hermitian_eigenvalues(pt)
    assert np.allclose(eig, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution():
    rho = random_density()
    assert np.allclose(partial_transpose(partial_transpose(rho)), rho)


def test_partial_transpose_explicit_indices():
    rho = np.arange(16, dtype=complex).reshape(4, 4)
    pt = partial_transpose(rho)
    want = np.array([[0, 4, 2, 6], [1, 5, 3, 7],
                     [8, 12, 10, 14], [9, 13, 11, 15]], dtype=complex)
    assert np.allclose(pt, want)


# ---------------------------------------------------------------- analyze

def test_analyze_bell_state():
    rep = analyze(bell_density("psi-"))
    assert rep.negativity == pytest.approx(0.5, abs=1e-12)
    assert rep.log_negativity == pytest.approx(1.0, abs=1e-12)
    assert rep.entropy == pytest.approx(0.0, abs=1e-10)
    assert rep.purity == pytest.approx(1.0, abs=1e-12)
    assert rep.entangled and not rep.switching_potential
    assert rep.closest_bell[0] == "psi-"


def test_analyze_maximally_mixed():
    rep = analyze(np.eye(4) / 4)
    assert rep.negativity == pytest.approx(0.0, abs=1e-14)
    assert rep.log_negativity == pytest.approx(0.0, abs=1e-14)
    assert rep.entropy == pytest.approx(math.log(4.0), abs=1e-12)
    assert not rep.entangled
    assert not rep.switching_potential  # |min PT eig| = 1/4 is far above alpha^3
    assert abs(rep.pt_eigenvalues[0]) == pytest.approx(0.25, abs=1e-12)


def test_analyze_depolarized_bell():
    rho = (2 / 3) * bell_density("phi-") + (1 / 3) * np.eye(4) / 4
    rep = analyze(rho)
    assert rep.pt_eigenvalues[0] == pytest.approx(-0.25, abs=1e-12)
    assert rep.negativity == pytest.approx(0.25, abs=1e-12)
    assert rep.log_negativity == pytest.approx(math.log2(1.5), abs=1e-12)


def _det_verdict(rho, entangled, min_pt_eig, band=1e-8):
    """(disagreements, excluded) between `entangled` and det(rho^T_B) < 0.

    A two-qubit state is entangled iff det(rho^T_B) < 0 (Augusiak,
    Demianowicz & Horodecki, PRA 77, 030301 (2008)); the determinant comes
    from an LU factorisation, not an eigensolver. Points with
    |min PT eigenvalue| <= band, where the sign of det is not resolved, are
    excluded.
    """
    det_negative = np.linalg.det(partial_transpose(rho)).real < 0.0
    keep = np.abs(min_pt_eig) > band
    return int(np.sum(det_negative[keep] != entangled[keep])), int(np.sum(~keep))


def test_entangled_iff_negative_pt_determinant_random_states():
    rho = random_density(2000)
    res = measures_batch(rho)
    wrong, excluded = _det_verdict(rho, res["entangled"], res["min_pt_eig"])
    print(f"random states: {excluded} of 2000 excluded")
    assert wrong == 0 and excluded < 20
    assert 0 < np.sum(res["entangled"]) < 2000


@pytest.mark.parametrize("process, initial, p_max, p_log", [
    (ProcessKind.MOLLER, "unpolarized", 3.0, False),
    (ProcessKind.BHABHA, "unpolarized", 3.0, False),
    (ProcessKind.COMPTON, "werner", 1e4, True),
])
def test_entangled_iff_negative_pt_determinant_on_scans(process, initial, p_max, p_log):
    rng = np.random.default_rng(list(ProcessKind).index(process) + 101)
    jitter = rng.uniform(-1e-3, 1e-3, size=3)
    cfg = ScanConfig(process=process, initial=initial, p_min=0.01 * (1 + jitter[0]),
                     p_max=p_max * (1 + jitter[1]), p_steps=40, p_log=p_log,
                     theta_min=abs(jitter[2]), theta_max=abs(jitter[2]) + 2 * math.pi,
                     theta_steps=60)
    rows = [r for r in run_scan(cfg) if r.status == "ok"]
    p = np.array([r.p for r in rows])
    theta = np.array([r.theta for r in rows])
    amps, _, _ = helicity_amplitudes_batch(process, p, theta)
    rho, _ = evolve_batch(amps, parse_initial(initial).density.entries)
    entangled = np.array([r.entangled for r in rows])
    wrong, excluded = _det_verdict(rho, entangled, np.array([r.min_pt_eig for r in rows]))
    print(f"{process.value} scan: {excluded} of {len(rows)} excluded")
    assert wrong == 0 and excluded < 0.05 * len(rows)
    assert 0 < np.sum(entangled) < len(rows)


def test_at_most_one_negative_pt_eigenvalue():
    rho = random_density(2000)
    eigs = hermitian_eigenvalues_batch(partial_transpose(rho))
    assert int(np.max(np.sum(eigs < -1e-10, axis=1))) <= 1


def test_negativity_local_unitary_invariance():
    for _ in range(20):
        rho = random_density()
        u = random_local_unitary()
        a = analyze(rho).negativity
        b = analyze(u @ rho @ u.conj().T).negativity
        assert abs(a - b) < 1e-10


def test_entropy_global_unitary_invariance():
    rho = random_density()
    g = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    a = analyze(rho).entropy
    b = analyze(q @ rho @ q.conj().T).entropy
    assert abs(a - b) < 1e-10


def test_measure_bounds():
    res = measures_batch(random_density(500))
    assert np.all(res["negativity"] >= 0) and np.all(res["negativity"] <= 0.5 + 1e-12)
    assert np.all(res["log_negativity"] <= 1.0 + 1e-12)
    assert np.all(res["entropy"] >= -1e-12)
    assert np.all(res["entropy"] <= math.log(4.0) + 1e-9)
    assert np.allclose(res["log_negativity"], np.log2(2 * res["negativity"] + 1))


def test_switching_potential_threshold():
    alpha3 = DEFAULT.alpha3
    # separable state with a tiny PT eigenvalue: |min| <= alpha^3 flags it
    eps = 0.5 * alpha3
    rho = np.diag([0.5 - eps, eps, 0.25, 0.25]).astype(complex)
    rep = analyze(rho)
    assert abs(rep.pt_eigenvalues[0]) <= alpha3
    assert rep.switching_potential
    rep = analyze(np.diag([0.4, 0.3, 0.2, 0.1]))
    assert not rep.switching_potential


def test_entropy_zero_iff_pure():
    rep = analyze(bell_density("phi+"))
    assert rep.entropy == pytest.approx(0.0, abs=1e-9)
    assert rep.purity == pytest.approx(1.0, abs=1e-9)
    mixed = analyze(np.diag([0.7, 0.3, 0.0, 0.0]))
    assert mixed.entropy > 0.1 and mixed.purity < 1.0


def test_phase_optimized_fidelity():
    # a Bell state dressed with local phases keeps optimized fidelity 1
    b = BELL_STATES["phi-"]
    d = np.diag([1.0, np.exp(0.7j), np.exp(-1.1j), np.exp(0.7j - 1.1j)])
    rho = d @ np.outer(b, b.conj()) @ d.conj().T
    raw = bell_fidelities(rho)
    opt = bell_fidelities_phase_opt(rho)
    assert raw["phi-"] < 0.99          # raw fidelity degraded by the phases
    assert opt["phi-"] == pytest.approx(1.0, abs=1e-12)
    rep = analyze(rho)
    assert rep.closest_bell_phase_opt[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("process", list(ProcessKind))
def test_analyze_and_scans_share_one_verdict_rule(process):
    # analyze (LAPACK) and the scans' generic path (the Jacobi kernel on real
    # states, no mirror blocks) share `_measures`: the measures agree within
    # the bounds the two solvers' measured errors give, and so do the
    # verdicts outside that band around their cuts; a complex state takes
    # LAPACK on both paths and agrees bit for bit, for every initial kind
    rng = np.random.default_rng(31)
    lo = 110.0 if process is ProcessKind.MUON_PAIR else 0.02
    for initial in ("unpolarized", "ll", "lr", "rl", "rr", "werner",
                    "diag:0.1,0.2,0.3,0.4", "diag:0.25,0.05,0.3,0.4"):
        rho_in = parse_initial(initial).density.entries
        p = np.exp(rng.uniform(math.log(lo), math.log(200.0), 12))
        theta = rng.uniform(0.05, 2 * math.pi - 0.05, 12)
        amps, _, divergent = helicity_amplitudes_batch(process, p, theta)
        states, flux_ok = evolve_batch(amps, rho_in)
        assert not divergent.any() and states.dtype == float
        for state in states[flux_ok]:
            row = {k: v[0] for k, v in measures_batch(state[None]).items()}
            measure_deviations(analyze(state), row)
            complex_state = state.astype(complex)
            report = analyze(complex_state)
            res = measures_batch(complex_state[None])
            assert report.pt_eigenvalues[0] == res["min_pt_eig"][0]
            assert report.negativity == res["negativity"][0]
            assert report.log_negativity == res["log_negativity"][0]
            assert report.entropy == res["entropy"][0]
            assert report.entangled == res["entangled"][0]
            assert report.switching_potential == res["switching"][0]
