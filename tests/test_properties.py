"""Property tests over random (process, p, theta, initial state).

Hypothesis runs derandomized (the same examples on every run) with a
bounded example count and no example database, so the suite stays
deterministic. Angles keep 0.01 rad away from the propagator poles at
theta = 0 and pi; p is log-uniform from 1e-3 MeV (or just above threshold)
to 1e4 MeV.
"""
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qedtangle.amplitudes import helicity_amplitudes_batch
from qedtangle.entanglement import analyze, measures_batch, partial_transpose
from qedtangle.kinematics import ProcessKind, threshold_momentum
from qedtangle.qstate import evolve_batch
from qedtangle.scan import SYMMETRY_AUDIT_TOL, parse_initial

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100, database=None)

_MEASURES = ("min_pt_eig", "negativity", "log_negativity", "entropy")


@st.composite
def points(draw, processes=tuple(ProcessKind)):
    process = draw(st.sampled_from(processes))
    lo = math.log10(max(1e-3, 1.001 * threshold_momentum(process)))
    p = 10.0 ** draw(st.floats(lo, 4.0))
    theta = draw(st.floats(0.01, math.pi - 0.01)) + math.pi * draw(st.integers(0, 1))
    return process, p, theta


def _mixed(entries):
    g = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


#: the CLI's initial states and diagonal mixtures: no coherence between
#: {LL, RR} and {LR, RL}
named_states = (
    st.sampled_from(["unpolarized", "ll", "lr", "rl", "rr", "werner"]).map(
        lambda spec: parse_initial(spec).density.entries)
    | st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
    .filter(lambda w: sum(w) > 1e-3)
    .map(lambda w: np.diag(np.array(w) / sum(w))))

#: random mixed states with complex coherences
complex_states = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).filter(
    lambda x: sum(v * v for v in x) > 1e-3).map(_mixed)

initial_states = named_states | complex_states


def _state(process, p, theta, rho_in):
    """Outgoing state (1, 4, 4) on the scan's path; skips zero-flux examples."""
    amps, _, divergent = helicity_amplitudes_batch(process, np.array([p]), np.array([theta]))
    rho, flux_ok = evolve_batch(amps, rho_in)
    assert not divergent[0]
    assume(flux_ok[0])
    return rho


@PROPERTY
@given(points(), initial_states)
def test_outgoing_state_is_a_density_matrix(point, rho_in):
    rho = _state(*point, rho_in)
    assert abs(np.trace(rho[0]).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0, 0] >= -1e-10
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho))
    assert np.sum(pt_eigs < -1e-10) <= 1


@PROPERTY
@given(points(), complex_states)
def test_real_amplitudes_evolve_complex_coherences(point, rho_in):
    # real amplitudes meet a complex input state: the evolution upcasts and
    # equals the all-complex evaluation
    process, p, theta = point
    amps, _, _ = helicity_amplitudes_batch(process, np.array([p]), np.array([theta]))
    assert amps.dtype == float
    rho, flux_ok = evolve_batch(amps, rho_in)
    want, want_ok = evolve_batch(amps.astype(complex), rho_in)
    assert rho.dtype == complex and np.array_equal(flux_ok, want_ok)
    assume(flux_ok[0])
    assert np.max(np.abs(rho - want)) <= 1e-15
    assert np.array_equal(rho[0], rho[0].conj().T)


@PROPERTY
@given(points(), initial_states)
def test_analyze_equals_measures_batch(point, rho_in):
    rho = _state(*point, rho_in)
    res = {k: v[0] for k, v in measures_batch(rho).items()}
    rep = analyze(rho[0])
    assert rep.pt_eigenvalues[0] == res["min_pt_eig"]
    assert rep.negativity == res["negativity"]
    assert rep.log_negativity == res["log_negativity"]
    assert rep.entropy == res["entropy"]
    assert rep.entangled == res["entangled"]
    assert rep.switching_potential == res["switching"]


def _measures_at(process, p, theta, rho_in):
    res = measures_batch(_state(process, p, theta, rho_in))
    return np.array([res[k][0] for k in _MEASURES])


@PROPERTY
@given(points((ProcessKind.MOLLER, ProcessKind.MUON_PAIR, ProcessKind.ANNIHILATION)),
       initial_states)
def test_theta_plus_pi_symmetry(point, rho_in):
    process, p, theta = point
    a = _measures_at(process, p, theta, rho_in)
    b = _measures_at(process, p, theta + math.pi, rho_in)
    assert np.max(np.abs(a - b)) <= SYMMETRY_AUDIT_TOL


@PROPERTY
@given(points((ProcessKind.BHABHA,)), named_states)
def test_bhabha_reflection_symmetry(point, rho_in):
    # theta -> -theta is a rotation by pi about the beam axis; it flips the
    # sign of input coherences between {LL, RR} and {LR, RL}, so it holds for
    # inputs without them
    process, p, theta = point
    a = _measures_at(process, p, theta, rho_in)
    b = _measures_at(process, p, -theta, rho_in)
    assert np.max(np.abs(a - b)) <= SYMMETRY_AUDIT_TOL
