"""Mirror symmetry: reflection in the scattering plane flips every helicity.

The engine obeys M = D_out XX M XX D_in, XX = sigma_x (x) sigma_x, with the
diagonal signs D of `amplitudes.MIRROR_SIGNS`. For a mirror-invariant input
a scan evolves the input's two 2 x 2 mirror blocks (`qstate.evolve_batch` on
the MirrorInput of `qstate.evolution_input`)
and takes both spectra from the evolved blocks (`entanglement.block_spectra`);
these tests check the relation, the block spectra against LAPACK and a
40-digit eigensolve of the 4 x 4 state, which scans take the block path, the
statuses that path gives, and the Compton consequence A^2 = -1.
"""
import math

import numpy as np
import pytest

from qedtangle import amplitudes, entanglement, scan
from qedtangle.amplitudes import MIRROR_SIGNS, helicity_amplitudes_batch, on_pole
from qedtangle.entanglement import block_spectra, partial_transpose
from qedtangle.kinematics import ProcessKind, threshold_momentum
from qedtangle.qstate import MirrorInput, MirrorState, evolution_input, evolve_batch
from qedtangle.scan import STATUSES, ScanConfig, emit_csv, parse_initial, run_scan

FERMION_PAIR = [1.0, -1.0, -1.0, 1.0]


def seeded(process=None):
    """A test's own generator: one stream per process, one for no process."""
    return np.random.default_rng([29, 0 if process is None else 1 + list(ProcessKind).index(process)])


def random_points(rng, process, n):
    p = threshold_momentum(process) + 10.0 ** rng.uniform(-2.0, 4.0, n)
    return p, rng.uniform(-7.0, 14.0, n)


def mirrored(m, d_left, d_right):
    """diag(d_left) XX m XX diag(d_right) over the last two axes."""
    return d_left[:, None] * m[..., ::-1, ::-1] * d_right


def invariant_inputs(rng, d_in, n, dtype=float):
    """Random states with D_in XX rho XX D_in == rho, real or complex."""
    g = rng.normal(size=(n, 4, 4)).astype(dtype)
    if dtype is complex:
        g += 1j * rng.normal(size=(n, 4, 4))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho = 0.5 * (rho + mirrored(rho, d_in, d_in))
    return rho / np.einsum('nii->n', rho).real[:, None, None]


def engine_points(rng, process, rho_in, points=random_points):
    """(amplitudes, inputs) at one random point per input (N,4,4), the
    divergent points dropped."""
    amps, _, divergent = helicity_amplitudes_batch(process, *points(rng, process, len(rho_in)))
    return amps[~divergent], rho_in[~divergent]


def block_path(process, amps, rho_in):
    """(PT spectrum, state spectrum), each (N, 4), on the scan's block path,
    each point with its own input."""
    states = [evolve_batch(m[None], evolution_input(r, *MIRROR_SIGNS[process]))[0]
              for m, r in zip(amps, rho_in)]
    assert all(isinstance(state, MirrorState) for state in states)
    return tuple(np.concatenate(s) for s in zip(*map(block_spectra, states)))


def takes_block_path(process, rho_in):
    return isinstance(evolution_input(rho_in, *MIRROR_SIGNS[process]), MirrorInput)


def lapack_path(amps, rho_in):
    """(PT spectrum, state spectrum) of the 4 x 4 states from `evolve_batch`."""
    rho = np.stack([evolve_batch(m[None], r)[0][0] for m, r in zip(amps, rho_in)])
    return np.linalg.eigvalsh(partial_transpose(rho)), np.linalg.eigvalsh(rho)


def spectra_to_40_digits(amps, rho_in):
    """(PT spectrum, state spectrum) of M rho_in M+ / Tr(...), formed and
    eigensolved at 40 digits from the same float64 M and rho_in."""
    import mpmath
    pt, nu = [], []
    with mpmath.workdps(40):
        for m, r in zip(amps, rho_in):
            m = mpmath.matrix(m.tolist())
            rho = m * mpmath.matrix(r.tolist()) * m.H
            rho = (rho + rho.H) / (2 * sum(rho[i, i] for i in range(4)))
            # (ij, kl) -> (il, kj): transpose on the second qubit
            rho_tb = mpmath.matrix(4, 4)
            for a in range(4):
                for b in range(4):
                    rho_tb[a, b] = rho[a - a % 2 + b % 2, b - b % 2 + a % 2]
            for h, out in ((rho_tb, pt), (rho, nu)):
                out.append(sorted(float(mpmath.re(x)) for x in mpmath.eighe(h, eigvals_only=True)))
    return np.array(pt).reshape(-1, 4), np.array(nu).reshape(-1, 4)


def assert_block_spectra_are_exact(process, amps, rho_in):
    """Both block spectra against eigvalsh of the 4 x 4 states to 2^-51.
    LAPACK's own error on these states reaches about 1.2e-15, so a point
    that misses is held to a 40-digit eigensolve at 1e-15 instead."""
    got = block_path(process, amps, rho_in)
    lapack = lapack_path(amps, rho_in)
    miss = np.max([np.max(np.abs(g - w), axis=1) for g, w in zip(got, lapack)], axis=0) > 2.0 ** -51
    exact = spectra_to_40_digits(amps[miss], rho_in[miss])
    for g, e in zip(got, exact):
        assert np.max(np.abs(g[miss] - e), initial=0.0) <= 1e-15


def test_mirror_signs_follow_the_legs():
    for process, (d_out, d_in) in MIRROR_SIGNS.items():
        assert d_in.tolist() == ([1.0, 1.0, -1.0, -1.0] if process is ProcessKind.COMPTON
                                 else FERMION_PAIR)
    assert MIRROR_SIGNS[ProcessKind.ANNIHILATION][0].tolist() == [1.0] * 4
    assert MIRROR_SIGNS[ProcessKind.COMPTON][0].tolist() == [1.0, 1.0, -1.0, -1.0]
    assert MIRROR_SIGNS[ProcessKind.MOLLER][0].tolist() == FERMION_PAIR


@pytest.mark.parametrize("process", list(ProcessKind))
def test_engine_obeys_the_mirror_relation(process):
    """M = D_out XX M XX D_in on random points; the residual is 0 today."""
    d_out, d_in = MIRROR_SIGNS[process]
    amps, _, divergent = helicity_amplitudes_batch(process, *random_points(seeded(process),
                                                                           process, 500))
    amps = amps[~divergent]
    scale = np.max(np.abs(amps), axis=(1, 2))
    residual = np.max(np.abs(mirrored(amps, d_out, d_in) - amps), axis=(1, 2))
    assert np.all(residual <= 1e-15 * scale)


@pytest.mark.parametrize("process", list(ProcessKind))
def test_rows_request_gives_the_full_matrix_rows_bit_for_bit(process):
    """rows=2 contracts only rows 0 and 1 of the compiled tensor; they, the
    channels' rows and the divergent mask keep every bit of the full
    engine's, on a grid through the pole rays (and below threshold) and on
    a flat list of random points."""
    rays = np.array([0.0, math.pi])
    poles = rays[on_pole(process, rays)]
    theta = np.concatenate([poles, poles + 2 * math.pi, np.linspace(-7.0, 14.0, 61)])
    grid = (np.broadcast_to(np.geomspace(1e-4, 1e4, 40), (theta.size, 40)), theta[:, None])
    for args in [grid, random_points(seeded(process), process, 2000)]:
        full, full_channels, full_divergent = helicity_amplitudes_batch(process, *args)
        top, channels, divergent = helicity_amplitudes_batch(process, *args, rows=2)
        assert top.shape == full.shape[:-2] + (2, 4)
        assert top.tobytes() == np.ascontiguousarray(full[..., :2, :]).tobytes()
        for name, mat in channels.items():
            assert mat.tobytes() == np.ascontiguousarray(full_channels[name][..., :2, :]).tobytes()
        assert np.array_equal(divergent, full_divergent)
        if args is grid:        # the grid holds pole and below-threshold points
            assert full_divergent.any() == (poles.size > 0)
            assert np.isnan(full).any() == (process is ProcessKind.MUON_PAIR or poles.size > 0)
    with pytest.raises(ValueError, match="rows"):
        helicity_amplitudes_batch(process, 1.0, 1.0, rows=3)


@pytest.mark.parametrize("initial", ["unpolarized", "werner", "diag:0.4,0.3,0.2,0.1", "ll"])
def test_state_stage_asks_for_rows_0_and_1_exactly_for_mirror_blocks(monkeypatch, initial):
    real, asked = amplitudes.helicity_amplitudes_batch, []

    def engine(*args, rows=4, **kwargs):
        asked.append(rows)
        return real(*args, rows=rows, **kwargs)

    monkeypatch.setattr(scan, "helicity_amplitudes_batch", engine)
    rho_in = evolution_input(parse_initial(initial).density.entries,
                             *MIRROR_SIGNS[ProcessKind.MOLLER])
    scan._states(ProcessKind.MOLLER, np.array([0.5, 1.0]), np.array([1.0, 2.0]), rho_in)
    assert asked == [2 if isinstance(rho_in, MirrorInput) else 4]
    assert isinstance(rho_in, MirrorInput) == (initial in ("unpolarized", "werner"))


@pytest.mark.parametrize("process", list(ProcessKind))
def test_block_spectra_match_eigvalsh(process):
    """Real inputs, as every named input is: random invariant ones and the
    unpolarized one."""
    rng = seeded(process)
    d_in = MIRROR_SIGNS[process][1]
    rho_in = np.concatenate([invariant_inputs(rng, d_in, 300),
                             np.tile(np.eye(4) / 4.0, (100, 1, 1))])
    assert_block_spectra_are_exact(process, *engine_points(rng, process, rho_in))


def threshold_to_1e4(rng, process, n):
    """p log-uniform in p - threshold from 1e-5 MeV to 1e4 MeV - threshold,
    theta uniform in [-7, 14]."""
    low = threshold_momentum(process)
    return low + 10.0 ** rng.uniform(-5.0, math.log10(1e4 - low), n), rng.uniform(-7.0, 14.0, n)


#: every named input that is mirror-invariant for the process, and a symmetric mixture
INVARIANT_INPUTS = [(process, initial) for process in ProcessKind
                    for initial in ("unpolarized", "werner", "diag:0.3,0.2,0.2,0.3")
                    if not (process is ProcessKind.COMPTON and initial == "werner")]


@pytest.mark.parametrize("process, initial", INVARIANT_INPUTS)
def test_block_spectra_of_every_invariant_input(process, initial):
    rho_in = parse_initial(initial).density.entries
    assert takes_block_path(process, rho_in)
    amps, rho_in = engine_points(seeded(process), process, np.tile(rho_in, (200, 1, 1)),
                                 threshold_to_1e4)
    assert_block_spectra_are_exact(process, amps, rho_in)


@pytest.mark.parametrize("process", list(ProcessKind))
def test_block_spectra_of_complex_states_against_mpmath(process):
    """Complex inputs: LAPACK's own error reaches about 1e-15 here, so the
    reference is the 40-digit eigensolve alone."""
    rng = seeded(process)
    amps, rho_in = engine_points(rng, process,
                                 invariant_inputs(rng, MIRROR_SIGNS[process][1], 12, complex))
    for got, want in zip(block_path(process, amps, rho_in), spectra_to_40_digits(amps, rho_in)):
        assert np.max(np.abs(got - want)) <= 1e-15


def test_block_spectra_of_real_states_in_the_signed_bell_basis():
    """A fermion pair's blocks are those of {LL +- RR, LR -+ RL}/sqrt2: both
    spectra of a state built there from two blocks, against LAPACK."""
    bell = np.array([[1, 0, 0, 1], [0, 1, -1, 0], [1, 0, 0, -1], [0, 1, 1, 0]]) / math.sqrt(2.0)
    rng = seeded()
    for _ in range(200):
        blocks = np.zeros((4, 4))
        for half in (slice(0, 2), slice(2, 4)):
            g = rng.normal(size=(2, 2))
            blocks[half, half] = g @ g.T
        blocks /= np.trace(blocks)
        h = bell.T @ blocks @ bell
        state = MirrorState(y=blocks[[0, 2], [0, 2]][:, None], z=blocks[[1, 3], [1, 3]][:, None],
                            x=blocks[[0, 2], [1, 3]][:, None],
                            sign=FERMION_PAIR[0] * FERMION_PAIR[1])
        pt, nu = block_spectra(state)
        want_nu = np.sort(np.concatenate([np.linalg.eigvalsh(blocks[:2, :2]),
                                          np.linalg.eigvalsh(blocks[2:, 2:])]))
        assert np.max(np.abs(nu[0] - want_nu)) <= 1e-14 * np.max(want_nu)
        assert np.max(np.abs(nu[0] - np.linalg.eigvalsh(h))) <= 1e-14
        assert np.max(np.abs(pt[0] - np.linalg.eigvalsh(partial_transpose(h)))) <= 1e-14


def _count_spectra_and_evolutions(monkeypatch):
    """Eigensolver calls and 4 x 4 states (`evolve_batch` results that are
    not a MirrorState), as the lengths of their stacks."""
    calls = []
    for module, name in ((entanglement, "hermitian_eigenvalues_batch"), (scan, "evolve_batch")):
        real = getattr(module, name)

        def counting(*args, real=real):
            result = real(*args)
            if not isinstance(result[0], MirrorState):
                calls.append(len(args[0]))
            return result

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("process, initial, block", [
    (ProcessKind.MOLLER, "unpolarized", True),
    (ProcessKind.MOLLER, "diag:0.3,0.2,0.2,0.3", True),
    (ProcessKind.MOLLER, "werner", True),
    (ProcessKind.ANNIHILATION, "werner", True),
    (ProcessKind.COMPTON, "unpolarized", True),
    (ProcessKind.COMPTON, "werner", False),
    (ProcessKind.MOLLER, "ll", False),
    (ProcessKind.MOLLER, "diag:0.4,0.3,0.2,0.1", False),
])
def test_scan_takes_the_block_path_for_mirror_invariant_inputs(monkeypatch, process,
                                                               initial, block):
    """The block path forms no 4 x 4 state and calls no eigensolver."""
    calls = _count_spectra_and_evolutions(monkeypatch)
    result = run_scan(ScanConfig(process=process, initial=initial, p_min=0.2, p_max=3.0,
                                 p_steps=12, theta_steps=10))
    assert np.sum(result.status == 0) > 0
    assert (len(calls) == 0) == block


def test_block_path_scan_is_independent_of_jobs(tmp_path):
    cfg = dict(process=ProcessKind.MOLLER, p_steps=110, theta_steps=100)
    for jobs in (1, 2):
        emit_csv(run_scan(ScanConfig(**cfg, jobs=jobs)), tmp_path / f"jobs{jobs}.csv")
    assert (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs2.csv").read_bytes()


def _injected_engine(monkeypatch, nan_at, zero_at, divergent_at):
    """scan's engine with NaN amplitudes (as below threshold), zero ones (no
    flux) and divergent ones (flagged, with the inf and NaN entries of a
    pole) at given (p, theta), in the rows the caller asks for."""
    real = amplitudes.helicity_amplitudes_batch

    def engine(process, p, theta, *args, **kwargs):
        total, channels, divergent = real(process, p, theta, *args, **kwargs)
        p, theta = np.broadcast_arrays(p, theta)

        def hit(points):
            near = np.logical_or.reduce([(p == a) & (theta == b) for a, b in points])
            return near[..., None, None]

        total = np.where(hit(nan_at), math.nan, np.where(hit(zero_at), 0.0, total))
        pole = np.where(np.eye(4, dtype=bool), math.inf, math.nan)[:total.shape[-2]]
        total = np.where(hit(divergent_at), pole, total)
        return total, channels, divergent | hit(divergent_at)[..., 0, 0]

    monkeypatch.setattr(scan, "helicity_amplitudes_batch", engine)


def test_block_path_statuses_match_the_rho_path(monkeypatch):
    """Injected NaN, zero and divergent amplitudes on a mirror-invariant scan
    give the statuses of the 4 x 4 state stage, in its order: divergent, then
    NaN amplitudes, then no flux."""
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_min=0.2, p_max=3.0, p_steps=12, theta_steps=10)
    p_grid, theta_grid = cfg.p_grid(), cfg.theta_grid()
    at = [(p_grid[i], theta_grid[j]) for i, j in [(0, 0), (3, 2), (11, 9), (5, 5), (7, 1)]]
    _injected_engine(monkeypatch, nan_at=at[:2], zero_at=at[2:4], divergent_at=[at[0], at[4]])
    rho_in = parse_initial(cfg.initial).density.entries
    assert takes_block_path(cfg.process, rho_in)
    result = run_scan(cfg)
    want = scan._evaluate(cfg.process, p_grid, theta_grid[:, None], rho_in)
    status = result._grid("status")
    assert np.array_equal(status, want["status"])
    assert [STATUSES[status[j, i]] for i, j in [(0, 0), (3, 2), (11, 9), (5, 5), (7, 1)]] == [
        "divergent", "below-threshold", "unfilterable", "unfilterable", "divergent"]
    assert set(STATUSES[s] for s in status.ravel()) == {"ok", "divergent", "below-threshold",
                                                        "unfilterable"}
    ok = status == 0
    for name in ("min_pt_eig", "negativity", "log_negativity", "entropy"):
        assert np.array_equal(np.isnan(result._grid(name)), ~ok)
        assert np.max(np.abs(result._grid(name) - want[name])[ok]) <= 2e-15
    for name in ("entangled", "switching"):
        assert np.array_equal(result._grid(name), want[name])


@pytest.mark.parametrize("initial", ["unpolarized", "diag:0.3,0.2,0.2,0.3",
                                     "diag:0.1,0.4,0.4,0.1"])
def test_compton_mirror_invariant_spectra_are_doubly_degenerate(initial):
    """A = D_out XX has A^2 = -1 for Compton, so both spectra pair up: the
    blocks of a real state are complex conjugates, and LAPACK sees it on the
    4 x 4 state without them."""
    rho_in = parse_initial(initial).density.entries
    amps, rho_in = engine_points(seeded(ProcessKind.COMPTON), ProcessKind.COMPTON,
                                 np.tile(rho_in, (400, 1, 1)))
    for spectra in (block_path(ProcessKind.COMPTON, amps, rho_in), lapack_path(amps, rho_in)):
        for eigs in spectra:
            assert np.max(eigs[:, 1] - eigs[:, 0]) <= 1e-15
            assert np.max(eigs[:, 3] - eigs[:, 2]) <= 1e-15


def test_compton_entanglement_needs_polarised_beams():
    """A doubly degenerate PT spectrum cannot hold the one negative eigenvalue
    of an entangled two-qubit state: mirror-invariant inputs never entangle."""
    grid = dict(process=ProcessKind.COMPTON, p_min=0.01, p_max=1e4, p_steps=100,
                p_log=True, theta_steps=100)
    for initial in ("unpolarized", "diag:0.3,0.2,0.2,0.3"):
        result = run_scan(ScanConfig(**grid, initial=initial))
        assert np.all(result.status == 0)
        assert not result.entangled.any()
    for initial in ("werner", "ll"):
        assert run_scan(ScanConfig(**grid, initial=initial)).entangled.sum() > 0
