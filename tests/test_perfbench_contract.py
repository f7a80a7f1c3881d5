"""What the benchmark in perfbench/ needs from the program.

perfbench/ wraps program functions by name and runs its own output checks;
an API change that breaks it would pass the rest of the suite. This module
resolves every traced function, runs a few traced queries, and runs
perfbench's self-test.
"""
import importlib
import importlib.util
import math
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from qedtangle import qstate
from qedtangle.amplitudes import amplitude
from qedtangle.entanglement import analyze
from qedtangle.errors import QedTangleError
from qedtangle.kinematics import ProcessKind, build_kinematics
from qedtangle.scan import parse_initial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for module_name, attr, _ in _load("tracer").TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_constants_the_benchmark_reads():
    from qedtangle.constants import DEFAULT
    for name in ("m_e", "m_mu", "alpha", "e2", "alpha3"):
        assert isinstance(getattr(DEFAULT, name), float), name


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_trace_mode_runs_on_queries(monkeypatch):
    # child.py puts perfbench/ and src/ on sys.path; monkeypatch restores it
    monkeypatch.setattr(sys, "path", list(sys.path))
    child, tracer = _load("child"), _load("tracer")
    ops = child.workloads.query_stream(0, 0)
    ops = ([op for op in ops if op["kind"] == "point"][:6]
           + [op for op in ops if op["kind"] == "bisect"][:2])
    spans = tracer.Tracer()
    spans.install()
    try:
        records = child.query_pass(ops)["records"]
    finally:
        spans.uninstall()
    assert not [rec["error"] for rec in records if "error" in rec]
    layers = tracer.layer_metrics(spans.spans, 1)
    assert isinstance(layers["entanglement.fragile"], int)
    # the tracer counts find_threshold's engine calls, several levels per call
    calls = sum(_engine_calls(rec["evals"]) for rec in records if rec["kind"] == "bisect")
    assert layers["scan.find_threshold.evals"] == calls > 0


@pytest.mark.parametrize("cfg, fragile", [
    # the mirror-block state stage, on one thread
    (dict(process=ProcessKind.MOLLER, p_steps=80, theta_steps=60), 0),
    # Jacobi-kernel spectra of every coherence, on the thread pool
    (dict(process=ProcessKind.COMPTON, initial="werner", p_min=0.05, p_max=3.0,
          p_steps=90, theta_steps=100, jobs=2), 6),
    # the mirror-block state stage across the switching boundary near
    # theta = pi/2, p* = 1.0517 MeV: the count is nonzero only if the block
    # measures report through measures_batch
    (dict(process=ProcessKind.MOLLER, initial="unpolarized", p_min=1.0516, p_max=1.0518,
          p_steps=40, theta_min=1.5698, theta_max=1.5718, theta_steps=10), 14),
])
def test_traced_scan_counts_what_the_scan_did(monkeypatch, cfg, fragile):
    # the tracer counts an engine call's points as np.size of its p argument,
    # which the scan passes as a broadcast view over each chunk's grid, and
    # reads measures_batch's tolerance by position, which holds while
    # _evaluate passes measures_batch the state alone
    from qedtangle.constants import DEFAULT
    from qedtangle.scan import STATUSES, ScanConfig, _chunks, run_scan
    monkeypatch.setattr(sys, "path", list(sys.path))
    tracer = _load("tracer")
    importlib.import_module("qedtangle.cli")     # every traced module is loaded, as in child.py
    spans = tracer.Tracer()
    spans.install()
    try:
        result = run_scan(ScanConfig(**cfg))
    finally:
        spans.uninstall()
    layers = tracer.layer_metrics(spans.spans, cfg.get("jobs", 1))
    live = result.status != STATUSES.index("below-threshold")
    assert layers["amplitudes.helicity_amplitudes_batch.points"] == live.sum() == result.status.size
    ok = result.status == STATUSES.index("ok")
    assert layers["entanglement.fragile"] == np.sum(np.abs(result.min_pt_eig[ok]) <= DEFAULT.alpha3)
    assert layers["entanglement.fragile"] == fragile
    # every chunk, on the mirror blocks or not, evolves under the traced evolve_batch
    chunks = len(list(_chunks(result.theta_grid.size, result.p_grid.size)))
    assert sum(span[1] == "qstate.evolve_batch" for span in spans.spans) == chunks
    assert layers["qstate.evolve_batch.s"] > 0


def _engine_calls(evals: int) -> int:
    """Engine calls of a bisection that `bisection_evals` counts as `evals`
    points: the first carries the bracket ends and the next BISECT_LEVELS
    levels' midpoints, each later one the next BISECT_LEVELS levels'."""
    from qedtangle.scan import BISECT_LEVELS
    return max(1, math.ceil((evals - 2) / BISECT_LEVELS))


def _replay(lo: float, hi: float, p_star: float):
    """The midpoints `workloads.bisection_evals` steps through, in order."""
    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        yield mid
        lo, hi = (mid, hi) if mid < p_star else (lo, mid)


def _bisections(monkeypatch):
    """(op, p*, the p of each engine call) for the Moller bisections of the
    benchmark's `queries` stream (seed 1, pass 0)."""
    from qedtangle import scan
    from qedtangle.kinematics import ProcessKind
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    real = scan.helicity_amplitudes_batch
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.asarray(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(scan, "helicity_amplitudes_batch", counting)
    ops = [op for op in workloads.query_stream(1, 0) if op["kind"] == "bisect"]
    assert len(ops) == workloads.BISECTIONS_PER_PASS
    for op in ops:
        calls.clear()
        p_star = scan.find_threshold(ProcessKind.MOLLER, "unpolarized", op["theta"],
                                     (op["lo"], op["hi"]))
        yield op, p_star, list(calls)


def test_bisection_walk_matches_the_replay(monkeypatch):
    # perfbench's `bisection_evals` replays the midpoints from (lo, hi, p*);
    # each engine call holds the midpoints of the next BISECT_LEVELS levels,
    # the last one only the levels the walk still takes, and the walk
    # through them must be that replay, point for point
    from qedtangle.scan import BISECT_LEVELS
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for op, p_star, calls in _bisections(monkeypatch):
        replay = list(_replay(op["lo"], op["hi"], p_star))
        evals = workloads.bisection_evals(op["lo"], op["hi"], p_star)
        assert len(replay) == evals - 2
        assert len(calls) == _engine_calls(evals)
        assert calls[0][:2].tolist() == [op["lo"], op["hi"]]
        trees = [calls[0][2:], *calls[1:]]
        last = len(replay) - BISECT_LEVELS * (len(trees) - 1)
        assert [t.shape for t in trees] == [(2 ** BISECT_LEVELS - 1,)] * (len(trees) - 1) + [
            (2 ** last - 1,)]
        walked = []
        for t in trees:
            node = 0
            while node < t.size and len(walked) < len(replay):
                walked.append(t[node].item())
                node = 2 * node + (2 if t[node] < p_star else 1)
        assert walked == replay


def test_bisections_leave_out_midpoints_the_walk_cannot_reach(monkeypatch):
    # the benchmark's bisections take 21-23 steps, so their last engine call
    # needs 1-3 of the BISECT_LEVELS levels: they send fewer points to the
    # engine than full trees on every call would
    from qedtangle.scan import BISECT_LEVELS
    sent = full = 0
    for _, _, calls in _bisections(monkeypatch):
        sent += sum(call.size for call in calls)
        full += 2 + (2 ** BISECT_LEVELS - 1) * len(calls)
        assert calls[-1].size < 2 ** BISECT_LEVELS - 1
    assert sent < full


def _point_report(op: dict, init):
    """(state entries, report) of a benchmark point query, or its error class."""
    try:
        amp = amplitude(build_kinematics(ProcessKind(op["process"]), op["p"], op["theta"]))
        state = qstate.evolve(amp, init)
    except QedTangleError as exc:
        return type(exc)
    return state.entries, analyze(state)


def test_shared_initial_states_give_the_same_point_reports():
    # parse_initial hands out one shared state per name; the benchmark's point
    # reports must equal those from a state built afresh for each query
    fresh = {"unpolarized": qstate.unpolarized, "werner": qstate.werner_symmetric,
             **{pair: lambda pair=pair: qstate.pure(pair.upper())
                for pair in ("ll", "lr", "rl", "rr")}}
    workloads = _load("workloads")
    ops = [op for pass_index in range(3) for op in workloads.query_stream(1, pass_index)
           if op["kind"] == "point" and op["initial"] in fresh]
    assert len(ops) > 500
    for op in ops:
        shared = _point_report(op, parse_initial(op["initial"]))
        own = _point_report(op, fresh[op["initial"]]())
        if isinstance(own, type):
            assert shared is own, op
        else:
            assert np.array_equal(shared[0], own[0]) and shared[1] == own[1], op
