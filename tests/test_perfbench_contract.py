"""What the benchmark in perfbench/ needs from the program.

perfbench/ wraps program functions by name and runs its own output checks;
an API change that breaks it would pass the rest of the suite. This module
resolves every traced function, runs a few traced queries, and runs
perfbench's self-test.
"""
import importlib
import importlib.util
from pathlib import Path
import subprocess
import sys

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
    evals = sum(rec["evals"] for rec in records if rec["kind"] == "bisect")
    assert layers["scan.find_threshold.evals"] == evals > 0


def test_bisection_engine_calls_match_the_replay(monkeypatch):
    # one engine call per bisection evaluation, bracket ends included, which
    # is what perfbench's `bisection_evals` replays from (lo, hi, p*)
    from qedtangle import scan
    from qedtangle.kinematics import ProcessKind
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    real = scan.helicity_amplitudes_batch
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(scan, "helicity_amplitudes_batch", counting)
    ops = [op for op in workloads.query_stream(1, 0) if op["kind"] == "bisect"]
    assert len(ops) == workloads.BISECTIONS_PER_PASS
    for op in ops:
        calls.clear()
        p_star = scan.find_threshold(ProcessKind.MOLLER, "unpolarized", op["theta"],
                                     (op["lo"], op["hi"]))
        assert len(calls) == workloads.bisection_evals(op["lo"], op["hi"], p_star)
        assert all(p.size == 1 for p in calls)
