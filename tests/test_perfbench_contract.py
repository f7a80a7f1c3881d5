"""What the benchmark in perfbench/ needs from the program.

perfbench/ wraps program functions by name and runs its own output checks;
an API change that breaks it would pass the rest of the suite. This module
resolves every traced function and runs perfbench's self-test.
"""
import importlib
import importlib.util
from pathlib import Path
import subprocess
import sys

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for module_name, attr, _ in _tracer().TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_constants_the_benchmark_reads():
    from qedtangle.constants import DEFAULT
    for name in ("m_e", "m_mu", "alpha", "e2", "alpha3"):
        assert isinstance(getattr(DEFAULT, name), float), name


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
