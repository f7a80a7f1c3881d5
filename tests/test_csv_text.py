"""The CSV writer's float text against Python's '%.17g'.

`scan._text17` formats a whole column with numpy arithmetic and hands what
the arithmetic cannot settle to `scan._fallback_text`. These tests hold the
result to f"{v:.17g}" byte for byte, and count fallback calls to show that
neither path is dead or takes everything.
"""
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from qedtangle import scan
from qedtangle.kinematics import ProcessKind
from qedtangle.scan import STATUSES, ScanConfig, emit_csv, run_scan


def _texts(values) -> list[str]:
    """`_text17` rows as strings, NUL bytes dropped."""
    slab = scan._text17(np.asarray(values, dtype=np.float64))
    lines = np.concatenate([slab, np.full((len(slab), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _reference(values) -> list[str]:
    return [f"{v:.17g}" for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_text_is_percent_17g_for_any_double(values):
    assert _texts(values) == _reference(values)


def _binary_ties(rng, n: int) -> list[float]:
    """Doubles exactly halfway between two 17-digit decimals: m / 2^j =
    m 5^j / 10^j with m odd, m < 2^53 and m 5^j of 18 digits, so the
    18th digit is a final 5."""
    ties = []
    for j in rng.integers(2, 26, n).tolist():
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        m = int(rng.integers(lo, hi)) | 1
        ties.append((m if m < hi else m - 2) / 2 ** j)
    return ties


def _bulk(seed: int) -> np.ndarray:
    """Over a million doubles of every kind that the formatter tells apart."""
    rng = np.random.default_rng(seed)
    powers = 10.0 ** np.arange(-323, 309)
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 1.0, 0.1, 1e99, 1e100, 1e-99, 1e-100])
    near = np.concatenate([powers, edges])
    for _ in range(3):
        near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    decimal_ties = [float(f"{rng.integers(10 ** 16, 10 ** 17)}5e-{k}")
                    for k in rng.integers(0, 340, 100_000).tolist()]
    parts = [
        rng.integers(0, 2 ** 64, 300_000, dtype=np.uint64).view(np.float64),
        rng.uniform(-1.0, 1.0, 250_000),
        10.0 ** rng.uniform(-330.0, 308.0, 150_000),
        np.array(decimal_ties), np.array(_binary_ties(rng, 50_000)), near,
        np.arange(-100_000, 100_000, dtype=np.float64),
        rng.integers(-2 ** 62, 2 ** 62, 50_000).astype(np.float64),
        np.array([0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308] * 2),
    ]
    values = np.concatenate(parts)
    signs = rng.integers(0, 2, values.size, dtype=np.uint64) << np.uint64(63)
    return (values.view(np.uint64) ^ signs).view(np.float64)      # flip half the sign bits


def test_text_is_percent_17g_in_bulk():
    values = _bulk(2024)
    assert values.size > 1_000_000
    for start in range(0, values.size, 1 << 16):
        part = values[start:start + (1 << 16)]
        assert _texts(part) == _reference(part)


def _count_fallbacks(monkeypatch) -> list[float]:
    calls = []
    real = scan._fallback_text

    def fallback(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(scan, "_fallback_text", fallback)
    return calls


def test_scan_columns_rarely_fall_back(monkeypatch, tmp_path):
    calls = _count_fallbacks(monkeypatch)
    res = run_scan(ScanConfig(process=ProcessKind.COMPTON, initial="werner", p_min=0.01,
                              p_max=1e4, p_steps=600, p_log=True, theta_steps=30))
    emit_csv(res, tmp_path / "scan.csv")
    ok = res.status == STATUSES.index("ok")
    formatted = (sum(np.count_nonzero(getattr(res, name)[ok]) for name in scan._MEASURES)
                 + res.p_grid.size + res.theta_grid.size)
    assert formatted > 30_000
    assert len(calls) < 0.01 * formatted


def test_ties_non_finite_and_huge_exponents_always_fall_back(monkeypatch):
    rng = np.random.default_rng(7)
    values = _binary_ties(rng, 2000) + [math.nan, math.inf, -math.inf, 1e100, -1e-100,
                                        5e-324, 1.7976931348623157e308]
    calls = _count_fallbacks(monkeypatch)
    assert _texts(values) == _reference(values)
    assert len(calls) == len(values)
    calls.clear()
    # fixed and scientific notation on both sides of each switch, |e| = 99
    settled = [2e99, -3e-99, 0.5, -0.0, 1.5e16, 2e17, 1.5e-4, -2e-5]
    assert _texts(settled) == _reference(settled)
    assert calls == []


def test_writer_imports_no_exact_arithmetic(tmp_path):
    # the writer's tables come from integer and numpy arithmetic; a table
    # built with fractions or decimal would put their import into every run
    code = ("import sys\n"
            "import qedtangle\n"
            "from qedtangle.kinematics import ProcessKind\n"
            "from qedtangle.scan import ScanConfig, emit_csv, run_scan\n"
            "emit_csv(run_scan(ScanConfig(ProcessKind.COMPTON, 'werner', p_steps=8,"
            " theta_steps=8)), sys.argv[1])\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "scan.csv")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "scan.csv").read_text().count("\n") == 65
