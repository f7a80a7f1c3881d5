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
import pytest
from hypothesis import given, settings, strategies as st

from qedtangle import scan
from qedtangle.kinematics import ProcessKind, threshold_momentum
from qedtangle.scan import STATUSES, ScanConfig, emit_csv, run_scan
from test_scan import _reference_csv


def _texts(values) -> list[str]:
    """`_text17` word rows as strings, NUL bytes and each field's comma dropped."""
    values = np.asarray(values, dtype=np.float64)
    words = scan._text17(values, np.empty((values.size, 4), np.uint64))
    fields = words.tobytes().translate(None, b"\0").decode().split(",")
    assert fields[-1] == ""
    return fields[:-1]


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


@pytest.mark.parametrize("cfg", [
    # LAPACK spectra of the 4 x 4 state, p up to 1e4
    dict(process=ProcessKind.COMPTON, initial="werner", p_min=0.01, p_max=1e4, p_steps=600,
         p_log=True, theta_steps=30),
    # closed-form spectra of the mirror blocks
    dict(process=ProcessKind.MOLLER, initial="unpolarized", p_steps=300, theta_steps=60),
], ids=["compton-werner", "moller-unpolarized"])
def test_scan_columns_rarely_fall_back(monkeypatch, tmp_path, cfg):
    calls = _count_fallbacks(monkeypatch)
    res = run_scan(ScanConfig(**cfg))
    emit_csv(res, tmp_path / "scan.csv")
    ok = res.status == STATUSES.index("ok")
    # the grid axes are Python's text and never reach the fallback
    formatted = sum(np.count_nonzero(getattr(res, name)[ok]) for name in scan._MEASURES)
    assert formatted > 30_000
    assert len(calls) < 0.01 * formatted


def test_ties_non_finite_and_huge_exponents_always_fall_back(monkeypatch):
    rng = np.random.default_rng(7)
    # the arithmetic stops below 10: every larger value is Python's text
    values = _binary_ties(rng, 2000) + [math.nan, math.inf, -math.inf, 1e100, -1e-100,
                                        5e-324, 1.7976931348623157e308, 1.5e16, 2e17, 2e99,
                                        10.0, -12.5]
    calls = _count_fallbacks(monkeypatch)
    assert _texts(values) == _reference(values)
    assert len(calls) == len(values)
    calls.clear()
    # both sides of the fixed / scientific switch, e = -99 and the last doubles below 10
    settled = [-3e-99, 0.5, -0.0, 9.5, -9.999999999999998, 1.5e-4, -2e-5]
    assert _texts(settled) == _reference(settled)
    assert calls == []


def test_widest_then_narrowest_block_match_the_reference(monkeypatch, tmp_path):
    # one formatter writes a block of the widest texts, then a block of the
    # narrowest: no byte of the first may reach the second's lines
    monkeypatch.setattr(scan, "CHUNK_POINTS", 24)
    p_grid = 12345.678901234567 + 1.1 * np.arange(24)             # 5-digit p
    theta_grid = np.array([4.7123889803846897, 0.5])
    assert len(list(scan._chunks(theta_grid.size, p_grid.size))) == 2
    status = np.zeros(48, np.int8)
    status[0:24:3] = STATUSES.index("below-threshold")
    status[1:24:3] = STATUSES.index("unfilterable")
    ok = status == 0
    measures = []
    for k in range(len(scan._MEASURES)):
        widest = -1.2345678901234567e-5 * (1.0 + 0.01 * k + 1e-3 * np.arange(24))
        widest[k + 2] = -2.2250738585072014e-308        # a fallback, the widest text of all
        measures.append(np.where(ok, np.concatenate([widest, np.zeros(24)]), math.nan))
    entangled = np.concatenate([np.zeros(24, bool), np.ones(24, bool)])
    res = scan.ScanResult("electron-muon", "diag:0.1;0.2;0.3;0.4", p_grid, theta_grid,
                          *measures, entangled, entangled.copy(), status)
    emit_csv(res, tmp_path / "scan.csv")
    _reference_csv(list(res), tmp_path / "reference.csv")
    lines = (tmp_path / "scan.csv").read_bytes().splitlines()
    assert (tmp_path / "scan.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert max(map(len, lines[1:25])) > 2 * max(map(len, lines[25:]))
    assert lines[-1].endswith(b",0,0,0,0,true,true,ok")


@pytest.mark.parametrize("p_steps, theta_steps", [(200, 3), (20, 10)])
def test_each_chunk_is_the_text_of_its_rows_and_cols(monkeypatch, tmp_path, p_steps,
                                                     theta_steps):
    # a muon-pair grid across threshold, with rows split into a block below
    # threshold, a block across it and blocks above it, or blocks of whole
    # rows: every `_chunks` block is the unit of evaluation and of CSV text
    monkeypatch.setattr(scan, "CHUNK_POINTS", 64)
    threshold = threshold_momentum(ProcessKind.MUON_PAIR)
    cfg = dict(process=ProcessKind.MUON_PAIR, initial="werner", p_min=0.5 * threshold,
               p_max=2.0 * threshold, p_steps=p_steps, theta_steps=theta_steps)
    evaluated, original = [], scan._evaluate

    def evaluate(process, p, theta, *args):
        evaluated.append((p, theta))
        return original(process, p, theta, *args)

    monkeypatch.setattr(scan, "_evaluate", evaluate)
    res = run_scan(ScanConfig(**cfg))
    below = res.status == STATUSES.index("below-threshold")
    assert np.array_equal(below, res.p < threshold) and below.any() and not below.all()
    blocks = list(scan._chunks(res.theta_grid.size, res.p_grid.size))
    # each block reaches `_evaluate` once, in grid order, with exactly its
    # rows x cols, the points below threshold included, so the calls cover
    # the grid once
    assert len(evaluated) == len(blocks)
    for (p, theta), (rows, cols) in zip(evaluated, blocks):
        assert np.array_equal(theta, res.theta_grid[rows, None])
        assert np.array_equal(p, np.tile(res.p_grid[cols], (theta.size, 1)))
    assert sum(p.size for p, _ in evaluated) == res.status.size

    _reference_csv(list(res), tmp_path / "reference.csv")
    want = (tmp_path / "reference.csv").read_bytes()
    lines = want.splitlines(keepends=True)[1:]
    # rows of 200 go in blocks of 64, 64, 64 and 8 columns, rows of 20 whole
    assert {cols.stop - cols.start for _, cols in blocks} == ({64, 8} if p_steps > 64 else {20})
    block_text = scan._csv_blocks(res)
    texts = [block_text(block) for block in blocks]
    for text, (rows, cols) in zip(texts, blocks):
        assert text == b"".join(lines[r * p_steps + c]
                                for r in range(res.theta_grid.size)[rows]
                                for c in range(p_steps)[cols])
    assert want == f"{scan.CSV_HEADER}\n".encode() + b"".join(texts)
    for jobs in (1, 2, 3):
        streamed = tmp_path / f"streamed{jobs}.csv"
        emit_csv(run_scan(ScanConfig(**cfg, jobs=jobs, out=str(streamed))),
                 tmp_path / f"jobs{jobs}.csv")
        assert (tmp_path / f"jobs{jobs}.csv").read_bytes() == want
        assert streamed.read_bytes() == want


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
