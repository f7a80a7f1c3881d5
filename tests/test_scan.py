import contextlib
import dataclasses
import logging
import math
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from qedtangle.amplitudes import MIRROR_SIGNS, amplitude
from qedtangle.constants import DEFAULT
from qedtangle.errors import (BelowThresholdError, DivergentKinematicsError, InvalidConfigError,
                              UnfilterableStateError)
from qedtangle.kinematics import (P_RANGE, ProcessKind, build_kinematics, mandelstam_batch,
                                  threshold_momentum)
from qedtangle.qstate import evolution_input, evolve
from qedtangle import scan
from qedtangle.scan import (CHUNK_POINTS, CSV_HEADER, STATUSES, ScanConfig, ScanResult,
                            emit_csv, emit_plot_script, find_threshold,
                            parse_csv, parse_initial, run_scan, symmetry_audit)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        ScanConfig(process=ProcessKind.MOLLER, p_min=-1.0).validate()
    with pytest.raises(InvalidConfigError):
        ScanConfig(process=ProcessKind.MOLLER, p_min=2.0, p_max=1.0).validate()
    with pytest.raises(InvalidConfigError):
        ScanConfig(process=ProcessKind.MOLLER, p_steps=0).validate()
    with pytest.raises(InvalidConfigError):
        ScanConfig(process=ProcessKind.MOLLER, jobs=0).validate()
    # a fractional count would scan a row on theta_max, fail in linspace or run
    for count in ("theta_steps", "p_steps", "jobs"):
        for value in (2.5, 3.0):
            with pytest.raises(InvalidConfigError, match=f"{count} must be an integer"):
                ScanConfig(process=ProcessKind.MOLLER, **{count: value}).validate()
    # operator.index(True) is 1, but a bool is not a count
    for count in ("theta_steps", "p_steps", "jobs"):
        for value in (True, False):
            with pytest.raises(InvalidConfigError, match=f"{count} must be an integer"):
                ScanConfig(process=ProcessKind.MOLLER, **{count: value}).validate()
    # momenta outside kinematics.P_RANGE; p_max counts only with more than one step
    lo, hi = P_RANGE
    for p_min, p_max in [(math.nextafter(lo, 0.0), 1.0), (1.0, math.nextafter(hi, math.inf)),
                         (1e77, 2e77)]:
        with pytest.raises(InvalidConfigError, match="must lie in"):
            ScanConfig(process=ProcessKind.MOLLER, p_min=p_min, p_max=p_max).validate()
    ScanConfig(process=ProcessKind.MOLLER, p_min=lo, p_max=hi).validate()
    ScanConfig(process=ProcessKind.MOLLER, p_min=1.0, p_max=1e80, p_steps=1).validate()
    # numpy integers are integers
    res = run_scan(ScanConfig(process=ProcessKind.MOLLER, p_steps=np.int64(3),
                              theta_steps=np.int32(2), jobs=np.int64(2)))
    assert len(res) == 6


def test_parse_initial():
    assert parse_initial("unpolarized").description == "unpolarized"
    assert parse_initial("lr").description == "pure(LR)"
    assert parse_initial("werner").description == "werner"
    assert parse_initial("diag:0.5,0.5,0,0").description.startswith("diag:")
    with pytest.raises(InvalidConfigError):
        parse_initial("sideways")
    with pytest.raises(InvalidConfigError):
        parse_initial("diag:1,2")


@pytest.mark.parametrize("name", ["unpolarized", "ll", "lr", "rl", "rr", "werner"])
def test_named_initial_states_are_built_once(name):
    state = parse_initial(name)
    assert parse_initial(f" {name.upper()} ") is state
    with pytest.raises(ValueError, match="read-only"):
        state.density.entries[0, 0] = 1.0


def test_single_point_grid():
    cfg = ScanConfig(process=ProcessKind.BHABHA, p_min=0.32, p_max=0.32,
                     p_steps=1, theta_min=math.pi, theta_max=math.pi, theta_steps=1)
    rows = run_scan(cfg)
    assert len(rows) == 1
    assert rows[0].status == "ok"
    assert rows[0].p == pytest.approx(0.32)


def test_theta_major_ordering():
    cfg = ScanConfig(process=ProcessKind.MUON_PAIR, p_min=150.0, p_max=200.0,
                     p_steps=2, theta_steps=2)
    rows = run_scan(cfg)
    assert len(rows) == 4
    # theta is the slow index: (t0,p0), (t0,p1), (t1,p0), (t1,p1)
    assert rows[0].theta == rows[1].theta
    assert rows[2].theta == rows[3].theta
    assert rows[0].theta < rows[2].theta
    assert rows[0].p < rows[1].p


def test_cell_centered_theta_grid():
    cfg = ScanConfig(process=ProcessKind.COMPTON, p_min=1.0, p_max=1.0,
                     p_steps=1, theta_steps=4)
    rows = run_scan(cfg)
    thetas = [r.theta for r in rows]
    assert thetas == pytest.approx([math.pi / 4, 3 * math.pi / 4,
                                    5 * math.pi / 4, 7 * math.pi / 4])


def test_pole_nudging():
    # an odd cell count puts a grid center exactly on the backward pole ray
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_min=1.0, p_max=1.0,
                     p_steps=1, theta_steps=3)
    rows = run_scan(cfg)
    assert all(r.status == "ok" for r in rows)
    step = 2 * math.pi / 3
    assert rows[1].theta == pytest.approx(math.pi + 0.5 * step)


@pytest.mark.parametrize("centre", [-2 * math.pi, -math.pi, 4 * math.pi])
def test_pole_nudging_outside_first_turn(centre):
    # pole rays repeat every 2 pi: a grid centred on -2 pi, -pi or 4 pi puts
    # its middle point on a Moller pole, which must be nudged like theta = 0
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_min=1.0, p_max=1.0, p_steps=1,
                     theta_min=centre - 1.0, theta_max=centre + 1.0, theta_steps=3)
    rows = run_scan(cfg)
    assert all(r.status == "ok" for r in rows)
    assert rows[1].theta == pytest.approx(centre + 1.0 / 3.0)


@pytest.mark.parametrize("initial", ["unpolarized", "werner", "diag:0.4,0.3,0.2,0.1"])
@pytest.mark.parametrize("process", list(ProcessKind))
def test_both_ends_of_the_momentum_range_are_evaluated(process, initial):
    # at a generic angle and 2e-9 rad from each ray, just outside the pole
    # window; only the muon pair, below threshold at the low end, is not ok
    want = ["below-threshold" if process is ProcessKind.MUON_PAIR else "ok", "ok"]
    for theta in (1.0, 2e-9, math.pi - 2e-9, math.pi + 2e-9, -2e-9):
        res = run_scan(ScanConfig(process=process, initial=initial, p_min=P_RANGE[0],
                                  p_max=P_RANGE[1], p_steps=2, theta_min=theta,
                                  theta_max=theta, theta_steps=1))
        assert [r.status for r in res] == want, theta
        ok = res.status == STATUSES.index("ok")
        assert all(np.isfinite(getattr(res, name)[ok]).all()
                   for name in ("min_pt_eig", "negativity", "log_negativity", "entropy"))


@pytest.mark.parametrize("process", [ProcessKind.ELECTRON_MUON, ProcessKind.MOLLER,
                                     ProcessKind.BHABHA, ProcessKind.COMPTON])
def test_low_momentum_points_at_generic_angles_are_ok(process):
    # far from every pole ray a point is evaluated at any p, here down to
    # 1e-14 MeV, where |t| is below 4e-28 MeV^2
    res = run_scan(ScanConfig(process=process, p_min=1e-14, p_max=1e-4, p_steps=11,
                              p_log=True, theta_min=0.1, theta_max=2 * math.pi - 0.1,
                              theta_steps=12))
    assert {r.status for r in res} == {"ok"}


def test_exact_pole_is_divergent():
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_min=1.0, p_max=1.0, p_steps=1,
                     theta_min=0.0, theta_max=0.0, theta_steps=1)
    rows = run_scan(cfg)
    assert rows[0].status == "divergent"
    assert rows[0].negativity is None


def test_below_threshold_rows():
    thr = math.sqrt(DEFAULT.m_mu ** 2 - DEFAULT.m_e ** 2)
    cfg = ScanConfig(process=ProcessKind.MUON_PAIR, p_min=0.5 * thr,
                     p_max=2.0 * thr, p_steps=4, theta_steps=2)
    rows = run_scan(cfg)
    statuses = {round(r.p, 3): r.status for r in rows}
    assert any(s == "below-threshold" for s in statuses.values())
    assert any(s == "ok" for s in statuses.values())
    for r in rows:
        if r.status == "below-threshold":
            assert r.p < thr and r.min_pt_eig is None


def test_below_threshold_status_follows_the_kinematics_rule():
    # p_min is 1e-16 relative below the threshold: those rows are
    # below-threshold, not unfilterable, and every row's status agrees with
    # the NaN q of mandelstam_batch, down to the last ulp
    thr = threshold_momentum(ProcessKind.MUON_PAIR)
    cfg = ScanConfig(process=ProcessKind.MUON_PAIR, p_min=105.65713981256582,
                     p_max=thr, p_steps=8, theta_steps=2)
    rows = run_scan(cfg)
    q = mandelstam_batch(ProcessKind.MUON_PAIR, rows.p, rows.theta)[-1]
    assert [r.status for r in rows][:1] == ["below-threshold"]
    assert {r.status for r in rows} == {"ok", "below-threshold"}
    assert np.array_equal(rows.status == STATUSES.index("below-threshold"), np.isnan(q))


def test_csv_round_trip(tmp_path):
    cfg = ScanConfig(process=ProcessKind.ANNIHILATION, p_min=0.3, p_max=1.2,
                     p_steps=3, theta_steps=4, initial="werner")
    rows = run_scan(cfg)
    path = tmp_path / "scan.csv"
    emit_csv(rows, path)
    content = path.read_text()
    assert content.splitlines()[0] == CSV_HEADER
    back = parse_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a.process == b.process and a.initial == b.initial
        assert a.p == b.p and a.theta == b.theta      # full precision round trip
        assert a.min_pt_eig == b.min_pt_eig
        assert a.entangled == b.entangled and a.status == b.status


def test_log_spaced_p_grid():
    cfg = ScanConfig(process=ProcessKind.COMPTON, p_min=0.01, p_max=100.0,
                     p_steps=5, p_log=True, theta_steps=1,
                     theta_min=1.0, theta_max=1.0)
    rows = run_scan(cfg)
    ps = [r.p for r in rows]
    assert ps[0] == pytest.approx(0.01) and ps[-1] == pytest.approx(100.0)
    ratios = [ps[i + 1] / ps[i] for i in range(4)]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)


def test_csv_round_trip_with_status_rows(tmp_path):
    # grid straddling the production threshold mixes ok and status-only rows
    thr = math.sqrt(DEFAULT.m_mu ** 2 - DEFAULT.m_e ** 2)
    cfg = ScanConfig(process=ProcessKind.MUON_PAIR, p_min=0.5 * thr,
                     p_max=1.5 * thr, p_steps=3, theta_steps=2)
    rows = run_scan(cfg)
    path = tmp_path / "mixed.csv"
    emit_csv(rows, path)
    back = parse_csv(path)
    assert [r.status for r in back] == [r.status for r in rows]
    for a, b in zip(rows, back):
        assert (a.min_pt_eig is None) == (b.min_pt_eig is None)
        assert a.negativity == b.negativity


def _columns(process, initial, p_grid, theta_grid, measures, flags, status) -> ScanResult:
    """A ScanResult built directly from its grid axes and per-point values."""
    measures = np.array(measures, dtype=float).reshape(-1, 4)
    flags = np.array(flags, dtype=bool).reshape(-1, 2)
    return ScanResult(process, initial, np.array(p_grid, dtype=float),
                      np.array(theta_grid, dtype=float), *measures.T.copy(), *flags.T.copy(),
                      np.array([STATUSES.index(s) for s in status], dtype=np.int8))


def test_scan_result_columns_must_fill_the_grid():
    args = ("moller", "unpolarized", [0.5, 1.0], [1.0, 2.0, 3.0])
    result = _columns(*args, [(0.0,) * 4] * 6, [(False, False)] * 6, ["ok"] * 6)
    assert result.p.tolist() == [0.5, 1.0] * 3
    assert result.theta.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    with pytest.raises(ValueError, match="not \\(6,\\) for a 3 x 2 grid"):
        _columns(*args, [(0.0,) * 4] * 2, [(False, False)] * 2, ["ok"] * 2)
    with pytest.raises(ValueError, match="column status"):
        _columns(*args, [(0.0,) * 4] * 6, [(False, False)] * 6, ["ok"] * 5)


def test_csv_header_only_for_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(_columns("moller", "unpolarized", [], [], [], [], []), path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert parse_csv(path) == []


def test_scan_determinism_and_jobs(tmp_path):
    base = dict(process=ProcessKind.COMPTON, p_min=0.1, p_max=20.0, p_steps=7,
                theta_steps=9, initial="ll")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_scan(ScanConfig(**base)), a)
    emit_csv(run_scan(ScanConfig(**base)), b)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    emit_csv(run_scan(ScanConfig(**base, jobs=3)), c)
    assert a.read_bytes() == c.read_bytes()


def _reference_csv(rows, path):
    """Row-at-a-time writer of the CSV contract, one value at a time."""
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return f"{value:.17g}"

    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join([
                r.process, r.initial, fmt(r.p), fmt(r.theta),
                fmt(r.min_pt_eig), fmt(r.negativity), fmt(r.log_negativity),
                fmt(r.entropy), fmt(r.entangled), fmt(r.switching), r.status,
            ]) + "\n")


_THR_MU = math.sqrt(DEFAULT.m_mu ** 2 - DEFAULT.m_e ** 2)

#: grids of more than two chunks: muon pair straddling its threshold,
#: Moller with a theta row 1e-6 rad from each pole ray (outside the pole
#: window, so evaluated at every p), a single Moller row on the forward ray
#: (single rows are not nudged), and Compton with the werner input over six
#: decades of p, whose min_pt_eig reaches scientific notation
MULTI_CHUNK_GRIDS = {
    "compton-werner-log-p": (
        dict(process=ProcessKind.COMPTON, initial="werner", p_min=0.01, p_max=1e4,
             p_steps=600, p_log=True, theta_steps=30),
        {"ok"}),
    "muon-pair-threshold": (
        dict(process=ProcessKind.MUON_PAIR, p_min=0.8 * _THR_MU, p_max=4.0 * _THR_MU,
             p_steps=2600, theta_steps=8),
        {"ok", "below-threshold"}),
    "moller-poles": (
        dict(process=ProcessKind.MOLLER, p_min=0.01, p_max=3.0, p_steps=2200,
             theta_min=1e-6 - math.pi / 8, theta_max=1e-6 + 15 * math.pi / 8,
             theta_steps=8),
        {"ok"}),
    "moller-on-ray": (
        dict(process=ProcessKind.MOLLER, p_min=1e-4, p_max=1e4, p_steps=2 * CHUNK_POINTS + 100,
             p_log=True, theta_min=0.0, theta_max=0.0, theta_steps=1),
        {"divergent"}),
}


@pytest.mark.parametrize("grid", sorted(MULTI_CHUNK_GRIDS))
def test_jobs_give_identical_csv_over_many_chunks(grid, tmp_path):
    base, statuses = MULTI_CHUNK_GRIDS[grid]
    result = run_scan(ScanConfig(**base))
    assert isinstance(result, ScanResult)
    rows = list(result)
    assert {r.status for r in rows} == statuses
    assert sum(r.status != "below-threshold" for r in rows) > 2 * CHUNK_POINTS
    emit_csv(result, tmp_path / "result.csv")
    want = (tmp_path / "result.csv").read_bytes()
    # workers write disjoint parts of shared columns; switch threads often
    # so that a lost or misplaced write would show in the bytes. A scan
    # given `out` streams the CSV that emit_csv writes from its result
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for jobs in (1, 2, 3):
            streamed = tmp_path / f"streamed{jobs}.csv"
            emit_csv(run_scan(ScanConfig(**base, jobs=jobs, out=str(streamed))),
                     tmp_path / f"jobs{jobs}.csv")
            assert (tmp_path / f"jobs{jobs}.csv").read_bytes() == want
            assert streamed.read_bytes() == want
    finally:
        sys.setswitchinterval(interval)
    # the columnar writer and a plain writer of the row views give the same
    # bytes; parsing them back gives the row views
    _reference_csv(rows, tmp_path / "reference.csv")
    assert (tmp_path / "reference.csv").read_bytes() == want
    assert parse_csv(tmp_path / "result.csv") == rows


def test_csv_writer_matches_reference_for_every_status(tmp_path):
    # one chunk on a 3 theta x 4 p grid whose every row holds all four
    # statuses, with a -0.0 theta row, awkward values on the ok lines and a
    # '%' in the labels, which must never be read as a format
    status = STATUSES * 3
    ok = [s == "ok" for s in status]
    result = _columns(
        "moller%s", "pure(%d)", [0.1 * (i + 1) for i in range(4)], [0.0, -0.0, 4.2],
        [(-0.0 if i < 4 else -i * 1e-17, 1 / 3, 5e-324, 1e300 / (i + 1)) if good
         else (math.nan,) * 4 for i, good in enumerate(ok)],
        [(i % 2 == 0, i % 3 == 0) if good else (False, False) for i, good in enumerate(ok)],
        status)
    rows = list(result)
    assert [r.status for r in rows] == list(status)
    assert [r.theta for r in rows] == [0.0] * 4 + [-0.0] * 4 + [4.2] * 4
    assert [math.copysign(1.0, r.theta) for r in rows[:8]] == [1.0] * 4 + [-1.0] * 4
    assert [r.p for r in rows] == [0.1 * (i + 1) for i in range(4)] * 3
    assert rows[0].min_pt_eig == 0.0 and math.copysign(1.0, rows[0].min_pt_eig) < 0
    assert rows[0].entropy > 0 and rows[4].log_negativity == 5e-324
    emit_csv(result, tmp_path / "rows.csv")
    _reference_csv(rows, tmp_path / "reference.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert parse_csv(tmp_path / "rows.csv") == rows


def test_parse_csv_rejects_lines_emit_csv_never_writes(tmp_path):
    good = "moller,unpolarized,0.5,1,-0.1,0.1,0.2,0.3,true,false,ok"
    bad = {
        "moller,unpolarized,0.5,1,,,,,,,bogus": "unknown status 'bogus'",
        "moller,unpolarized,0.5,1,-0.1,0.1,0.2,0.3,yes,false,ok": "flags must be",
        "moller,unpolarized,0.5,1,-0.1,0.1,0.2,0.3,true,maybe,ok": "flags must be",
        "moller,unpolarized,0.5,1,,,,,,,ok": "ok line needs every measure and flag",
        "moller,unpolarized,0.5,1,-0.1,0.1,0.2,,true,false,ok": "ok line needs every",
        "moller,unpolarized,0.5,1,-0.1,0.1,0.2,0.3,true,,ok": "ok line needs every",
        "moller,unpolarized,0.5,1,,,,,false,,divergent": "divergent line needs no measure",
        "moller,unpolarized,0.5,1,0,,,,,,below-threshold": "below-threshold line needs no",
        "moller,unpolarized,0.5,1,,,,,,true,unfilterable": "unfilterable line needs no",
        "moller,unpolarized,0.5,x,-0.1,0.1,0.2,0.3,true,false,ok": "could not convert",
    }
    path = tmp_path / "bad.csv"
    for line, message in bad.items():
        path.write_text(f"{CSV_HEADER}\n{good}\n{line}\n")
        with pytest.raises(ValueError, match=f"^CSV line 3: {message}"):
            parse_csv(path)
    path.write_text(f"{CSV_HEADER}\n{good}\nmoller,unpolarized,0.5,2,,,,,,,divergent\n")
    assert [(r.entangled, r.switching, r.status) for r in parse_csv(path)] == \
        [(True, False, "ok"), (None, None, "divergent")]


#: a live p row longer than one chunk: each theta row is split along p
LONG_ROW = dict(process=ProcessKind.MOLLER, p_min=0.01, p_max=3.0, p_steps=20000,
                theta_steps=3)


def test_long_p_rows_split_into_bounded_chunks(monkeypatch, tmp_path):
    sizes = []

    def recorder(process, p, theta, *args, **kwargs):
        sizes.append(np.broadcast_shapes(np.shape(p), np.shape(theta)))
        return amplitudes_batch(process, p, theta, *args, **kwargs)

    amplitudes_batch = scan.helicity_amplitudes_batch
    monkeypatch.setattr(scan, "helicity_amplitudes_batch", recorder)
    result = run_scan(ScanConfig(**LONG_ROW))
    assert max(math.prod(shape) for shape in sizes) <= CHUNK_POINTS
    assert sum(math.prod(shape) for shape in sizes) == len(result) == 60000
    assert all(shape[0] == 1 for shape in sizes)         # one theta row per chunk
    monkeypatch.undo()
    emit_csv(result, tmp_path / "jobs1.csv")
    emit_csv(run_scan(ScanConfig(**LONG_ROW, jobs=2)), tmp_path / "jobs2.csv")
    assert (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs2.csv").read_bytes()


def test_failed_scan_removes_its_csv_but_never_a_device(monkeypatch, tmp_path):
    # the second of two chunks raises after the first chunk's lines are written
    evaluate, calls = scan._evaluate, []

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return evaluate(*args)

    monkeypatch.setattr(scan, "_evaluate", fail_second)
    two_chunks = dict(process=ProcessKind.MOLLER, p_steps=CHUNK_POINTS, theta_steps=2)
    with pytest.raises(np.linalg.LinAlgError):
        run_scan(ScanConfig(**two_chunks, out=str(tmp_path / "x.csv")))
    assert len(calls) == 2 and not (tmp_path / "x.csv").exists()
    unlinked = []
    monkeypatch.setattr(scan.os, "unlink", unlinked.append)
    calls.clear()
    with pytest.raises(np.linalg.LinAlgError):
        run_scan(ScanConfig(**two_chunks, out=os.devnull))
    assert len(calls) == 2 and unlinked == []


def test_scan_evaluates_at_most_two_chunks_per_job_ahead_of_its_writer(monkeypatch, tmp_path):
    # behind a slow sink, such as a pipe, evaluated chunks wait for the
    # writer; count them at each write, the chunk being written included
    monkeypatch.setattr(scan, "CHUNK_POINTS", 64)
    evaluate, evaluated, ahead, written = scan._evaluate, [], [], []

    def counted(*args):
        columns = evaluate(*args)
        evaluated.append(1)
        return columns

    class SlowSink:
        def write(self, lines):
            ahead.append(len(evaluated) - len(written))
            time.sleep(0.02)
            written.append(lines)

    @contextlib.contextmanager
    def slow_csv_file(path):
        yield SlowSink()

    monkeypatch.setattr(scan, "_evaluate", counted)
    monkeypatch.setattr(scan, "_csv_file", slow_csv_file)
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_steps=32, theta_steps=24, jobs=2,
                     out=str(tmp_path / "unused.csv"))
    result = run_scan(cfg)
    assert len(written) == 12 and max(ahead) <= 2 * cfg.jobs
    monkeypatch.undo()
    emit_csv(result, tmp_path / "want.csv")
    assert b"".join(written) == (tmp_path / "want.csv").read_bytes()[len(CSV_HEADER) + 1:]


def test_failed_chunk_raises_in_grid_order_and_cancels_the_rest(monkeypatch, tmp_path):
    # every chunk but the first raises; the second chunk's error surfaces,
    # whichever worker failed first, and chunks not yet submitted never run
    monkeypatch.setattr(scan, "CHUNK_POINTS", 64)
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_steps=32, theta_steps=24, jobs=2,
                     out=str(tmp_path / "x.csv"))
    evaluate, started = scan._evaluate, []

    def fail_after_first(process, p, theta, rho_in):
        started.append(theta)
        if theta[0, 0] != cfg.theta_grid()[0]:
            raise np.linalg.LinAlgError(f"chunk at theta {theta[0, 0]!r}")
        return evaluate(process, p, theta, rho_in)

    monkeypatch.setattr(scan, "_evaluate", fail_after_first)
    with pytest.raises(np.linalg.LinAlgError) as failure:
        run_scan(cfg)
    assert str(failure.value) == f"chunk at theta {cfg.theta_grid()[2]!r}"
    assert len(started) <= 2 * cfg.jobs + 1 < 12
    assert not (tmp_path / "x.csv").exists()


#: grids that together hold every status: a muon pair straddling its
#: threshold, a pure lr pair annihilating through theta = pi (no outgoing
#: flux there) and Moller on the theta = 0 pole ray; the p ends are seeded
STATUS_GRIDS = {
    "muon-pair-threshold": (
        dict(process=ProcessKind.MUON_PAIR, p_min=0.9 * _THR_MU, p_max=1.2 * _THR_MU,
             p_steps=40, theta_steps=6),
        {"ok", "below-threshold"}),
    "annihilation-lr-backward": (
        dict(process=ProcessKind.ANNIHILATION, initial="lr", p_min=0.01, p_max=3.0, p_steps=30,
             theta_min=math.pi - 0.5, theta_max=math.pi + 0.5, theta_steps=5),
        {"ok", "unfilterable"}),
    "moller-forward": (
        dict(process=ProcessKind.MOLLER, p_min=0.01, p_max=3.0, p_steps=30,
             theta_min=0.0, theta_max=0.0, theta_steps=1),
        {"divergent"}),
    "single-point-bhabha": (
        dict(process=ProcessKind.BHABHA, p_min=0.5, p_max=0.5, p_steps=1,
             theta_min=1.0, theta_max=1.0, theta_steps=1),
        {"ok"}),
}


def _point_status(process, initial, p, theta) -> str:
    """The status of (p, theta) on the point path: ok, or the error it raises."""
    try:
        evolve(amplitude(build_kinematics(process, p, theta)), parse_initial(initial))
    except BelowThresholdError:
        return "below-threshold"
    except DivergentKinematicsError:
        return "divergent"
    except UnfilterableStateError:
        return "unfilterable"
    return "ok"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("seed, grid", enumerate(sorted(STATUS_GRIDS)))
def test_scan_status_matches_the_point_path(seed, grid, jobs, tmp_path):
    base, statuses = STATUS_GRIDS[grid]
    low, high = np.random.default_rng(seed).uniform(0.98, 1.02, 2)
    cfg = ScanConfig(**{**base, "p_min": low * base["p_min"], "p_max": high * base["p_max"]},
                     jobs=jobs, out=str(tmp_path / "streamed.csv"))
    result = run_scan(cfg)
    emit_csv(result, tmp_path / "result.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "result.csv").read_bytes()
    rows = list(result)
    assert {r.status for r in rows} == statuses
    sample = np.random.default_rng(seed).choice(len(rows), min(len(rows), 40), replace=False)
    for i in sample:
        assert rows[i].status == _point_status(cfg.process, cfg.initial, rows[i].p,
                                               rows[i].theta), rows[i]
    # one chunk over the whole grid, the below-threshold prefix included,
    # decides the statuses the scan reports
    rho_in = parse_initial(cfg.initial).density.entries
    columns = scan._evaluate(cfg.process, result.p_grid, result.theta_grid[:, None],
                             evolution_input(rho_in, *MIRROR_SIGNS[cfg.process]))
    assert np.array_equal(columns["status"].ravel(), result.status)


def _counting_engine(monkeypatch) -> list:
    """The engine's point count per call, appended to the list returned."""
    points, engine = [], scan.helicity_amplitudes_batch

    def counting(process, p, theta, *args, **kwargs):
        points.append(np.broadcast(p, theta).size)
        return engine(process, p, theta, *args, **kwargs)

    monkeypatch.setattr(scan, "helicity_amplitudes_batch", counting)
    return points


def test_grid_below_threshold_evaluates_every_point_once(monkeypatch, tmp_path):
    points = _counting_engine(monkeypatch)
    for jobs in (1, 2, 3):
        points.clear()
        # one chunk of 4 x 30 points, each evaluated and found below threshold
        result = run_scan(ScanConfig(process=ProcessKind.MUON_PAIR, p_min=1.0,
                                     p_max=0.99 * _THR_MU, p_steps=30, theta_steps=4,
                                     jobs=jobs, out=str(tmp_path / "streamed.csv")))
        assert points == [4 * 30]
        assert {r.status for r in result} == {"below-threshold"}
        emit_csv(result, tmp_path / "result.csv")
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "result.csv").read_bytes()
        assert streamed.count(b"\n") == 1 + 4 * 30


def test_threshold_inside_split_rows_gives_identical_csv_for_any_jobs(monkeypatch, tmp_path):
    # rows longer than a chunk, each split along p in two: the first chunk
    # of a row holds its points below threshold and the first above
    base = dict(process=ProcessKind.MUON_PAIR, p_min=0.9 * _THR_MU, p_max=2.0 * _THR_MU,
                p_steps=CHUNK_POINTS + 2000, theta_steps=3)
    points = _counting_engine(monkeypatch)
    want = None
    for jobs in (1, 2, 3):
        points.clear()
        result = run_scan(ScanConfig(**base, jobs=jobs, out=str(tmp_path / "streamed.csv")))
        below = result.status == STATUSES.index("below-threshold")
        row = below[:base["p_steps"]]                # every row straddles the threshold
        assert 0 < row.sum() < CHUNK_POINTS and below.sum() == 3 * row.sum()
        assert row[:row.sum()].all()
        # every point is evaluated once, by the chunk that holds it
        assert sorted(points) == [2000] * 3 + [CHUNK_POINTS] * 3
        assert sum(points) == result.status.size
        emit_csv(result, tmp_path / "scan.csv")
        got = (tmp_path / "scan.csv").read_bytes()
        assert (tmp_path / "streamed.csv").read_bytes() == got
        assert want is None or got == want
        want = got


def test_scan_result_row_views():
    cfg = ScanConfig(process=ProcessKind.MUON_PAIR, p_min=0.5 * _THR_MU,
                     p_max=1.5 * _THR_MU, p_steps=3, theta_steps=2)
    result = run_scan(cfg)
    rows = list(result)
    assert len(result) == len(rows) == 6
    assert [result[i] for i in range(-6, 6)] == rows + rows
    with pytest.raises(IndexError):
        result[6]
    assert rows[0].status == "below-threshold" and rows[0].entangled is None
    assert rows[1].status == "ok" and isinstance(rows[1].entangled, bool)
    assert np.isnan(result.negativity[0]) and not result.entangled[0]


def test_scan_memory_grows_by_columns_only():
    # tracemalloc peak of run_scan per extra grid point: the columns of the
    # result, not per-point objects (about 1.9 kB a point with row objects).
    # On the larger grid the columns (35 B a point) are most of the peak: the
    # symmetry audit compares row pairs in blocks, not as whole-grid copies
    for theta_steps, p_steps, bound in ((100, (100, 200), 256), (300, (300, 600), 48)):
        peaks = []
        for steps in p_steps:
            cfg = ScanConfig(process=ProcessKind.MOLLER, p_min=0.1, p_max=3.0,
                             p_steps=steps, theta_steps=theta_steps)
            tracemalloc.start()
            try:
                run_scan(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (theta_steps * (p_steps[1] - p_steps[0])) <= bound


def test_scan_result_stores_35_bytes_per_point():
    # four float64 measures, two bool flags and an int8 status per point;
    # p and theta are derived from the grid axes, not stored per point
    result = run_scan(ScanConfig(process=ProcessKind.MOLLER, p_min=0.1, p_max=3.0,
                                 p_steps=40, theta_steps=30))
    arrays = {name: a for name, a in vars(result).items() if isinstance(a, np.ndarray)}
    per_point = {name for name, a in arrays.items() if a.size == len(result)}
    assert per_point == set(scan._MEASURES + scan._FLAGS + ("status",))
    assert sum(arrays[name].nbytes for name in per_point) == 35 * len(result) == 35 * 1200
    assert arrays["p_grid"].shape == (40,) and arrays["theta_grid"].shape == (30,)
    assert len(arrays) == len(per_point) + 2


def test_plot_script_references_csv(tmp_path):
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_min=0.5, p_max=1.5,
                     p_steps=2, theta_steps=2)
    rows = run_scan(cfg)
    csv_path = tmp_path / "rows.csv"
    gp_path = tmp_path / "rows.gp"
    emit_csv(rows, csv_path)
    emit_plot_script(rows, gp_path, csv_path)
    script = gp_path.read_text()
    assert str(csv_path) in script
    assert "plot" in script


def test_plot_script_doubles_quotes_in_its_strings(tmp_path):
    result = _columns("moller", "it's", [1.0], [1.0], [(0.0,) * 4], [(False, False)], ["ok"])
    emit_plot_script(result, tmp_path / "a.gp", os.path.join("data", "it's", "a.csv"))
    script = (tmp_path / "a.gp").read_text()
    assert "csv = '" + os.path.join("data", "it''s", "a.csv") + "'\n" in script
    assert "set title 'moller (it''s): logarithmic negativity'\n" in script
    # every single-quoted string closes on its own line
    assert all(line.replace("''", "").count("'") % 2 == 0
               for line in script.splitlines() if not line.startswith("#"))


def test_symmetry_audit_clean_and_violated():
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_min=0.4, p_max=2.0,
                     p_steps=4, theta_steps=8)
    result = run_scan(cfg)
    assert symmetry_audit(result) == []
    # corrupt one point: the audit must flag the broken pair
    assert result[3].status == "ok"
    result.negativity[3] += 1e-3
    assert symmetry_audit(result)


def test_bhabha_audit_uses_reflection():
    cfg = ScanConfig(process=ProcessKind.BHABHA, p_min=0.4, p_max=1.0,
                     p_steps=3, theta_steps=8)
    rows = run_scan(cfg)
    assert symmetry_audit(rows) == []


def _audit_messages(caplog):
    return [r.getMessage() for r in caplog.records
            if r.levelno == logging.INFO and r.getMessage().startswith("symmetry audit")]


@pytest.mark.parametrize("process", [ProcessKind.MOLLER, ProcessKind.MUON_PAIR,
                                     ProcessKind.BHABHA])
@pytest.mark.parametrize("turn", [1, -1])
def test_symmetry_audit_outside_first_turn(process, turn, caplog):
    # keys and images are compared modulo 2 pi, so a full turn shifted by
    # +-2 pi pairs exactly as many points as [0, 2 pi]
    muonic = process is ProcessKind.MUON_PAIR
    base = dict(process=process, p_min=120.0 if muonic else 0.4,
                p_max=500.0 if muonic else 2.0, p_steps=6, theta_steps=16)
    shift = turn * 2 * math.pi
    caplog.set_level(logging.INFO, logger="qedtangle.scan")
    run_scan(ScanConfig(**base))
    result = run_scan(ScanConfig(**base, theta_min=shift, theta_max=shift + 2 * math.pi))
    first, shifted = _audit_messages(caplog)
    assert first.endswith("over 96 pairs") and shifted.endswith("over 96 pairs")
    assert symmetry_audit(result) == []
    assert result[20].status == "ok"
    result.negativity[20] += 1e-3
    warnings = symmetry_audit(result)
    assert len(warnings) == 1 and warnings[0].endswith("over 96 pairs")


_IMAGES = {ProcessKind.MOLLER: lambda t: t + math.pi,
           ProcessKind.MUON_PAIR: lambda t: t + math.pi,
           ProcessKind.ANNIHILATION: lambda t: t + math.pi,
           ProcessKind.BHABHA: lambda t: 2 * math.pi - t}


def _point_keyed_audit(result, process):
    """(worst deviation, pairs) by the point-keyed rule: each ok point against
    the last ok point in grid order whose (theta mod 2 pi, p), rounded to 12
    digits, is its image's, found by a sort and a binary search of all points."""
    def key(theta, p):
        return np.round(np.remainder(theta, 2 * math.pi), 12) + 1j * np.round(p, 12)

    ok = np.flatnonzero(result.status == STATUSES.index("ok"))
    theta, p = result.theta[ok], result.p[ok]
    keys, want = key(theta, p), key(_IMAGES[process](theta), p)
    order = np.argsort(keys, kind="stable")
    pos = np.searchsorted(keys[order], want, side="right") - 1
    hit = keys[order][pos] == want
    mine, partner = ok[hit], ok[order[pos[hit]]]
    worst = max(float(np.max(np.abs(getattr(result, name)[mine] - getattr(result, name)[partner]),
                             initial=0.0)) for name in scan._MEASURES)
    return worst, mine.size


def _audit_numbers(result, caplog):
    """(worst deviation, pairs) as symmetry_audit logs them, unrounded."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="qedtangle.scan"):
        symmetry_audit(result)
    (record,) = [r for r in caplog.records if r.getMessage().startswith("symmetry audit")]
    return record.args[1:]


_TWO_PI = 2 * math.pi

#: grids with their audit pair counts: pole rows nudged onto each other's
#: images (16 rows), an odd row count whose only pairs are a nudged row and
#: its image (15 rows), several turns (equal keys in several rows), rows of
#: unfilterable points, and the multi-chunk scans with a symmetry
AUDIT_GRIDS = {
    "moller-nudged-poles": (dict(process=ProcessKind.MOLLER, p_min=0.4, p_max=2.0,
                                 p_steps=50, theta_min=-math.pi / 16,
                                 theta_max=_TWO_PI - math.pi / 16, theta_steps=16), 800),
    "moller-odd-rows": (dict(process=ProcessKind.MOLLER, p_min=0.4, p_max=2.0, p_steps=7,
                             theta_steps=15), 14),
    "moller-two-turns": (dict(process=ProcessKind.MOLLER, p_min=0.4, p_max=2.0, p_steps=20,
                              theta_max=2 * _TWO_PI, theta_steps=32), 640),
    "bhabha-two-turns": (dict(process=ProcessKind.BHABHA, p_min=0.4, p_max=2.0, p_steps=20,
                              theta_max=2 * _TWO_PI, theta_steps=32), 640),
    "moller-three-turns": (dict(process=ProcessKind.MOLLER, p_min=0.4, p_max=2.0, p_steps=20,
                                theta_min=-_TWO_PI, theta_max=2 * _TWO_PI,
                                theta_steps=48), 960),
    "bhabha-odd-rows": (dict(process=ProcessKind.BHABHA, p_min=0.4, p_max=2.0, p_steps=50,
                             theta_steps=17), 850),
    "muon-pair": (dict(process=ProcessKind.MUON_PAIR, p_min=0.8 * _THR_MU,
                       p_max=4.0 * _THR_MU, p_steps=31, theta_steps=24), 696),
    "annihilation-lr": (dict(process=ProcessKind.ANNIHILATION, initial="lr", p_min=0.01,
                             p_max=3.0, p_steps=30, theta_steps=24), 720),
    "annihilation-lr-unfilterable-rows": (
        dict(process=ProcessKind.ANNIHILATION, initial="lr", p_min=0.01, p_max=3.0,
             p_steps=12, theta_min=-math.pi / 20, theta_max=_TWO_PI - math.pi / 20,
             theta_steps=20), 216),
    "moller-poles": (MULTI_CHUNK_GRIDS["moller-poles"][0], 17600),
    "muon-pair-threshold": (MULTI_CHUNK_GRIDS["muon-pair-threshold"][0], 19496),
    # rows longer than CHUNK_POINTS, which the audit compares in pieces
    "moller-split-rows": (dict(process=ProcessKind.MOLLER, p_min=0.4, p_max=2.0, p_steps=9000,
                               theta_steps=4), 36000),
}


@pytest.mark.parametrize("grid", sorted(AUDIT_GRIDS))
def test_row_paired_audit_matches_point_keyed_pairing(grid, caplog):
    base, pairs = AUDIT_GRIDS[grid]
    result = run_scan(ScanConfig(**base))
    process = base["process"]
    got = _audit_numbers(result, caplog)
    assert got == _point_keyed_audit(result, process)
    assert got[1] == pairs
    # a deviation planted at the last ok point is seen by both
    last = np.flatnonzero(result.status == STATUSES.index("ok"))[-1]
    result.entropy[last] += 1e-3
    assert _audit_numbers(result, caplog) == _point_keyed_audit(result, process)


@pytest.mark.parametrize("workload, processes, pairs", [
    ("scan-moller", [ProcessKind.MOLLER], [90000]),
    # Compton has no symmetry: its grid, relabelled, is audited under the
    # other rules; the jittered theta_min leaves -theta off the grid
    ("scan-compton-wide", [ProcessKind.MOLLER, ProcessKind.BHABHA], [180000, 0])])
def test_row_paired_audit_matches_point_keyed_pairing_on_benchmark_grids(
        workload, processes, pairs, caplog):
    from test_perfbench_contract import _load
    spec = dataclasses.asdict(_load("workloads").scan_spec(workload, 1))
    result = run_scan(ScanConfig(**{**spec, "process": ProcessKind(spec["process"])}))
    for process, want in zip(processes, pairs):
        got = _audit_numbers(dataclasses.replace(result, process=process.value), caplog)
        assert got == _point_keyed_audit(result, process)
        assert got[1] == want


def test_run_scan_logs_every_audit(caplog):
    caplog.set_level(logging.INFO, logger="qedtangle.scan")
    # a clean audit with pairs, then one whose grid has no image points
    run_scan(ScanConfig(process=ProcessKind.MOLLER, p_min=0.4, p_max=2.0,
                        p_steps=4, theta_steps=8))
    run_scan(ScanConfig(process=ProcessKind.ANNIHILATION, p_min=0.4, p_max=2.0,
                        p_steps=4, theta_max=math.pi, theta_steps=8))
    run_scan(ScanConfig(process=ProcessKind.COMPTON, p_min=0.4, p_max=2.0,
                        p_steps=4, theta_steps=8))      # no symmetry, no audit
    logged = _audit_messages(caplog)
    assert len(logged) == 2
    assert logged[0].startswith("symmetry audit theta -> theta+pi: worst deviation ")
    assert logged[0].endswith(" over 32 pairs")
    assert logged[1] == ("symmetry audit theta -> theta+pi: worst deviation "
                         "0.000e+00 over 0 pairs")


def test_run_scan_keeps_its_audit_warnings(monkeypatch):
    cfg = ScanConfig(process=ProcessKind.MOLLER, p_min=0.4, p_max=2.0,
                     p_steps=4, theta_steps=8)
    assert run_scan(cfg).warnings == []
    monkeypatch.setattr("qedtangle.scan.symmetry_audit", lambda res: ["broken"])
    assert run_scan(cfg).warnings == ["broken"]


def test_diagonal_initial_state_round_trips_through_csv(tmp_path):
    # the weights are written with ';', so the initial field holds no comma
    cfg = ScanConfig(process=ProcessKind.MOLLER, initial="diag:0.5,0.5,0,0",
                     p_min=0.4, p_max=2.0, p_steps=2, theta_steps=3)
    path = tmp_path / "diag.csv"
    emit_csv(run_scan(cfg), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 7 and all(len(line.split(",")) == 11 for line in lines)
    rows = parse_csv(path)
    assert [r.initial for r in rows] == ["diag:0.5;0.5;0;0"] * 6
    assert parse_initial(rows[0].initial).description == rows[0].initial
    assert np.array_equal(parse_initial(rows[0].initial).density.entries,
                          parse_initial(cfg.initial).density.entries)


def test_find_threshold_moller():
    want = math.sqrt(math.sqrt(5.0) + 2.0) * DEFAULT.m_e
    got = find_threshold(ProcessKind.MOLLER, "unpolarized", math.pi / 2, (0.5, 2.0))
    assert got == pytest.approx(want, rel=1e-5)


def test_find_threshold_requires_sign_change():
    with pytest.raises(InvalidConfigError):
        find_threshold(ProcessKind.MOLLER, "unpolarized", math.pi / 2, (2.0, 3.0))


def test_find_threshold_bracket_errors_match_point_path():
    # theta = 0 is a Moller t-channel pole; a pure lr pair annihilating
    # head-on (theta = pi) has no outgoing flux
    with pytest.raises(DivergentKinematicsError):
        find_threshold(ProcessKind.MOLLER, "unpolarized", 0.0, (0.5, 2.0))
    with pytest.raises(UnfilterableStateError):
        find_threshold(ProcessKind.ANNIHILATION, "lr", math.pi, (0.01, 1.0))


def test_find_threshold_electron_muon():
    want = math.sqrt(DEFAULT.m_e * DEFAULT.m_mu) / 2.0
    got = find_threshold(ProcessKind.ELECTRON_MUON, "unpolarized", math.pi, (1.0, 10.0))
    assert got == pytest.approx(want, rel=5e-3)


def _diag_spec(rng):
    """A seeded `diag:` spec, four random weights in repr text (the recipe of
    the benchmark's query streams)."""
    w = rng.uniform(0.05, 1.0, size=4)
    w /= w.sum()
    w[3] = 1.0 - w[:3].sum()
    return "diag:" + ",".join(repr(float(x)) for x in w)


def test_diag_labels_parse_back_bit_for_bit():
    # a diag: scan's CSV `initial` field can be fed back to --initial
    rng = np.random.default_rng(2024)
    for _ in range(200):
        init = parse_initial(_diag_spec(rng))
        again = parse_initial(init.description)
        assert again.description == init.description
        assert np.array_equal(again.density.entries, init.density.entries)
    assert parse_initial("diag:0.5,0.5,0,0").description == "diag:0.5;0.5;0;0"
    assert parse_initial("diag:1e-05,0.25,0.25,0.49999").description == \
        "diag:1e-05;0.25;0.25;0.49999"


@pytest.mark.parametrize("spec, shown", [("diag:0.3,0.3,0.3,0.3", "got 1.2"),
                                         ("diag:0.1,0.2,0.3,0.5", "got 1.1")])
def test_weight_errors_show_plain_floats(spec, shown):
    with pytest.raises(InvalidConfigError, match=shown) as err:
        parse_initial(spec)
    assert "np." not in str(err.value)
