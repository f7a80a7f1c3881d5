"""Self-test of the benchmark's checks, span and probe arithmetic at tiny sizes.

    python3 perfbench/selftest.py

Runs two tiny scans and a short query stream, asserts that every check
passes on the true outputs, then feeds each check a deliberately corrupted
output and asserts that the failed fraction becomes positive, so that no
check is vacuous. It also checks self times and reference times on
synthetic timelines. Exits 0 when every corruption is caught.
"""
from __future__ import annotations

from dataclasses import replace
import math
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import child  # noqa: E402
from qedtangle.amplitudes import helicity_amplitudes_batch  # noqa: E402
from qedtangle.scan import parse_csv  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench-selftest")

MOLLER = workloads.ScanSpec("moller", "unpolarized", 0.01, 3.0, 12, False,
                            1e-4, 1e-4 + 2 * math.pi, 16, 1)
COMPTON = workloads.ScanSpec("compton", "werner", 0.01, 1e4, 8, True,
                             1e-4, 1e-4 + 2 * math.pi, 6, 2)


def failed_frac(outcomes: list[list[str]]) -> float:
    return sum(1 for problems in outcomes if problems) / len(outcomes)


def rewrite(src: str, dst: str, edit) -> None:
    with open(src) as fh:
        lines = fh.read().split("\n")
    edit(lines)
    with open(dst, "w") as fh:
        fh.write("\n".join(lines))


def set_field(lines, row: int, col: int, value: str) -> None:
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)


def scan_corruptions(spec, csv_path: str, stdout: str):
    """(label, check outcome) for each corrupted version of one scan."""
    def variant(label, edit):
        path = os.path.join(OUT_DIR, f"{spec.process}-{label}.csv")
        rewrite(csv_path, path, edit)
        return checks.check_scan(spec, path, stdout.replace(csv_path, path), seed=0)

    cols = checks.read_columns(csv_path)
    stable = np.flatnonzero(~checks._band(cols["p"], cols["theta"]))
    row = 1 + int(stable[len(stable) // 2])
    flipped = "false" if cols["entangled"][row - 1] else "true"

    def misread(path):
        rows = parse_csv(path)
        rows[3] = replace(rows[3], min_pt_eig=(rows[3].min_pt_eig or 0.0) + 1e-9)
        return rows

    def scaled(*args):
        total, channels, divergent = helicity_amplitudes_batch(*args)
        return total * (1 + 1e-6), channels, divergent

    out = [
        ("row dropped", variant("dropped", lambda ls: ls.pop(-2))),
        ("status changed", variant("status", lambda ls: set_field(ls, 2, 10, "unfilterable"))),
        ("grid point moved", variant("grid", lambda ls: set_field(ls, 2, 2, "0.0100001"))),
        ("header changed", variant("header", lambda ls: ls.__setitem__(0, ls[0].upper()))),
        ("row count not reported", checks.check_scan(spec, csv_path, "", seed=0)),
        ("CSV misread", checks.check_scan(spec, csv_path, stdout, seed=0, reader=misread)),
        ("|M|^2 scaled", checks.check_scan(spec, csv_path, stdout, seed=0, amplitudes=scaled)),
    ]
    if spec.process == "moller":
        out.append(("entangled flag flipped",
                    variant("flag", lambda ls: set_field(ls, row, 8, flipped))))
    return out


def query_corruptions(records):
    point = next(r for r in records if r["kind"] == "point")
    bisect = next(r for r in records if r["kind"] == "bisect")
    eig = point["pt_eigenvalues"]
    return [
        ("trace off", dict(point, trace=point["trace"] + 1e-9)),
        ("PT spectrum unsorted", dict(point, pt_eigenvalues=[eig[1], eig[0]] + eig[2:])),
        ("log-negativity off", dict(point, log_negativity=point["log_negativity"] + 1e-9)),
        ("point |M|^2 off", dict(point, msq=point["msq"] * (1 + 1e-6))),
        ("point raised", dict(point, error="UnfilterableStateError")),
        ("threshold moved", dict(bisect, p_star=bisect["p_star"] * 1.001)),
        ("bisection raised", dict(bisect, error="InvalidConfigError")),
    ]


def check_self_times() -> None:
    spans = [(0, "a", 0.0, 10.0, None, 1, None), (1, "b", 1.0, 3.0, 0, 1, None),
             (2, "b", 2.0, 5.0, 0, 2, None), (3, "c", 2.5, 2.75, 1, 1, None)]
    got = tracer.self_times(spans)
    want = {0: 6.0, 1: 1.75, 2: 3.0, 3: 0.25}
    if any(abs(got[k] - v) > 1e-12 for k, v in want.items()):
        raise AssertionError(f"self times {got}, expected {want}")


def check_reference_time() -> None:
    """Probe arithmetic on a synthetic timeline, then a live probe around a short call."""
    probe = reference.Probe()
    probe.starts = [0.025 * i for i in range(40)]
    probe.durations = [0.001] * 20 + [0.002] * 20
    nominal = reference.NOMINAL_MS * 1e-3
    cases = [((0.1, 0.3), (0.2 - 0.008, (0.2 - 0.008) * nominal / 0.001)),
             ((0.6, 0.9), (0.3 - 0.024, (0.3 - 0.024) * nominal / 0.002))]
    for (t0, t1), want in cases:
        got = probe.reference_seconds(t0, t1)
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            raise AssertionError(f"reference time of [{t0}, {t1}): {got}, expected {want}")
    live = reference.Probe()
    live.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.1:
        pass
    end = time.perf_counter()
    live.stop()
    net, ref = live.reference_seconds(start, end)
    if len(live.durations) < reference.MIN_SAMPLES or not 0 < net < end - start or ref <= 0:
        raise AssertionError(f"live probe: {len(live.durations)} calls, net {net}, ref {ref}")


def main() -> int:
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    caught = 0
    for spec in (MOLLER, COMPTON):
        res = child.scan_pass(spec, OUT_DIR, spec.process)
        clean = checks.check_scan(spec, res["csv"], res["stdout"], seed=0)
        if clean:
            raise AssertionError(f"{spec.process}: true output fails its checks: {clean}")
        for label, problems in scan_corruptions(spec, res["csv"], res["stdout"]):
            if failed_frac([clean, problems]) <= 0:
                raise AssertionError(f"{spec.process}: '{label}' was not caught")
            caught += 1

    ops = workloads.query_stream(seed=0, pass_index=0)
    ops = [o for o in ops if o["kind"] == "point"][:20] + \
          [o for o in ops if o["kind"] == "bisect"][:2]
    records = [child.run_query(op)[2] for op in ops]
    clean = [checks.check_query(rec) for rec in records]
    if failed_frac(clean) != 0:
        raise AssertionError(f"true query outputs fail their checks: {clean}")
    for label, rec in query_corruptions(records):
        if failed_frac(clean + [checks.check_query(rec)]) <= 0:
            raise AssertionError(f"query: '{label}' was not caught")
        caught += 1

    check_self_times()
    check_reference_time()
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    print(f"selftest: all {caught} corrupted outputs caught; span self times and "
          f"reference times correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
