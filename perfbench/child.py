"""One benchmark pass in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED PASS MODE OUT_DIR

MODE is ``setup`` (set up, then exit), ``time`` (untraced, with the host-speed
probe of ``reference.py`` running), ``trace`` (spans around every layer) or
``alloc`` (tracemalloc around ``run_scan``). The process imports the program,
generates its inputs, warms up, and prints ``READY`` once the first timed
operation can be issued; ``run.py`` takes the time from spawn to that line as
set-up time. After the timed work it prints one JSON line with the outputs
``run.py`` checks and the timings it reports: wall times net of probe calls
and, in ``time`` mode, the same in reference seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from qedtangle import amplitudes, cli, entanglement, kinematics, qstate, scan  # noqa: E402
from qedtangle.errors import QedTangleError  # noqa: E402

from reference import Probe  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
import workloads  # noqa: E402


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def scan_pass(spec, out_dir: str, tag: str, probe: Probe | None = None) -> dict:
    csv_path = os.path.join(out_dir, f"{tag}.csv")
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    try:
        code, stdout = _run_cli(spec.argv(csv_path, os.path.join(out_dir, f"{tag}.gp")))
        end = time.perf_counter()
    finally:
        if probe is not None:
            probe.stop()
    seconds, ref_seconds = (probe.reference_seconds(start, end) if probe is not None
                            else (end - start, None))
    return {"exit_code": code, "stdout": stdout, "csv": csv_path, "seconds": seconds,
            "ref_seconds": ref_seconds, "points": spec.points}


def point_report(op: dict):
    """The ``qedtangle point`` chain: kinematics, amplitude, evolution, analysis."""
    kin = kinematics.build_kinematics(kinematics.ProcessKind(op["process"]), op["p"], op["theta"])
    amp = amplitudes.amplitude(kin)
    state = qstate.evolve(amp, scan.parse_initial(op["initial"]))
    return amp, state, entanglement.analyze(state)


def bisection(op: dict) -> float:
    return scan.find_threshold(kinematics.ProcessKind.MOLLER, "unpolarized",
                               op["theta"], (op["lo"], op["hi"]))


def run_query(op: dict) -> tuple[float, float, dict]:
    """Run one query; (start, end, record for its output check, built afterwards)."""
    rec = dict(op)
    start = time.perf_counter()
    try:
        if op["kind"] == "point":
            amp, state, report = point_report(op)
        else:
            p_star = bisection(op)
    except QedTangleError as exc:
        end = time.perf_counter()
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return start, end, rec
    end = time.perf_counter()
    if op["kind"] == "point":
        rec.update(trace=float(np.trace(state.entries).real),
                   pt_eigenvalues=list(report.pt_eigenvalues),
                   negativity=report.negativity, log_negativity=report.log_negativity,
                   msq=amp.spin_summed_msq(), evals=1)
    else:
        rec.update(p_star=p_star, evals=workloads.bisection_evals(op["lo"], op["hi"], p_star))
    return start, end, rec


def query_pass(ops: list[dict], probe: Probe | None = None) -> dict:
    spans, records = [], []
    if probe is not None:
        probe.start()
    try:
        for op in ops:
            start, end, rec = run_query(op)
            spans.append((start, end))
            records.append(rec)
    finally:
        if probe is not None:
            probe.stop()
    if probe is None:
        latencies, ref_latencies = [end - start for start, end in spans], None
    else:
        latencies, ref_latencies = map(list, zip(*(probe.reference_seconds(start, end)
                                                    for start, end in spans)))
    return {"seconds": sum(latencies), "latencies": latencies,
            "ref_seconds": sum(ref_latencies) if ref_latencies else None,
            "ref_latencies": ref_latencies, "records": records}


def main(argv: list[str]) -> int:
    workload, seed, pass_index, mode, out_dir = argv
    seed, pass_index = int(seed), int(pass_index)
    tag = f"{workload}-{seed}-{pass_index}-{mode}"
    if workload in workloads.SCAN_WORKLOADS:
        spec = workloads.scan_spec(workload, seed)
        warm = workloads.warmup_spec(spec)
        _run_cli(warm.argv(os.path.join(out_dir, f"{tag}-warm.csv"),
                           os.path.join(out_dir, f"{tag}-warm.gp")))
    else:
        ops = workloads.query_stream(seed, pass_index)
        for op in workloads.warmup_stream(seed):
            run_query(op)
    probe = Probe() if mode == "time" else None
    print("READY", flush=True)
    if mode == "setup":
        return 0

    result = {}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    elif mode == "alloc":
        import tracemalloc
        run_scan = cli.run_scan

        def traced_run_scan(cfg):
            tracemalloc.start()
            try:
                return run_scan(cfg)
            finally:
                result["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
        cli.run_scan = traced_run_scan

    if workload in workloads.SCAN_WORKLOADS:
        result.update(scan_pass(spec, out_dir, tag, probe))
    else:
        result.update(query_pass(ops, probe))
    if probe is not None:
        result["probe_ms"] = probe.median_ms()

    if tracer is not None:
        tracer.uninstall()
        jobs = spec.jobs if workload in workloads.SCAN_WORKLOADS else 1
        result["layers"] = layer_metrics(tracer.spans, jobs)
        result["spans"] = os.path.join(out_dir, f"{tag}-spans.jsonl")
        tracer.dump(result["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
