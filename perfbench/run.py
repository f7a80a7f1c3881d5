"""qedtangle benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each pass runs in a fresh Python process
(``child.py``) with the BLAS/OpenMP pools pinned to one thread, so the
scan's ``jobs`` setting is the only parallelism. Passes run one at a time,
closed loop, with one caller, until the next one would overrun ``--seconds``
(at least three passes). Every output is checked (``checks.py``); an
operation that raises, exits nonzero or fails a check counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
Timings are in reference units (``reference.py``): each operation's wall time,
net of the probe calls inside it, scaled by how fast the host ran a fixed
probe kernel on the same core while the operation ran. This cancels the
host's speed phases, which wall time alone cannot.

* ``setup_s``: spawn to "ready" (interpreter, imports, inputs, warm-up),
  median over every pass plus extra set-up-only processes. Wall time.
* ``points_per_ref_s``: grid points per reference second of the whole CLI
  scan call, or on ``queries`` amplitude evaluations per reference second of
  the pass; median of passes.
* ``op_p50_ref_ms``: median reference latency of one operation, which is one
  whole CLI scan on the scans and one point report on ``queries``.
* ``peak_rss_mb``: peak resident set of the pass process; median of passes.

Lines above it report the rest (the same timings in plain wall time, the
probe's median duration, bisection latency, tails with their sample counts,
failed fraction) and the environment. With ``--trace 1`` one pass
runs untraced, the same pass runs with spans around every layer, and on the
scans a third runs under tracemalloc; the last line then carries the
per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402  (numpy only; the program is imported later)

MIN_PASSES = 3
SETUP_PROBES = 4
#: the whole run must end well inside 180 s
HARD_LIMIT_S = 150.0
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


class PassFailed(Exception):
    """A pass process died, timed out or printed no result."""


def spawn(workload: str, seed: int, pass_index: int, mode: str, deadline: float):
    """Run one pass process; returns (set-up seconds, result, peak RSS in MB)."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           str(pass_index), mode, OUT_DIR]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if ready.strip() != "READY":
        raise PassFailed(f"{mode} pass {pass_index} never became ready "
                         f"(exit {proc.returncode})")
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass {pass_index} exited {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    return setup, result, usage.ru_maxrss / 1024.0


def tail(values):
    """(label, value, n): the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{pct:g}", cuts[int(round(pct * 10)) - 1], n
    return "max", max(values), n


class Run:
    """Passes of one workload, their checks, and what they measured."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        import checks
        self.checks = checks
        self.workload, self.seed = workload, seed
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.is_scan = workload in workloads.SCAN_WORKLOADS
        self.spec = workloads.scan_spec(workload, seed) if self.is_scan else None
        self.attempted = self.failed = 0
        self.setups, self.passes = [], []

    def _fail(self, msg: str) -> None:
        print(f"FAIL {self.workload}: {msg}", file=sys.stderr)

    def probe_setup(self) -> None:
        setup, _, _ = spawn(self.workload, self.seed, 0, "setup", self.hard_deadline)
        self.setups.append(setup)

    def run_pass(self, pass_index: int, mode: str):
        """One pass with its output checks; returns its summary, or None if it failed."""
        try:
            setup, res, rss = spawn(self.workload, self.seed, pass_index, mode,
                                    self.hard_deadline)
        except PassFailed as exc:
            self.attempted += 1
            self.failed += 1
            self._fail(str(exc))
            return None
        self.setups.append(setup)
        summary = {"mode": mode, "setup_s": setup, "rss_mb": rss, "result": res}
        if self.is_scan:
            self.attempted += 1
            problems = ([f"exit code {res['exit_code']}"] if res["exit_code"] != 0 else
                        self.checks.check_scan(self.spec, res["csv"], res["stdout"],
                                               self.seed))
            for name in (res["csv"], res["csv"][:-4] + ".gp"):
                if os.path.exists(name):
                    os.remove(name)
            if problems:
                self.failed += 1
                for msg in problems:
                    self._fail(f"{mode} pass {pass_index}: {msg}")
            summary["points_per_s"] = res["points"] / res["seconds"]
            summary["op_ms"] = [1e3 * res["seconds"]]
            if res["ref_seconds"] is not None:
                summary["points_per_ref_s"] = res["points"] / res["ref_seconds"]
                summary["ref_op_ms"] = [1e3 * res["ref_seconds"]]
        else:
            evals = 0
            for rec in res["records"]:
                self.attempted += 1
                problems = self.checks.check_query(rec)
                if problems:
                    self.failed += 1
                    for msg in problems:
                        self._fail(f"{mode} pass {pass_index} {rec['kind']}: {msg}")
                else:
                    evals += rec["evals"]
            kinds = [rec["kind"] for rec in res["records"]]
            summary["points_per_s"] = evals / res["seconds"]
            for key, prefix in (("latencies", ""), ("ref_latencies", "ref_")):
                if res[key] is None:
                    continue
                for kind in ("point", "bisect"):
                    summary[f"{prefix}{kind}_ms"] = [1e3 * t for t, k in zip(res[key], kinds)
                                                     if k == kind]
            if res["ref_seconds"] is not None:
                summary["points_per_ref_s"] = evals / res["ref_seconds"]
        self.passes.append(summary)
        ref = (f" ({summary['points_per_ref_s']:.1f} per ref_s)"
               if "points_per_ref_s" in summary else "")
        print(f"pass {pass_index} [{mode}]: setup {setup:.3f} s, "
              f"{summary['points_per_s']:.1f} points/s{ref}, peak RSS {rss:.1f} MB")
        return summary

    def timed(self) -> dict:
        """Untraced passes until the time is up; the end-to-end metrics."""
        for _ in range(SETUP_PROBES):
            self.probe_setup()
        cost = 0.0
        index = 0
        while True:
            now = time.perf_counter()
            if now + cost > (self.deadline if index >= MIN_PASSES else self.hard_deadline):
                break
            self.run_pass(index, "time")
            cost = time.perf_counter() - now
            index += 1
        ok = [p for p in self.passes if p["mode"] == "time"]
        if not ok:
            return {}
        lat_key = "op_ms" if self.is_scan else "point_ms"

        def p50(key):
            return statistics.median(t for p in ok for t in p[key])
        metrics = {
            "points_per_ref_s": (statistics.median(p["points_per_ref_s"] for p in ok),
                                 "1/ref_s"),
            "op_p50_ref_ms": (p50("ref_" + lat_key), "ref_ms"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in ok), "MB"),
            "setup_s": (statistics.median(self.setups), "s"),
        }
        print(f"wall time: points_per_s {statistics.median(p['points_per_s'] for p in ok):.6g} "
              f"1/s, op_p50_ms {p50(lat_key):.6g} ms; probe call median "
              f"{statistics.median(p['result']['probe_ms'] for p in ok):.4f} ms")
        self._report_latencies(ok)
        return metrics

    def _report_latencies(self, passes) -> None:
        if self.is_scan:
            ms = [t for p in passes for t in p["ref_op_ms"]]
            print(f"scan_ref_ms: median {statistics.median(ms):.1f} over {len(ms)} scans "
                  f"of {self.spec.points} points")
            return
        for kind in ("point", "bisect"):
            ms = [t for p in passes for t in p[f"ref_{kind}_ms"]]
            wall = statistics.median(t for p in passes for t in p[f"{kind}_ms"])
            label, value, n = tail(ms)
            print(f"{kind}_p50_ref_ms: {statistics.median(ms):.4f} ref_ms   "
                  f"{kind}_tail_ref_ms: {label} {value:.4f} ref_ms (n={n})   "
                  f"wall p50 {wall:.4f} ms")

    def traced(self) -> dict:
        """Untraced, traced and (scans) tracemalloc passes of one input; per-layer metrics."""
        from tracer import unit
        plain = self.run_pass(0, "time")
        traced = self.run_pass(0, "trace")
        alloc = self.run_pass(0, "alloc") if self.is_scan else None
        if traced is None:
            return {}
        layers = dict(traced["result"]["layers"])
        layers["scan.run_scan.alloc_peak_mb"] = alloc["result"]["alloc_peak_mb"] if alloc else 0.0
        if plain is not None:
            layers["trace.overhead_frac"] = plain["points_per_s"] / traced["points_per_s"] - 1.0
        print(f"spans: {traced['result']['spans']}")
        return {name: (value, unit(name)) for name, value in layers.items()}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=False).stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "commit": commit, **SINGLE_THREAD_ENV}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qedtangle", "__init__.py")):
        print(f"error: no qedtangle sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(valid: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)

    run = Run(args.workload, args.seed, args.seconds)
    metrics = run.traced() if args.trace else run.timed()
    if not metrics:
        print("error: no pass completed", file=sys.stderr)
        return 3
    frac = run.failed / max(run.attempted, 1)
    print(f"failed_frac: {frac:.6g} ({run.failed} of {run.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
