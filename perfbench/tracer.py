"""Span recorder wrapped around qedtangle's public functions from outside.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``qedtangle`` module namespace that holds it, which is where callers
look it up (``qedtangle.scan.helicity_amplitudes_batch``,
``qedtangle.entanglement.hermitian_eigenvalues_batch`` and so on). Nothing
in the program changes; ``uninstall`` puts the originals back.

Each span records (id, name, start, end, parent id, thread id, counts). A
span opened on a worker thread with no open span of its own takes the
innermost open span of the installing thread as parent, which is the
``run_scan`` call waiting on the thread pool. Spans stay in memory until the
pass ends; ``layer_metrics`` then turns them into per-layer numbers, where a
span's self time is its duration minus the union of its children's
intervals.
"""
from __future__ import annotations

from collections import defaultdict
import functools
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

from qedtangle.constants import DEFAULT
from qedtangle.entanglement import PPT_TOL

# (module, function, span name). Span names are "<layer>.<function>".
TARGETS = (
    ("qedtangle.cli", "main", "cli.main"),
    ("qedtangle.scan", "run_scan", "scan.run_scan"),
    ("qedtangle.scan", "_evaluate", "scan._evaluate"),
    ("qedtangle.scan", "symmetry_audit", "scan.symmetry_audit"),
    ("qedtangle.scan", "emit_csv", "scan.emit_csv"),
    ("qedtangle.scan", "emit_plot_script", "scan.emit_plot_script"),
    ("qedtangle.scan", "find_threshold", "scan.find_threshold"),
    ("qedtangle.kinematics", "build_kinematics", "kinematics.build_kinematics"),
    ("qedtangle.kinematics", "mandelstam_batch", "kinematics.mandelstam_batch"),
    ("qedtangle.amplitudes", "helicity_amplitudes_batch",
     "amplitudes.helicity_amplitudes_batch"),
    ("qedtangle.dirac", "u_batch", "dirac.u_batch"),
    ("qedtangle.dirac", "v_batch", "dirac.v_batch"),
    ("qedtangle.dirac", "eps_batch", "dirac.eps_batch"),
    ("qedtangle.dirac", "current_batch", "dirac.current_batch"),
    ("qedtangle.dirac", "lorentz_dot_batch", "dirac.lorentz_dot_batch"),
    ("qedtangle.dirac", "slash_batch", "dirac.slash_batch"),
    ("qedtangle.qstate", "evolve_batch", "qstate.evolve_batch"),
    ("qedtangle.qstate", "evolve", "qstate.evolve"),
    ("qedtangle.linalg", "hermitian_eigenvalues_batch",
     "linalg.hermitian_eigenvalues_batch"),
    ("qedtangle.linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues"),
    ("qedtangle.entanglement", "measures_batch", "entanglement.measures_batch"),
    ("qedtangle.entanglement", "analyze", "entanglement.analyze"),
)

SPINORS = ("dirac.u_batch", "dirac.v_batch", "dirac.eps_batch")
CONTRACTIONS = ("dirac.current_batch", "dirac.lorentz_dot_batch", "dirac.slash_batch")

UNIT_SUFFIXES = {"s": "s", "self_s": "s", "alloc_peak_mb": "MB", "bytes": "bytes",
                 "busy_frac": "fraction", "overhead_frac": "fraction"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return UNIT_SUFFIXES.get(metric.rsplit(".", 1)[1], "count")


def _fragile_cut(args, kwargs, position: int) -> float:
    """max(tol, alpha^3): |min PT eigenvalue| at or below it is verdict-fragile."""
    tol = args[position] if len(args) > position else kwargs.get("tol", PPT_TOL)
    consts = args[position + 1] if len(args) > position + 1 else kwargs.get("consts", DEFAULT)
    return max(tol, consts.alpha3)


def _count_amplitudes(args, kwargs, result):
    return {"points": int(np.size(args[1])), "divergent": int(np.sum(result[2]))}


def _count_eigen(args, kwargs, result):
    return {"matrices": 1 if np.ndim(result) == 1 else int(np.shape(result)[0])}


def _count_evolve_batch(args, kwargs, result):
    amps = args[0]
    live = np.any(amps != 0, axis=(1, 2))      # divergent points arrive zeroed
    return {"unfilterable": int(np.sum(~result[1] & live))}


def _count_measures(args, kwargs, result):
    cut = _fragile_cut(args, kwargs, 1)
    return {"fragile": int(np.sum(np.abs(result["min_pt_eig"]) <= cut))}


def _count_analyze(args, kwargs, result):
    cut = _fragile_cut(args, kwargs, 1)
    return {"fragile": int(abs(result.pt_eigenvalues[0]) <= cut)}


def _count_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


COUNTERS = {
    "amplitudes.helicity_amplitudes_batch": _count_amplitudes,
    "linalg.hermitian_eigenvalues_batch": _count_eigen,
    "qstate.evolve_batch": _count_evolve_batch,
    "entanglement.measures_batch": _count_measures,
    "entanglement.analyze": _count_analyze,
    "scan.emit_csv": _count_csv,
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home: list | None = None
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home[-1] if self._home else None)
            span_id = next(self._ids)
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if error is not None:
                    counts = {"error": error}
                elif counter is not None:
                    counts = counter(args, kwargs, result)
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), counts))
            return result
        return wrapper

    def install(self) -> None:
        """Patch every target in every loaded qedtangle module that holds it."""
        self._home = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qedtangle" or n.startswith("qedtangle.")]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _, start, end, _, _, _ in spans:
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(span_id, ())
                   if min(b, end) > max(a, start)]
        out[span_id] = (end - start) - _union_length(clipped)
    return out


def layer_metrics(spans, jobs: int = 1) -> dict:
    """Per-layer totals for one pass; a layer that never ran reads 0."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def total(name):
        return sum(end - start for _, _, start, end, _, _, _ in by_name[name])

    def self_total(name):
        return sum(selfs[s[0]] for s in by_name[name])

    def count(name, key):
        return sum((c or {}).get(key, 0) for *_, c in by_name[name])

    return {
        "linalg.hermitian_eigenvalues_batch.s": total("linalg.hermitian_eigenvalues_batch"),
        "linalg.hermitian_eigenvalues_batch.calls": len(by_name["linalg.hermitian_eigenvalues_batch"]),
        "linalg.hermitian_eigenvalues_batch.matrices": count("linalg.hermitian_eigenvalues_batch", "matrices"),
        "linalg.hermitian_eigenvalues.s": total("linalg.hermitian_eigenvalues"),
        "linalg.hermitian_eigenvalues.calls": len(by_name["linalg.hermitian_eigenvalues"]),
        "amplitudes.helicity_amplitudes_batch.s": total("amplitudes.helicity_amplitudes_batch"),
        "amplitudes.helicity_amplitudes_batch.self_s": self_total("amplitudes.helicity_amplitudes_batch"),
        "amplitudes.helicity_amplitudes_batch.calls": len(by_name["amplitudes.helicity_amplitudes_batch"]),
        "amplitudes.helicity_amplitudes_batch.points": count("amplitudes.helicity_amplitudes_batch", "points"),
        "amplitudes.divergent": count("amplitudes.helicity_amplitudes_batch", "divergent"),
        "dirac.spinors.s": sum(total(n) for n in SPINORS),
        "dirac.contractions.s": sum(total(n) for n in CONTRACTIONS),
        "dirac.calls": sum(len(by_name[n]) for n in SPINORS + CONTRACTIONS),
        "kinematics.build_kinematics.s": total("kinematics.build_kinematics"),
        "kinematics.build_kinematics.calls": len(by_name["kinematics.build_kinematics"]),
        "kinematics.mandelstam_batch.s": total("kinematics.mandelstam_batch"),
        "qstate.evolve_batch.s": total("qstate.evolve_batch"),
        "qstate.evolve.s": total("qstate.evolve"),
        "qstate.unfilterable": (count("qstate.evolve_batch", "unfilterable")
                                + sum(1 for *_, c in by_name["qstate.evolve"]
                                      if c and c.get("error") == "UnfilterableStateError")),
        "entanglement.measures_batch.self_s": self_total("entanglement.measures_batch"),
        "entanglement.analyze.self_s": self_total("entanglement.analyze"),
        "entanglement.fragile": (count("entanglement.measures_batch", "fragile")
                                 + count("entanglement.analyze", "fragile")),
        "scan.run_scan.self_s": self_total("scan.run_scan"),
        "scan.symmetry_audit.s": total("scan.symmetry_audit"),
        "scan.emit_csv.s": total("scan.emit_csv"),
        "scan.emit_csv.bytes": count("scan.emit_csv", "bytes"),
        "scan.emit_plot_script.s": total("scan.emit_plot_script"),
        "scan.workers.busy_frac": _busy_frac(by_name, jobs),
        "scan.find_threshold.s": total("scan.find_threshold"),
        "scan.find_threshold.evals": _threshold_evals(by_name),
        "cli.main.self_s": self_total("cli.main"),
    }


def _busy_frac(by_name, jobs: int) -> float:
    """Worker evaluation time / (jobs x evaluation wall time), per run_scan."""
    busy = wall = 0.0
    for run in by_name["scan.run_scan"]:
        parts = [s for s in by_name["scan._evaluate"] if s[4] == run[0]]
        if parts:
            busy += sum(end - start for _, _, start, end, _, _, _ in parts)
            wall += max(s[3] for s in parts) - min(s[2] for s in parts)
    return busy / (jobs * wall) if wall > 0 else 0.0


def _threshold_evals(by_name) -> int:
    roots = {s[0] for s in by_name["scan.find_threshold"]}
    return sum(1 for s in by_name["amplitudes.helicity_amplitudes_batch"] if s[4] in roots)
