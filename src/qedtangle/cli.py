"""Command-line front end.

Subcommands:
  scan       sweep a (p, theta) grid, write CSV (and optionally a gnuplot script)
  threshold  bisect the entanglement boundary in p at fixed theta
  point      full entanglement report for one kinematic point
  xsec       differential cross-section validation against the closed forms
  audit      oracle / Ward-identity / symmetry / measure-sanity suite

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 I/O error.

Heap policy: before any subcommand runs, `main` sets two glibc malloc
parameters by `mallopt` (`_keep_freed_heap`): M_MMAP_THRESHOLD to 32 MiB,
the largest glibc accepts, so a chunk's temporaries come from the heap, and
M_TRIM_THRESHOLD to 1 GiB, far above a scan's working set, so freed heap
stays mapped. Setting either one turns off glibc's dynamic adjustment of
both, so both are set. Under the dynamic thresholds every scan chunk handed
its ~6 MB of freed temporaries back to the kernel and the next chunk
faulted them in again. In five fresh processes, each running the 4 x 4
warm-up and then three seed-1 `perfbench` `scan-compton-wide` scans at
jobs 2, the first scan took 29.9k-34.6k minor page faults and 48-108 ms of
system time without the policy, and later scans 28.0k-33.4k and 31-84 ms;
with it the first takes 6.5k-6.6k and 12-46 ms, and later ones 9-351 and
4-36 ms. No arithmetic changes, so every result bit is the same. Off glibc
the policy does nothing, and library callers of `run_scan` keep their
process's own malloc settings.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .amplitudes import amplitude, helicity_amplitudes_batch
from .entanglement import analyze, measures_batch, partial_transpose
from .errors import InvalidConfigError, QedTangleError
from .kinematics import PROCESS_TABLE, ProcessKind, build_kinematics, mandelstam_batch
from .qstate import evolve
from .scan import (_SYMMETRIES, ScanConfig, cross_section_check, emit_plot_script,
                   find_threshold, parse_initial, parse_process, run_scan)
from .xsection import dsigma_domega_oracle, msq_oracle


def _read_config_file(path: str) -> dict:
    values, linenos = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _SCAN_DEFAULTS:
                raise InvalidConfigError(f"{path}:{lineno}: unknown key {key!r} "
                                         f"(valid: {', '.join(_SCAN_DEFAULTS)})")
            if key in values:
                raise InvalidConfigError(f"{path}:{lineno}: repeated key {key!r} "
                                         f"(first set on line {linenos[key]})")
            values[key], linenos[key] = val, lineno
    return values


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

#: ScanConfig's fields and defaults; a scan flag or config key per field
_SCAN_FIELDS = dataclasses.fields(ScanConfig)
_SCAN_DEFAULTS = {f.name: f.default for f in _SCAN_FIELDS}


def _from_text(name: str, raw: str):
    """A config-file value, cast to the type of the field's default (str if none)."""
    default = _SCAN_DEFAULTS[name]
    if isinstance(default, bool):
        if raw.lower() not in _BOOL:
            raise InvalidConfigError(f"bad boolean for {name}: {raw!r}")
        return _BOOL[raw.lower()]
    cast = type(default) if isinstance(default, (int, float)) else str
    try:
        return cast(raw)
    except ValueError as exc:
        raise InvalidConfigError(f"bad value for {name}: {raw!r}") from exc


def _build_scan_config(args) -> ScanConfig:
    """ScanConfig from flags, then the --config file, then ScanConfig's defaults."""
    file_vals = _read_config_file(args.config) if args.config else {}
    kwargs = {}
    for f in _SCAN_FIELDS:
        if getattr(args, f.name) is not None:
            kwargs[f.name] = getattr(args, f.name)
        elif f.name in file_vals:
            kwargs[f.name] = _from_text(f.name, file_vals[f.name])
    if "process" not in kwargs:
        raise InvalidConfigError("--process is required (flag or config file)")
    kwargs["process"] = parse_process(kwargs["process"])
    return ScanConfig(**kwargs).validate()


def _cmd_scan(args) -> int:
    cfg = _build_scan_config(args)
    if cfg.out is None:
        raise InvalidConfigError("scan requires --out (or 'out' in the config file)")
    if args.plot_script and os.path.realpath(args.plot_script) == os.path.realpath(cfg.out):
        raise InvalidConfigError(f"--plot-script {args.plot_script} would overwrite the CSV")
    rows = run_scan(cfg)            # streams the CSV to cfg.out
    print(f"wrote {len(rows)} rows to {cfg.out}")
    if args.plot_script:
        emit_plot_script(rows, args.plot_script, cfg.out)
        print(f"wrote plot script to {args.plot_script}")
    return 0


def _require_process(args) -> ProcessKind:
    if not args.process:
        raise InvalidConfigError("--process is required")
    return parse_process(args.process)


def _cmd_threshold(args) -> int:
    process = _require_process(args)
    try:
        lo, hi = (float(x) for x in args.p_bracket.split(","))
    except ValueError as exc:
        raise InvalidConfigError(f"--p-bracket expects 'lo,hi', got {args.p_bracket!r}") from exc
    p_star = find_threshold(process, args.initial, args.theta, (lo, hi))
    print(f"{p_star:.9g}")
    return 0


def _cmd_point(args) -> int:
    process = _require_process(args)
    kin = build_kinematics(process, args.p, args.theta)
    amp = amplitude(kin)
    state = evolve(amp, parse_initial(args.initial))
    report = analyze(state)
    print(f"process          : {process.value}")
    print(f"p, theta         : {kin.p:.9g} MeV, {kin.theta:.9g} rad")
    print(f"s, t, u          : {kin.s:.9g}, {kin.t:.9g}, {kin.u:.9g} MeV^2")
    print("density matrix (re | im):")
    for row in state.entries:
        re = " ".join(f"{x.real:+.6f}" for x in row)
        im = " ".join(f"{x.imag:+.6f}" for x in row)
        print(f"  {re}   |   {im}")
    print(f"PT eigenvalues   : {', '.join(f'{x:.6e}' for x in report.pt_eigenvalues)}")
    print(f"negativity       : {report.negativity:.9g}")
    print(f"log-negativity   : {report.log_negativity:.9g}")
    print(f"entropy          : {report.entropy:.9g}")
    print(f"purity           : {report.purity:.9g}")
    print(f"entangled        : {report.entangled}")
    print(f"switching        : {report.switching_potential}")
    label, fid = report.closest_bell
    print(f"closest Bell     : {label} (fidelity {fid:.6f})")
    label, fid = report.closest_bell_phase_opt
    print(f"  up to phases   : {label} (fidelity {fid:.6f})")
    return 0


def _cmd_xsec(args) -> int:
    process = _require_process(args)
    kin = build_kinematics(process, args.p, args.theta)
    got = cross_section_check(kin)
    want = dsigma_domega_oracle(kin)
    rel = abs(got - want) / abs(want) if want else float("inf")
    print(f"dsigma/dOmega (helicity matrix) : {got:.12e} MeV^-2")
    print(f"dsigma/dOmega (closed form)     : {want:.12e} MeV^-2")
    print(f"relative difference             : {rel:.3e}")
    return 0 if rel < 1e-8 else 3


def _cmd_audit(args) -> int:
    if args.samples < 1:
        raise InvalidConfigError(f"--samples must be at least 1, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1

    # 1. spin-summed |M|^2 vs closed forms
    for process in ProcessKind:
        worst = 0.0
        for _ in range(args.samples):
            p = float(rng.uniform(110.0, 5000.0)) if process is ProcessKind.MUON_PAIR \
                else float(rng.uniform(0.05, 50.0))
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            kin = build_kinematics(process, p, theta)
            amp = amplitude(kin)
            want = msq_oracle(kin)
            worst = max(worst, abs(amp.spin_summed_msq() - want) / abs(want))
        report(f"oracle {process.value}", worst < 1e-8, f"worst rel err {worst:.2e}")

    # 2. Ward identities (replace a photon's polarization vector by its
    # momentum k = E n: E times the amplitude with that leg gauged)
    p = np.array([rng.uniform(0.5, 5.0)])
    th = np.array([rng.uniform(0.2, math.pi - 0.2)])
    photon_legs = [(process, leg) for process, info in PROCESS_TABLE.items()
                   for leg, spec in enumerate(info["in"] + info["out"]) if spec.field == "photon"]
    for process, leg in photon_legs:
        energy = mandelstam_batch(process, p, th)[3 + leg][0]
        scale = np.max(np.abs(helicity_amplitudes_batch(process, p, th)[0]))
        ward = energy * np.max(np.abs(helicity_amplitudes_batch(process, p, th, gauge=leg)[0]))
        report(f"Ward {process.value} leg {leg}", ward / scale < 1e-10,
               f"residual {ward / scale:.2e}")

    # 3. symmetry spot checks on small grids, as audited inside run_scan
    for process in _SYMMETRIES:
        muonic = process is ProcessKind.MUON_PAIR
        cfg = ScanConfig(process=process,
                         p_min=120.0 if muonic else 0.4,
                         p_max=500.0 if muonic else 2.0,
                         p_steps=6, theta_steps=16)
        warnings = run_scan(cfg).warnings
        report(f"symmetry {process.value}", not warnings,
               warnings[0] if warnings else "all pairs consistent")

    # 4. measure sanity on random density matrices
    n = max(200, args.samples * 40)
    g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.einsum('naa->n', rho).real[:, None, None]
    res = measures_batch(rho)
    pt = partial_transpose(rho)
    eigs = np.linalg.eigvalsh(pt)
    at_most_one = int(np.max(np.sum(eigs < -1e-10, axis=1)))
    ent_ok = bool(np.all(res["entropy"] > -1e-12)
                  and np.all(res["entropy"] < math.log(4.0) + 1e-9))
    en_ok = bool(np.allclose(res["log_negativity"],
                             np.log2(2 * res["negativity"] + 1), atol=1e-12))
    report("measure sanity", at_most_one <= 1 and ent_ok and en_ok,
           f"{n} random states, max negative PT count {at_most_one}")
    # two qubits: entangled iff det(rho^T_B) < 0, an eigen-free verdict
    # (Augusiak, Demianowicz & Horodecki, PRA 77, 030301 (2008))
    keep = np.abs(res["min_pt_eig"]) > 1e-8
    wrong = int(np.sum((np.linalg.det(pt).real < 0.0)[keep] != res["entangled"][keep]))
    report("measure sanity det(rho^T_B)", wrong == 0,
           f"{wrong} verdicts differ from det < 0 ({int(np.sum(~keep))} of {n} "
           f"within 1e-8 of PPT excluded)")

    print(f"{'ALL PASS' if failures == 0 else f'{failures} FAILURE(S)'}")
    return 0 if failures == 0 else 3


def _add_process(sp) -> None:
    sp.add_argument("--process", help="moller|muon-pair|annihilation|bhabha|"
                                      "electron-muon|compton")


def _add_common(sp, initial: str | None = _SCAN_DEFAULTS["initial"]) -> None:
    """--process and --initial; the default initial state is ScanConfig's, or
    None where a config file may still supply it."""
    _add_process(sp)
    sp.add_argument("--initial", default=initial,
                    help="unpolarized|ll|lr|rl|rr|werner|diag:w1,w2,w3,w4")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qedtangle",
        description="Helicity entanglement of tree-level QED 2->2 scattering")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("scan", help="sweep a (p, theta) grid and write CSV")
    _add_common(sp, initial=None)
    sp.add_argument("--p-min", dest="p_min", type=float)
    sp.add_argument("--p-max", dest="p_max", type=float)
    sp.add_argument("--p-steps", dest="p_steps", type=int)
    sp.add_argument("--p-log", dest="p_log", action="store_true", default=None)
    sp.add_argument("--theta-min", dest="theta_min", type=float)
    sp.add_argument("--theta-max", dest="theta_max", type=float)
    sp.add_argument("--theta-steps", dest="theta_steps", type=int)
    sp.add_argument("--out", help="output CSV path")
    sp.add_argument("--jobs", type=int,
                    help="worker threads; their number does not change the results")
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--plot-script", dest="plot_script", help="write gnuplot commands here")
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("threshold", help="bisect the entanglement boundary in p")
    _add_common(sp)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--p-bracket", dest="p_bracket", required=True,
                    help="lo,hi bracket in MeV")
    sp.set_defaults(func=_cmd_threshold)

    sp = sub.add_parser("point", help="full report at one kinematic point")
    _add_common(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.set_defaults(func=_cmd_point)

    sp = sub.add_parser("xsec", help="cross-section check at one point")
    _add_process(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.set_defaults(func=_cmd_xsec)

    sp = sub.add_parser("audit", help="oracle / symmetry / sanity suite")
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=2024)
    sp.set_defaults(func=_cmd_audit)
    return ap


def _is_negative_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return arg.startswith("-")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """'--theta -1e-1' as '--theta=-1e-1'. argparse reads a word that starts
    with '-' as an option unless it is a plain negative decimal, so a value
    such as -1e-1, -inf or -nan must follow its option after an '='."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative_number(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _keep_freed_heap() -> None:
    """The module docstring's heap policy: glibc's malloc keeps the pages a
    scan chunk frees mapped for the next. Does nothing off glibc; idempotent."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):     # the name is unknown off glibc
        return
    if not libc or not libc.startswith("glibc"):
        return
    import ctypes                     # already imported by numpy

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD: the largest glibc accepts
    mallopt(-1, 1 << 30)        # M_TRIM_THRESHOLD: far above a scan's working set


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except QedTangleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
