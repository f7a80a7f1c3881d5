"""The CLI's heap policy: freed pages stay mapped between scan chunks."""
import ctypes
import os
import resource
import subprocess
import sys

import pytest

from qedtangle import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


def _scan_faults(theta_steps: int, jobs: int, out: str) -> int:
    """Minor page faults of one fresh `qedtangle scan` process."""
    argv = [sys.executable, "-m", "qedtangle", "scan", "--process", "compton",
            "--initial", "werner", "--p-log", "--p-min", "0.01", "--p-max", "1e4",
            "--p-steps", "600", "--theta-steps", str(theta_steps), "--jobs", str(jobs),
            "--out", out]
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


@pytest.mark.skipif(not _glibc(), reason="the policy is glibc's mallopt")
@pytest.mark.parametrize("jobs", [1, 2])
def test_later_chunks_reuse_the_pages_of_earlier_ones(jobs, tmp_path):
    # 600 p columns make 13 theta rows a chunk: 2 chunks against 10. Without
    # the policy each extra chunk faults its temporaries in again, about 520
    # pages at jobs 1 and 1,370-1,530 at jobs 2; with it 64-78 and 125-147,
    # mostly the first touch of the retained ScanResult columns (35 B a point)
    out = str(tmp_path / "scan.csv")
    two, ten = (_scan_faults(theta_steps, jobs, out) for theta_steps in (26, 130))
    assert (ten - two) / 8 <= 200


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [_unknown_name, lambda name: None, lambda name: "musl 1.2"],
                         ids=["unknown-name", "none", "not-glibc"])
def test_heap_policy_is_a_no_op_off_glibc(monkeypatch, confstr):
    def no_libc(*args, **kwargs):
        raise AssertionError("libc loaded off glibc")

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    cli._keep_freed_heap()
