"""How far a scan's measures may lie from `analyze`'s, and why.

A scan takes both spectra of its real 4 x 4 states from the Jacobi kernel
(`linalg.hermitian_eigenvalues_batch`); `analyze` takes them from LAPACK's
eigvalsh. Against 40-digit mpmath eigenvalues (`test_linalg.py`) the
kernel errs by at most JACOBI_TOL and LAPACK by at most LAPACK_TOL, each
times |H|_F (measured worst on 3,000 random symmetric matrices and the
scan corpus there: 2.4 eps and 5.1 eps). A state has |rho|_F <= 1, and
|rho^T_B|_F = |rho|_F, so the two solvers' eigenvalues of one state differ
by at most SPECTRUM_TOL, and `measure_bounds` carries that through the
formulas of `entanglement._measures`. A complex state takes LAPACK on both
paths, so there the two agree bit for bit.
"""
import math

import numpy as np

from qedtangle.constants import DEFAULT
from qedtangle.entanglement import PPT_TOL

EPS = float(np.finfo(float).eps)
JACOBI_TOL = 3.0 * EPS
LAPACK_TOL = 8.0 * EPS
SPECTRUM_TOL = JACOBI_TOL + LAPACK_TOL
#: rounding of the measures' own few sums and logarithms
_ARITHMETIC = 8.0 * EPS


def measure_bounds(delta: float = SPECTRUM_TOL) -> dict:
    """Largest move of each measure when every eigenvalue moves by at most
    delta: min_pt_eig by delta; the negativity, sum_k max(0, -l_k), by
    4 delta; log2(2N + 1), of slope at most 2 / ln 2, by 8 delta / ln 2;
    the entropy by 8 delta ln(1/delta), since -x ln x (0 for x <= 0) moves
    by at most 2 delta ln(1/delta) when x moves by delta < 1/e."""
    return {
        "min_pt_eig": delta + _ARITHMETIC,
        "negativity": 4.0 * delta + _ARITHMETIC,
        "log_negativity": 8.0 * delta / math.log(2.0) + _ARITHMETIC,
        "entropy": 8.0 * delta * math.log(1.0 / delta) + _ARITHMETIC,
    }


def measure_deviations(report, res: dict, delta: float = SPECTRUM_TOL) -> dict:
    """Check one state's `analyze` report against its `measures_batch`
    row `res` (scalars): every measure within `measure_bounds(delta)`, and
    the same verdicts wherever min_pt_eig lies more than delta from the
    cut that decides them. Returns |difference| per measure."""
    want = {"min_pt_eig": report.pt_eigenvalues[0], "negativity": report.negativity,
            "log_negativity": report.log_negativity, "entropy": report.entropy}
    deviations = {name: abs(float(res[name]) - value) for name, value in want.items()}
    for name, bound in measure_bounds(delta).items():
        assert deviations[name] <= bound, (name, deviations[name], bound)
    lowest = report.pt_eigenvalues[0]
    if abs(lowest + PPT_TOL) > delta:
        assert report.entangled == bool(res["entangled"])
    if abs(abs(lowest) - DEFAULT.alpha3) > delta:
        assert report.switching_potential == bool(res["switching"])
    return deviations
