"""Eigenvalues of 4x4 symmetric and Hermitian matrices.

`hermitian_eigenvalues_batch` takes the spectra of a scan's (N,4,4)
stacks. Every state a scan forms is real, and a real stack goes to a
vectorised cyclic Jacobi kernel (`_jacobi`): plain elementwise numpy calls,
which release the GIL while they run. Each matrix sweeps until its
off-diagonal norm is at most eps |H|_F, SWEEPS times at the most, a rule
on its own entries alone. On a scan chunk's 15,600 matrices it is
1.7-1.9x as fast as LAPACK's eigvalsh (9.3 against 15.7 ms for Compton
`werner` states, 7.4 against 14.2 ms for Moller `ll` ones), and a scan's
two worker threads overlap it better (two threads' time over one's:
1.3-1.5x against 1.5-2.1x). eigvalsh keeps the complex stacks, which only
a library caller passes.

The point paths (`hermitian_eigenvalues`, and the callers in `entanglement`,
`qstate`, `scan` and `cli` that take one state, a bisection's few or the
audit's random complex states) call numpy.linalg.eigvalsh directly: the
kernel's fixed cost is 0.3-0.7 ms a call (0.30-0.70 ms for 2 matrices
against 12-20 us, over two runs in different phases of the host), and
LAPACK is faster below several hundred matrices (0.40-0.52 ms against
0.30-0.32 ms at 300, 0.71-0.81 ms against 1.02-1.06 ms at 1,000, in the
faster phase; one thread, BLAS on one thread, medians of 60 alternating
calls).
`hermitian_part` validates one matrix (shape, finite entries, Hermiticity).
A LAPACK convergence failure surfaces as numpy.linalg.LinAlgError.

Jacobi's method is at least as accurate as QR on symmetric matrices
(Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)).
"""
from __future__ import annotations

import numpy as np

from .errors import NonHermitianError

#: The most sweeps `_jacobi` runs, each three rounds of two rotations.
#: Over four seeded draws of 36,000 scan matrices (rho and rho^T_B of six
#: process/input pairs, p from 1e-3 to 1e5 MeV) and of 20,000 random
#: symmetric ones, the largest off-diagonal norm left, relative to |H|_F,
#: was 5.9e-11 and 1.5e-10 after 4 sweeps, above eps, and 2.6e-18 and
#: 8.7e-41 after 5, below it. Most matrices get below eps sooner and stop
#: there: of the 360,000 of the 300 x 600 Compton `werner` grid of
#: `perfbench` `scan-compton-wide`, seed 1, 100%, 71%, 21% and 1.3% still
#: run after sweeps 1 to 4; of the 180,000 of the seed-1 `scan-moller`
#: grid with the input `ll`, 50%, 50%, 49.9% and 0.04%.
SWEEPS = 5

#: (row, column) of the lower-triangle entries the first round reads, in
#: `_jacobi`'s order: the diagonals of p = (0, 3) and q = (1, 2), the
#: pivots (1, 0) and (3, 2), and the cross block's rows 0 and 1 at
#: columns 3 and 2
_FIRST = ((0, 0), (3, 3), (1, 1), (2, 2), (1, 0), (3, 2), (3, 0), (2, 0), (3, 1), (2, 1))

#: added to sqrt(dd^2 + 4a^2), so |den| >= |2a| and > 0: t stays finite and
#: |t| <= 1 where a and dd are zero or their squares underflow. It moves t
#: only where that root is below 2^-547, a pivot far below eps of the
#: scaled matrix
_GUARD = 2.0 ** -600

#: a matrix has converged once its off-diagonal norm left is at most
#: eps |H|_F, that is, its square at most _EPS2 |H|_F^2
_EPS2 = np.finfo(float).eps ** 2


def _jacobi(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At most SWEEPS sweeps over the real symmetric matrices whose
    lower-triangle entries `entries` (10, M) holds in `_FIRST` order, which
    it overwrites: the diagonal (2, 2, M), unsorted, and the pivots and
    cross entries (2, M) each that are left, the only nonzero off-diagonal
    entries.

    A round rotates two disjoint planes (p1, q1) and (p2, q2) at once,
    which commute, and annihilates both pivots. With the diagonals
    dp = (d_p1, d_p2), dq = (d_q1, d_q2) and the pivots a, the rotation of
    each plane is t = 2a / (dd + sign(dd) sqrt(dd^2 + 4a^2)), dd = dq - dp,
    c = 1 / sqrt(1 + t^2), s = t c, and it moves dp to dp - t a and dq to
    dq + t a. The planes cycle ((0, 1), (3, 2)), ((0, 2), (1, 3)),
    ((0, 3), (2, 1)): each round's planes are (p1, q2) and (q1, p2) of the
    round before, whose cross block holds at (p1, p2) and (q1, q2) the
    pivots that round annihilated. So after the first round the state is
    dp, dq, the pivots a and the cross entries u = (a_p1q2, a_q1p2), each
    (2, M), and a round maps it with a dozen products. Each round stores
    its result with row and column 0 (p1 in every round) negated, a
    similarity that saves a negation.

    After each sweep but the last, a matrix whose off-diagonal norm left,
    squared, 2 (|a|^2 + |u|^2), is at most eps^2 |H|_F^2 (|H|_F taken once
    from the entries) has converged: its state goes to the outputs, and
    the matrices still running are gathered (`np.take`) into the start of
    the other bank, contiguous, for the next sweeps. The rule reads only
    the matrix's own entries, so its bits do not depend on the batch.
    """
    m = entries.shape[1]
    work = np.empty(12 * m)
    squares = np.multiply(entries, entries, out=work[:10 * m].reshape(10, m))
    tol = squares[4:].sum(axis=0)          # |H|_F^2 / 2, off-diagonal entries counted once
    tol += 0.5 * squares[:4].sum(axis=0)
    tol *= _EPS2
    # the running matrices' d (4 rows), a and u (2 each) fill the start of
    # two flat banks, the current one first: a round maps one to the other
    banks = [entries.reshape(-1), np.empty(8 * m)]
    out = np.empty((8, m))
    index = np.arange(m)        # the running matrices' columns in out
    n = m
    for rnd in range(3 * SWEEPS):
        state, state_next = (bank[:8 * n].reshape(8, n) for bank in banks)
        d, a, u = state[:4].reshape(2, 2, n), state[4:6], state[6:8]
        flat, a_next, u_next = state_next[:4], state_next[4:6], state_next[6:8]
        scratch = work[:12 * n].reshape(12, n)
        dd_2a, cs = scratch[:4].reshape(2, 2, n), scratch[4:8].reshape(2, 2, n)  # [dd, 2a], [c, s]
        c, s = cs
        t, ta = scratch[8:10], scratch[10:12]
        np.subtract(d[1], d[0], out=dd_2a[0])
        np.add(a, a, out=dd_2a[1])
        np.multiply(dd_2a, dd_2a, out=cs)
        den = np.add(cs[0], cs[1], out=c)
        np.sqrt(den, out=den)
        den += _GUARD
        np.copysign(den, dd_2a[0], out=den)
        den += dd_2a[0]
        np.divide(dd_2a[1], den, out=t)               # |t| <= 1
        np.multiply(t, t, out=c)
        c += 1.0
        np.sqrt(c, out=c)
        np.divide(1.0, c, out=c)
        np.multiply(t, c, out=s)
        np.multiply(t, a, out=ta)
        # the next round's dp = (dp1, dq1) and dq = (dq2, dp2), rotated
        np.subtract(d[0], ta, out=flat[0::3])
        np.add(d[1], ta, out=flat[1:3])
        if rnd == 0:
            # the first cross block x is full: rotate its rows into the old
            # diagonal's rows, then its columns
            x = entries[6:].reshape(2, 2, m)
            rows = d
            np.multiply(c[0], x[0], out=rows[0])
            rows[0] -= np.multiply(s[0], x[1], out=ta)
            np.multiply(s[0], x[0], out=rows[1])
            rows[1] += np.multiply(c[0], x[1], out=ta)
            left, right = x[0], u_next    # (p1, p2), (q1, p2); (p1, q2), (q1, q2)
            np.multiply(c[1], rows[:, 0], out=left)
            left -= np.multiply(s[1], rows[:, 1], out=ta)
            np.multiply(s[1], rows[:, 0], out=right)
            right += np.multiply(c[1], rows[:, 1], out=ta)
            np.negative(right[0], out=a_next[0])
            a_next[1] = left[1]
            np.negative(left[0], out=right[0])
        else:
            x, y = u
            k = np.multiply(cs[::-1, 0], cs[::-1, 1], out=t)     # (s1 s2, c1 c2)
            np.multiply(k, y, out=a_next)
            a_next -= np.multiply(k[::-1], x, out=ta)
            w = np.multiply(cs[:, 0], cs[::-1, 1], out=t)        # (c1 s2, s1 c2)
            np.multiply(w, x, out=u_next)
            u_next += np.multiply(w[::-1], y, out=ta)
        banks.reverse()
        if rnd % 3 < 2 or rnd == 3 * SWEEPS - 1:
            continue
        # a sweep is over: the matrices that have converged leave
        done = np.multiply(state_next[4:], state_next[4:], out=scratch[:4]).sum(axis=0) <= tol
        if not done.any():
            continue
        fin, keep = np.flatnonzero(done), np.flatnonzero(~done)
        out[:, index[fin]] = np.take(state_next, fin, axis=1)
        n, index, tol = keep.size, index[keep], tol[keep]
        np.take(state_next, keep, axis=1, out=banks[1][:8 * n].reshape(8, n), mode="clip")
        banks.reverse()
        if not n:
            break
    out[:, index] = banks[0][:8 * n].reshape(8, n)
    return out[:4].reshape(2, 2, m), out[4:6], out[6:8]


def merge_sorted_pairs(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Two sorted pairs (lower[k], upper[k]), k = 0, 1, each (2, N), merged
    into one ascending (N, 4) spectrum by minima and maxima."""
    inner_lo, inner_hi = np.maximum(*lower), np.minimum(*upper)
    return np.stack([np.minimum(*lower), np.minimum(inner_lo, inner_hi),
                     np.maximum(inner_lo, inner_hi), np.maximum(*upper)], axis=-1)


def _scaled_entries(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower-triangle entries (10, M) of a real stack (..., 4, 4) in
    `_FIRST` order, in float64, each matrix scaled by the power of two
    2^-e that brings its largest entry into [1/2, 1), and the exponents e
    (M,). The scaling is exact, and it keeps every square a round forms
    from over- or underflowing. Raises numpy.linalg.LinAlgError if an entry
    is not finite."""
    entries = np.empty((len(_FIRST),) + h.shape[:-2])
    for k, (i, j) in enumerate(_FIRST):
        entries[k] = h[..., i, j]
    entries = entries.reshape(len(_FIRST), -1)
    scale = np.maximum(entries.max(axis=0), -entries.min(axis=0))
    if not np.isfinite(scale).all():        # NaN or inf in some matrix
        raise np.linalg.LinAlgError("non-finite matrix entries")
    exponent = np.frexp(scale)[1]
    np.maximum(exponent, -1021, out=exponent)         # 2^-e stays finite
    entries *= np.ldexp(1.0, -exponent)
    return entries, exponent


def hermitian_eigenvalues_batch(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., 4) of a stack (..., 4, 4) of Hermitian
    matrices; a single (4, 4) matrix gives shape (4,). Only the lower
    triangle is read. A real stack takes `_jacobi` in float64, whose
    elementwise arithmetic gives each matrix the same bits in any batch; a
    complex one takes numpy.linalg.eigvalsh. Raises numpy.linalg.LinAlgError
    if a lower-triangle entry is not finite, where eigvalsh would return NaN.
    """
    h = np.asarray(h)
    if np.iscomplexobj(h):
        if not np.isfinite(np.tril(h)).all():
            raise np.linalg.LinAlgError("non-finite matrix entries")
        return np.linalg.eigvalsh(h)
    entries, exponent = _scaled_entries(h)
    d = _jacobi(entries)[0]
    spectra = merge_sorted_pairs(np.minimum(d[0], d[1]), np.maximum(d[0], d[1]))
    return np.ldexp(spectra, exponent[:, None]).reshape(h.shape[:-1])


def hermitian_part(h: np.ndarray) -> np.ndarray:
    """(H + H^+)/2 of one 4x4 matrix, once max|H - H^+| is within 1e-10.

    Raises NonHermitianError on any other shape, a non-finite entry or a
    larger deviation.
    """
    h = np.asarray(h)
    if h.shape != (4, 4):
        raise NonHermitianError(f"expected a 4x4 matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise NonHermitianError("matrix entries must be finite")
    adjoint = h.conj().T
    dev = np.abs(h - adjoint).max()
    if dev > 1e-10:
        raise NonHermitianError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return 0.5 * (h + adjoint)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one 4x4 Hermitian (or real symmetric) matrix,
    validated by `hermitian_part`, from numpy.linalg.eigvalsh."""
    return np.linalg.eigvalsh(hermitian_part(h))
