"""Eigenvalues of 4x4 symmetric and Hermitian matrices.

`hermitian_eigenvalues_batch` takes the spectra of a scan's (N,4,4)
stacks. Every state a scan forms is real, and a real stack goes to a
vectorised cyclic Jacobi kernel (`_jacobi`): plain elementwise numpy calls,
which release the GIL while they run. On a scan chunk's 15,600 matrices it
is about twice as fast as LAPACK's eigvalsh, and a scan's two worker
threads overlap it better (two threads' time over one's: 1.3-1.5x against
1.5-2.1x). eigvalsh keeps the complex stacks, which only a library caller
passes.

The point paths (`hermitian_eigenvalues`, and the callers in `entanglement`,
`qstate`, `scan` and `cli` that take one state, a bisection's few or the
audit's random complex states) call numpy.linalg.eigvalsh directly: the
kernel's fixed cost is about 0.6 ms a call (590 us for 2 matrices against
11 us), and LAPACK is faster below several hundred matrices (856 us
against 601 us at 300, 1.4 ms against 2.1 ms at 1,000; one thread, BLAS
on one thread).
`hermitian_part` validates one matrix (shape, Hermiticity).
A LAPACK convergence failure surfaces as numpy.linalg.LinAlgError.

Jacobi's method is at least as accurate as QR on symmetric matrices
(Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)).
"""
from __future__ import annotations

import numpy as np

from .errors import NonHermitianError

#: Sweeps of `_jacobi`, each three rounds of two rotations. A constant,
#: chosen by measuring the largest off-diagonal norm left, relative to
#: |H|_F, over four seeded draws of 36,000 scan matrices (rho and rho^T_B
#: of six process/input pairs, p from 1e-3 to 1e5 MeV) and of 20,000
#: random symmetric ones: after 4 sweeps at most 5.9e-11 and 1.5e-10,
#: above eps; after 5, at most 2.6e-18 and 8.7e-41, below it.
#: A fixed count keeps each matrix's bits independent of the batch it
#: comes in, so of CHUNK_POINTS and of jobs.
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


def _jacobi(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SWEEPS sweeps over the real symmetric matrices whose lower-triangle
    entries `entries` (10, M) holds in `_FIRST` order, which it overwrites:
    the diagonal (2, 2, M), unsorted, and the pivots and cross entries
    (2, M) each that are left, the only nonzero off-diagonal entries.

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
    """
    m = entries.shape[1]
    work = np.empty((8, 2, m))
    dd_2a, cs, d_next = work[0:2], work[2:4], work[4:6]     # [dd, 2a], [c, s], [dp, dq]
    c, s = cs
    t, ta = work[6], work[7]
    d = entries[:4].reshape(2, 2, m)
    a = entries[4:6]                                      # updated in place
    u_buffers = entries[6:].reshape(2, 2, m)              # free once the first round read them
    for rnd in range(3 * SWEEPS):
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
        flat = d_next.reshape(4, m)
        np.subtract(d[0], ta, out=flat[0::3])
        np.add(d[1], ta, out=flat[1:3])
        d, d_next = d_next, d
        u_next = u_buffers[rnd % 2]
        if rnd == 0:
            # the first cross block is full: rotate its rows, then its columns
            x = entries[6:].reshape(2, 2, m)
            rows = np.stack([c[0] * x[0] - s[0] * x[1], s[0] * x[0] + c[0] * x[1]])
            left = c[1] * rows[:, 0] - s[1] * rows[:, 1]     # (p1, p2), (q1, p2)
            right = s[1] * rows[:, 0] + c[1] * rows[:, 1]    # (p1, q2), (q1, q2)
            a[0], a[1] = -right[0], left[1]
            u_next[0], u_next[1] = -left[0], right[1]
        else:
            x, y = u
            k = np.multiply(cs[::-1, 0], cs[::-1, 1], out=t)     # (s1 s2, c1 c2)
            np.multiply(k, y, out=a)
            a -= np.multiply(k[::-1], x, out=ta)
            w = np.multiply(cs[:, 0], cs[::-1, 1], out=t)        # (c1 s2, s1 c2)
            np.multiply(w, x, out=u_next)
            u_next += np.multiply(w[::-1], y, out=ta)
        u = u_next
    return d, a, u


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
    from over- or underflowing."""
    entries = np.empty((len(_FIRST),) + h.shape[:-2])
    for k, (i, j) in enumerate(_FIRST):
        entries[k] = h[..., i, j]
    entries = entries.reshape(len(_FIRST), -1)
    exponent = np.frexp(np.maximum(entries.max(axis=0), -entries.min(axis=0)))[1]
    np.maximum(exponent, -1021, out=exponent)         # 2^-e stays finite
    entries *= np.ldexp(1.0, -exponent)
    return entries, exponent


def hermitian_eigenvalues_batch(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., 4) of a stack (..., 4, 4) of Hermitian
    matrices; a single (4, 4) matrix gives shape (4,). Only the lower
    triangle is read. A real stack takes `_jacobi` in float64, whose
    elementwise arithmetic gives each matrix the same bits in any batch; a
    complex one takes numpy.linalg.eigvalsh.
    """
    h = np.asarray(h)
    if np.iscomplexobj(h):
        return np.linalg.eigvalsh(h)
    entries, exponent = _scaled_entries(h)
    d = _jacobi(entries)[0]
    spectra = merge_sorted_pairs(np.minimum(d[0], d[1]), np.maximum(d[0], d[1]))
    return np.ldexp(spectra, exponent[:, None]).reshape(h.shape[:-1])


def hermitian_part(h: np.ndarray) -> np.ndarray:
    """(H + H^+)/2 of one 4x4 matrix, once max|H - H^+| is within 1e-10.

    Raises NonHermitianError on any other shape or a larger deviation.
    """
    h = np.asarray(h)
    if h.shape != (4, 4):
        raise NonHermitianError(f"expected a 4x4 matrix, got shape {h.shape}")
    adjoint = h.conj().T
    dev = np.abs(h - adjoint).max()
    if dev > 1e-10:
        raise NonHermitianError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return 0.5 * (h + adjoint)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one 4x4 Hermitian (or real symmetric) matrix,
    validated by `hermitian_part`, from numpy.linalg.eigvalsh."""
    return np.linalg.eigvalsh(hermitian_part(h))
