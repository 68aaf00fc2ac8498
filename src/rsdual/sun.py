"""SU(n) spectral machinery built on the Weyl alcove.

A special-unitary A decomposes as A = g^{-1} delta(xi) g with a unique
alcove point xi (the spectral functions Xi_j pick out its components) and,
where the spectrum is regular, a diagonalizer g fixed here by an explicit
phase convention.  spectral_xi returns (xi, g) and is the one place that
checks regularity; where only xi is needed, alcove_point reads it from the
eigenvalues alone.  Nothing here takes a Coupling: n is the size of the
input, A.shape[-1] or xi.shape[-1].  The gradients and flows built on
(xi, g) live in double.py; the invariant pairing of su(n) lives here.
Every function of a matrix or an alcove point takes stacks (..., n, n) or
(..., n), each row with the one-point bits.  On a stack, alcove_point is
one np.linalg.eigvals call and one phase map with no Python loop;
spectral_xi loops in Python over its zgees calls only (there is no stacked
Schur form) and post-processes the whole stack at once.  The stacked code
reads rows by take at flat offsets, a row's indices plus the flat index
of its first entry.  One matrix takes the direct LAPACK call and the
one-point phase map.
"""

import math

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgees, zgeev

from .coupling import check_alcove
from .errors import NonRegular, anywhere, first_row
from .lax import _cyclic

PHASE_TOL = 1e-12
GAP_TOL = 1e-8  # eigenphase gap below which a unitary counts as non-regular


def dagger(m):
    return m.swapaxes(-1, -2).conj()


def traceless_antihermitian(m):
    """Project a matrix onto su(n) (anti-Hermitian, traceless), in one array."""
    a = m - dagger(m)
    a *= 0.5
    np.einsum("...ii->...i", a)[...] -= (a.trace(0, -2, -1) / m.shape[-1])[..., None]
    return a


def scalar_product(eta, zeta):
    """Invariant pairing <eta, zeta> = -tr(eta zeta)/2 on su(n), summed
    entrywise as tr(eta zeta) = sum_kl eta_kl zeta_lk without the product."""
    return -0.5 * np.add.reduce(eta * np.swapaxes(zeta, -1, -2), (-2, -1)).real


def _ginibre(z):
    """Complex Ginibre matrices (..., n, n) from standard normals z
    (..., 2, n, n): of each matrix the real parts, then the imaginary parts."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def random_special_unitary(n, rng, count=None):
    """Haar-ish random SU(n) element; with count, a stack (count, n, n) of
    the elements of count calls on rng.  Each is Q of the QR form of a
    Ginibre matrix, with the phases of R's diagonal and an n-th root of the
    determinant divided out."""
    z = rng.standard_normal((2, n, n) if count is None else (count, 2, n, n))
    q, r = np.linalg.qr(_ginibre(z))
    d = np.diagonal(r, 0, -2, -1)
    q = q * (d / np.abs(d))[..., None, :]
    return q * (np.linalg.det(q) ** (-1.0 / n))[..., None, None]


def random_su_algebra(n, rng, count=None):
    """Random element of su(n); with count, a stack as random_special_unitary's."""
    shape = (2, n, n) if count is None else (count, 2, n, n)
    return traceless_antihermitian(_ginibre(rng.standard_normal(shape)))  # normals freed early


def alcove_exponents(xi):
    """Diagonal of -2 sum_k xi_k lambda_k, the exponent vector of delta(xi).

    These are the specific real logarithms used for real matrix powers; they
    agree with the eigenphases of delta(xi) modulo 2 pi.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[-1]
    base = (2.0 / n) * np.vecdot(xi[..., : n - 1], np.arange(1.0, n))
    tails = np.zeros(xi.shape)
    np.add.accumulate(xi[..., n - 2 :: -1], -1, out=tails[..., -2::-1])
    return base[..., None] - 2.0 * tails


def alcove_delta(xi):
    """Diagonal special-unitary delta(xi) = exp(-2i sum_k xi_k lambda_k).

    Injective on the alcove; raises AlcoveViolation off it.
    """
    e = np.exp(1j * alcove_exponents(check_alcove(xi)))
    n = e.shape[-1]
    d = np.zeros(e.shape + (n,), dtype=complex)
    d[..., range(n), range(n)] = e
    return d


def _phases_to_alcove(phases, xi):
    """(xi, perm): the alcove point of a special-unitary matrix from its n
    eigenphases, written into xi, and the eigenphases' cyclic order perm.

    The cyclic ordering is rolled so that the lifted phase sum vanishes mod
    2*pi*n, which singles out the unique alcove representative matching the
    delta parametrization; xi_k is half the k-th gap of the lifted phases.
    One matrix takes this body; a stack takes _stacked_phases_to_alcove.
    """
    order = phases.argsort(kind="stable")
    psi = phases[order]
    # det A = 1 forces sum(psi) = 2 pi M; the shift below makes M = 0 mod n.
    m0 = round(float(np.add.reduce(psi)) / (2.0 * math.pi))
    shift = (-m0) % len(xi)
    perm, lifted = order, psi
    if shift:  # roll, 2 pi added only where it wraps
        perm = np.concatenate((order[shift:], order[:shift]))
        lifted = np.concatenate((psi[shift:], psi[:shift] + 2.0 * math.pi))

    gaps = xi[:-1]
    np.subtract(lifted[1:], lifted[:-1], out=gaps)
    gaps *= 0.5
    xi[-1] = math.pi - np.add.reduce(gaps)
    return xi, perm


def _stacked_phases_to_alcove(phases):
    """_phases_to_alcove of each row of (..., n) eigenphases as one array
    program, with each row's bits: the same sort, rounding, roll and sums,
    the 2 pi added only where the roll wraps, so that a -0.0 phase keeps
    its sign.  A row is read by take at flat offsets: its own indices plus
    the flat index of its first entry.  One matrix keeps the scalar body,
    ~3x faster at one point."""
    n = phases.shape[-1]
    base = _cyclic(phases.shape).rows[..., None]
    order = phases.argsort(-1, kind="stable")
    psi = phases.take(order + base)
    shift = -np.rint(np.add.reduce(psi, -1) / (2.0 * math.pi)).astype(int) % n
    roll = np.arange(n) + shift[..., None]
    wraps = roll >= n
    roll[wraps] -= n
    roll += base
    lifted = psi.take(roll)
    np.add(lifted, 2.0 * math.pi, out=lifted, where=wraps)
    xi = np.empty(phases.shape)
    gaps = xi[..., :-1]
    np.subtract(lifted[..., 1:], lifted[..., :-1], out=gaps)
    gaps *= 0.5
    xi[..., -1] = math.pi - np.add.reduce(gaps, -1)
    return xi, order.take(roll)


def alcove_point(A):
    """The alcove point xi of a special-unitary matrix, Xi_k(A) = xi_k, or
    of each matrix of a stack (..., n, n).

    Read from the eigenvalues alone (no Schur vectors), under the phase
    convention of spectral_xi, whose xi it equals to rounding.  A unitary
    matrix has eigenvalue condition number 1, so xi is as accurate as the
    eigenvalues; use spectral_xi where the diagonalizer g is needed too.

    One matrix takes one LAPACK zgeev call with no eigenvectors, the
    routine np.linalg.eigvals calls for a complex matrix after its checks
    and workspace query; the bits agree (tested up to n = 32).  A stack
    takes one np.linalg.eigvals call and one phase map over all its rows,
    with no Python loop; each row has the bits of its one-matrix call.  A
    non-finite A raises LinAlgError, as there; if the stacked call fails,
    the rows are read one by one, so that the first bad row raises what it
    raises alone.
    """
    if not np.logical_and.reduce(np.isfinite(A), None):
        raise LinAlgError("Array must not contain infs or NaNs")
    if A.ndim == 2:
        return _eigen_alcove(A, np.empty(A.shape[-1]))
    try:
        w = np.linalg.eigvals(np.asarray(A, dtype=complex))
    except LinAlgError:
        for M in A.reshape((-1,) + A.shape[-2:]):
            _eigen_alcove(M, np.empty(A.shape[-1]))
        raise
    return _stacked_phases_to_alcove(np.angle(w))[0]


def _eigen_alcove(M, xi):
    """alcove_point of one matrix, written into xi."""
    w, _, _, info = zgeev(M, compute_vl=0, compute_vr=0)
    if info != 0:
        raise LinAlgError(f"eigenvalues not found (zgeev info={info})")
    return _phases_to_alcove(np.arctan2(w.imag, w.real), xi)[0]  # np.angle(w)


def _no_sort(w):
    """zgees's eigenvalue-select callback, never called with sort_t = 0."""
    return None


def _schur(A):
    """Complex Schur form A = Z T Z^dagger of a square, finite complex array
    by one LAPACK zgees call with its default workspace, max(3n, 1), the
    call scipy.linalg.schur(A, output="complex") makes with the optimal one:
    T and Z had the same bits on every matrix tested up to n = 106.
    A failed QR iteration raises LinAlgError, as there."""
    T, _, _, Z, _, info = zgees(_no_sort, A)
    if info != 0:
        raise LinAlgError(f"Schur form not found (zgees info={info})")
    return T, Z


def spectral_xi(A):
    """The decomposition (xi, g) of a regular special-unitary matrix,
    A = g^dagger delta(xi) g, or of each matrix of a stack (..., n, n).

    xi is read off the Schur diagonal by the convention of _phases_to_alcove
    and g from the Schur vectors in the same order, the first entry of each
    eigenvector with modulus above PHASE_TOL made real positive.  Raises
    NonRegular when the eigenphase gap 2 min xi is at most GAP_TOL; above
    it g is unique up to left torus factors.  A non-square or non-finite A
    raises ValueError, as scipy.linalg.schur does.

    A stack is the one place that loops in Python: one zgees call per
    matrix, in order.  The phase map, the GAP_TOL test, the column order
    and the phase fix of g then run once over the whole stack, reading the
    Schur vectors and their leading entries at flat offsets, and each row
    has the bits and the C layout of its one-matrix call.  The first
    bad matrix raises what it raises alone: if zgees fails on a row, the
    rows before it are tested for regularity first.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    if A.shape[-2:] != (n, n):
        raise ValueError("expected square matrix")
    if not np.logical_and.reduce(np.isfinite(A), None):
        raise ValueError("array must not contain infs or NaNs")
    return _spectral_xi(A)


def _spectral_xi(A):
    """spectral_xi of a square complex A the caller knows to be finite."""
    n = A.shape[-1]
    if A.ndim == 2:
        T, Z = _schur(A)
        d = T.diagonal()
        xi, perm = _phases_to_alcove(np.arctan2(d.imag, d.real), np.empty(n))  # np.angle(d)
        gap = 2.0 * float(np.minimum.reduce(xi))
        if not gap > GAP_TOL:
            raise NonRegular(f"eigenphase gap {gap:.3e} is at most GAP_TOL={GAP_TOL:.1e}")
        vecs = Z[:, perm]
        lead = vecs[(abs(vecs) > PHASE_TOL).argmax(axis=0), np.arange(n)]
        return xi, (vecs * (lead / abs(lead)).conj()).conj().T
    stack = A.reshape(-1, n, n)
    diag = np.empty(stack.shape[:-1], dtype=complex)
    vecs = np.empty(stack.shape, dtype=complex)  # vecs[k, i] is Schur vector i of matrix k
    for k, M in enumerate(stack):
        try:
            T, Z = _schur(M)
        except LinAlgError:
            _check_gaps(_stacked_phases_to_alcove(np.angle(diag[:k]))[0])
            raise
        diag[k] = T.diagonal()
        vecs[k] = Z.T
    xi, perm = _stacked_phases_to_alcove(np.angle(diag))
    _check_gaps(xi)
    # the flat row index n k + i of Schur vector i of matrix k, in g's row
    # order; the layout of one matrix: Z in Fortran order, g = (Z
    # phases)^dagger in C order
    at = perm + _cyclic(perm.shape).rows[:, None]
    rows = vecs.reshape(-1, n).take(at, 0)
    first = (abs(rows) > PHASE_TOL).argmax(-1)
    lead = vecs.take(n * at + first)
    vecs = rows.swapaxes(-1, -2)
    g = (vecs * (lead / abs(lead)).conj()[..., None, :]).conj().swapaxes(-1, -2)
    return xi.reshape(A.shape[:-1]), g.reshape(A.shape)


def _check_gaps(xi):
    """Raise NonRegular at the first row of a stack of alcove points whose
    eigenphase gap 2 min xi is at most GAP_TOL, as one matrix does alone."""
    gap = 2.0 * np.minimum.reduce(xi, -1)
    bad = ~(gap > GAP_TOL)
    if anywhere(bad):
        gap = gap[first_row(bad)]
        raise NonRegular(f"eigenphase gap {gap:.3e} is at most GAP_TOL={GAP_TOL:.1e}")


def spectral_index(j, n):
    """Return j if it names a spectral function Xi_j (1..n-1), else raise
    ValueError."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"spectral index must be in 1..{n - 1}, got {j}")
    return j
