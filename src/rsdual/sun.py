"""SU(n) spectral machinery built on the Weyl alcove.

A special-unitary A decomposes as A = g^{-1} delta(xi) g with a unique
alcove point xi (the spectral functions Xi_j pick out its components) and,
where the spectrum is regular, a diagonalizer g fixed here by an explicit
phase convention.  spectral_xi returns (xi, g) and is the one place that
checks regularity; where only xi is needed, alcove_point reads it from the
eigenvalues alone.  Nothing here takes a Coupling: n is the size of the
input, A.shape[-1] or xi.shape[-1].  The gradients and flows built on
(xi, g) live in double.py; the invariant pairing of su(n) lives here.
"""

import functools
import math

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgees

from .coupling import check_alcove
from .errors import NonRegular

PHASE_TOL = 1e-12
GAP_TOL = 1e-8  # eigenphase gap below which a unitary counts as non-regular


def dagger(m):
    return np.conjugate(np.swapaxes(m, -1, -2))


def traceless_antihermitian(m):
    """Project a matrix onto su(n) (anti-Hermitian, traceless)."""
    a = 0.5 * (m - dagger(m))
    return a - (np.trace(a) / m.shape[-1]) * np.eye(m.shape[-1])


def scalar_product(eta, zeta):
    """Invariant pairing <eta, zeta> = -tr(eta zeta)/2 on su(n), summed
    entrywise as tr(eta zeta) = sum_kl eta_kl zeta_lk without the product."""
    return -0.5 * float(np.sum(eta * zeta.T).real)


def random_special_unitary(n, rng):
    """Haar-ish random SU(n) element (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / n)


def random_su_algebra(n, rng):
    """Random element of su(n)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return traceless_antihermitian(z)


def alcove_exponents(xi):
    """Diagonal of -2 sum_k xi_k lambda_k, the exponent vector of delta(xi).

    These are the specific real logarithms used for real matrix powers; they
    agree with the eigenphases of delta(xi) modulo 2 pi.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[-1]
    base = (2.0 / n) * np.dot(np.arange(1, n), xi[: n - 1])
    tails = 2.0 * (np.concatenate([np.cumsum(xi[: n - 1][::-1])[::-1], [0.0]]))
    return base - tails


def alcove_delta(xi):
    """Diagonal special-unitary delta(xi) = exp(-2i sum_k xi_k lambda_k).

    Injective on the alcove; raises AlcoveViolation off it.
    """
    xi = check_alcove(xi)
    return np.diag(np.exp(1j * alcove_exponents(xi)))


def _phases_to_alcove(phases, n):
    """(xi, perm): the alcove point of a special-unitary matrix from its n
    eigenphases, and the cyclic order perm of the eigenphases behind it.

    The cyclic ordering is rolled so that the lifted phase sum vanishes mod
    2*pi*n, which singles out the unique alcove representative matching the
    delta parametrization; xi_k is half the k-th gap of the lifted phases.
    This is the one implementation of the phase convention.
    """
    order = phases.argsort(kind="stable")
    psi = phases[order]
    # det A = 1 forces sum(psi) = 2 pi M; the shift below makes M = 0 mod n.
    m0 = round(float(psi.sum()) / (2.0 * math.pi))
    shift = (-m0) % n
    roll = np.arange(shift, shift + n)
    perm = order.take(roll, mode="wrap")
    lifted = psi.take(roll, mode="wrap")
    lifted[n - shift :] += 2.0 * math.pi

    xi = np.empty(n)
    xi[:-1] = 0.5 * (lifted[1:] - lifted[:-1])
    xi[-1] = math.pi - xi[:-1].sum()
    return xi, perm


def alcove_point(A):
    """The alcove point xi of a special-unitary matrix, Xi_k(A) = xi_k.

    Read from the eigenvalues alone (no Schur vectors), under the phase
    convention of spectral_xi, whose xi it equals to rounding.  A unitary
    matrix has eigenvalue condition number 1, so xi is as accurate as the
    eigenvalues; use spectral_xi where the diagonalizer g is needed too.
    """
    return _phases_to_alcove(np.angle(np.linalg.eigvals(A)), np.shape(A)[-1])[0]


def _no_sort(w):
    """zgees's eigenvalue-select callback, never called with sort_t = 0."""
    return None


@functools.lru_cache(maxsize=64)
def _gees_lwork(n):
    """Optimal LAPACK zgees workspace size for n x n, from one query; it
    depends on n alone."""
    work = zgees(_no_sort, np.eye(n, dtype=complex), lwork=-1)[-2]
    return int(work[0].real)


def _schur(A):
    """Complex Schur form A = Z T Z^dagger of a square complex array by one
    LAPACK zgees call, the call scipy.linalg.schur(A, output="complex")
    makes after its argument checks and workspace query, so T and Z are
    the same bits.  A non-square or non-finite A raises ValueError and a
    failed QR iteration LinAlgError, as there."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected square matrix")
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    T, _, _, Z, _, info = zgees(_no_sort, A, lwork=_gees_lwork(A.shape[-1]))
    if info != 0:
        raise LinAlgError(f"Schur form not found (zgees info={info})")
    return T, Z


def spectral_xi(A):
    """The decomposition (xi, g) of a regular special-unitary matrix,
    A = g^dagger delta(xi) g.

    xi is read off the Schur diagonal by the convention of _phases_to_alcove
    and g from the Schur vectors in the same order, the first entry of each
    eigenvector with modulus above PHASE_TOL made real positive.  Raises
    NonRegular when the eigenphase gap 2 min xi is at most GAP_TOL; above
    it g is unique up to left torus factors.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    T, Z = _schur(A)
    xi, perm = _phases_to_alcove(np.angle(T.diagonal()), n)
    gap = 2.0 * float(xi.min())
    if not gap > GAP_TOL:
        raise NonRegular(f"eigenphase gap {gap:.3e} is at most GAP_TOL={GAP_TOL:.1e}")

    vecs = Z[:, perm]
    lead = vecs[(abs(vecs) > PHASE_TOL).argmax(axis=0), np.arange(n)]
    g = (vecs * (lead / abs(lead)).conj()).conj().T
    return xi, g


def spectral_index(j, n):
    """Return j if it names a spectral function Xi_j (1..n-1), else raise
    ValueError."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"spectral index must be in 1..{n - 1}, got {j}")
    return j
