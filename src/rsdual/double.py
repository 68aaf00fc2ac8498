"""The internally fused quasi-Hamiltonian double SU(n) x SU(n).

Carries the invariant 2-form, the group-valued moment map mu(A,B) =
A B A^{-1} B^{-1}, the explicit flows of invariant Hamiltonians (which move
one factor, are exact for all times, and of the spectral kind compose to
the torus actions), and the mapping-class automorphisms S, T, Ttilde with
the central twist Q and the conjugating involution nu.  As in the paper,
the double carries no coupling: n is the size of the matrices.  The 2-form (which checks its
tangents) and the tangent projection take stacks of tangents (..., n, n),
the gradients and flows stacks of pairs, each row with the one-point bits;
finite differences live in verify.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TangencyViolation, anywhere
from .sun import (
    alcove_exponents, alcove_point, dagger, random_special_unitary, scalar_product, spectral_index,
    spectral_xi, traceless_antihermitian,
)

TANGENT_TOL = 1e-9


@dataclass
class DoublePoint:
    """A pair of special-unitary matrices (A, B)."""

    A: np.ndarray
    B: np.ndarray


@dataclass
class DoubleTangent:
    """Ambient tangent (dA, dB) at a DoublePoint."""

    dA: np.ndarray
    dB: np.ndarray

    def project(self, p):
        """Orthogonal projection onto the tangent space at p (kills the
        O(step^2) normal component of finite-difference tangents)."""
        dA = p.A @ traceless_antihermitian(dagger(p.A) @ self.dA)
        dB = p.B @ traceless_antihermitian(dagger(p.B) @ self.dB)
        return DoubleTangent(dA, dB)


VALID_KINDS = ("spectral", "re_trace", "im_trace", "dehn")
VALID_SIDES = ("first", "second")


@dataclass(frozen=True)
class InvariantHamiltonian:
    """Class function of one factor of the double.

    kind 'spectral' is the alcove coordinate Xi_index; 're_trace'/'im_trace'
    are Re/Im tr(X^index); 'dehn' (index 1 only) is the quadratic spectral
    combination whose time-one flow is a Dehn twist.  side 'first' reads A and flows B,
    side 'second' reads B and flows A.
    """

    kind: str
    index: int = 1
    side: str = "first"

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"kind must be one of {VALID_KINDS}")
        if self.side not in VALID_SIDES:
            raise ValueError(f"side must be one of {VALID_SIDES}")
        if self.kind in ("re_trace", "im_trace") and self.index < 1:
            raise ValueError("trace power must be >= 1")
        if self.kind == "dehn" and self.index != 1:
            raise ValueError(f"dehn takes no index, got {self.index}")

    def value(self, p):
        X = p.A if self.side == "first" else p.B
        if self.kind == "spectral":
            k = spectral_index(self.index, X.shape[-1])
            return alcove_point(X)[..., k - 1]
        if self.kind in ("re_trace", "im_trace"):
            t = np.trace(np.linalg.matrix_power(X, self.index), 0, -2, -1)
            return t.real if self.kind == "re_trace" else t.imag
        # |sum_k xi_k lambda_k|^2, and the exponents are -2 sum_k xi_k lambda_k
        e = alcove_exponents(alcove_point(X))
        return 0.25 * np.vecdot(e, e)


def moment(p):
    """Group-valued moment map mu(A, B) = A B A^{-1} B^{-1}."""
    return p.A @ p.B @ dagger(p.A) @ dagger(p.B)


def conjugate(p, g):
    """Diagonal conjugation action Psi_g(A, B) = (g A g^{-1}, g B g^{-1})."""
    gi = dagger(g)
    return DoublePoint(g @ p.A @ gi, g @ p.B @ gi)


def vertical_tangent(p, zeta):
    """Infinitesimal conjugation action zeta_M at p."""
    return DoubleTangent(zeta @ p.A - p.A @ zeta, zeta @ p.B - p.B @ zeta)


def _wedge(c1, d1, c2, d2):
    # <phi ^ psi>(v1, v2) with phi(vi) = ci, psi(vi) = di
    return scalar_product(c1, d2) - scalar_product(c2, d1)


def omega_eval(p, v1, v2):
    """The invariant 2-form of the double evaluated on two tangents.

    2 omega = <A^{-1}dA ^ dB B^{-1}> + <dA A^{-1} ^ B^{-1}dB>
              - <(AB)^{-1} d(AB) ^ (BA)^{-1} d(BA)>.
    Both tangents must lie in the tangent space at p: A^{-1}dA and
    B^{-1}dB in su(n) to TANGENT_TOL (TangencyViolation).
    """
    A, B = p.A, p.B
    Ai, Bi = dagger(A), dagger(B)
    ab_i = Bi @ Ai
    ba_i = Ai @ Bi

    def left_terms(v):
        left = (Ai @ v.dA, Bi @ v.dB)
        for x in left:
            off = np.maximum(np.linalg.norm(x + dagger(x), axis=(-2, -1)), abs(x.trace(0, -2, -1)))
            if anywhere(~(off <= TANGENT_TOL)):  # so that NaN fails
                raise TangencyViolation("tangent not in su(n) at the base point")
        dAB = v.dA @ B + A @ v.dB
        dBA = v.dB @ A + B @ v.dA
        return (left[0], v.dB @ Bi, v.dA @ Ai, left[1], ab_i @ dAB, ba_i @ dBA)

    t1 = left_terms(v1)
    t2 = left_terms(v2)
    total = (
        _wedge(t1[0], t1[1], t2[0], t2[1])
        + _wedge(t1[2], t1[3], t2[2], t2[3])
        - _wedge(t1[4], t1[5], t2[4], t2[5])
    )
    return 0.5 * total


def _gradient_eig(h, X):
    """Eigendecomposition (V, lam) of grad h(X) = V diag(i lam) V^dagger.

    For 'spectral' and 'dehn' V is the diagonalizer g(X)^dagger and lam the
    +-1 pattern of Xi_index resp. the alcove exponents; for the trace kinds
    it is the eigh of the Hermitian -i grad h(X).
    """
    if h.kind in ("re_trace", "im_trace"):
        coeff = -2.0 * h.index if h.kind == "re_trace" else 2j * h.index
        grad = traceless_antihermitian(coeff * np.linalg.matrix_power(X, h.index))
        lam, V = np.linalg.eigh(-1j * grad)
        return V, lam
    if h.kind == "spectral":
        spectral_index(h.index, X.shape[-1])
    xi, g = spectral_xi(X)
    if h.kind == "dehn":
        return dagger(g), alcove_exponents(xi)
    lam = np.zeros(X.shape[-1])
    lam[h.index] = 1.0
    lam[h.index - 1] = -1.0
    return dagger(g), lam


def hamiltonian_gradient(h, X):
    """The derivative grad h defined by d/dt h(e^{t zeta} X)|_0 = <zeta, grad h>.

    For spectral kinds this is the explicit conjugated su(n) generator; for
    trace kinds the traceless anti-Hermitian part of -m X^m resp. i m X^m;
    for 'dehn' the alcove logarithm, so that exp(s grad h(X)) = X^s.
    """
    V, lam = _gradient_eig(h, X)
    return V @ ((1j * lam)[..., :, None] * dagger(V))


def flow_map(p, h):
    """The exact flow t -> flow(p, h, t) from one decomposition of the
    frozen factor's gradient: each time costs one diagonal scaling and one
    matrix product, (moved factor) V diag(e^{+-i t lam}) V^dagger.  On a
    stack of pairs t is one time for all or one per pair.
    """
    first = h.side == "first"
    V, lam = _gradient_eig(h, p.A if first else p.B)
    moved = (p.B if first else p.A) @ V
    rate = ((-1j if first else 1j) * lam)[..., None, :]  # scales the columns
    Vh = dagger(V)

    def at(t):
        if not np.isscalar(t):
            t = np.asarray(t)[..., None, None]
        m = (moved * np.exp(t * rate)) @ Vh
        return DoublePoint(p.A.copy(), m) if first else DoublePoint(m, p.B.copy())

    return at


def flow(p, h, t):
    """Exact flow of an invariant Hamiltonian.

    side 'first':  (A, B) -> (A, B exp(-t grad h(A))),
    side 'second': (A, B) -> (A exp(t grad h(B)), B);
    the moment map is conserved because grad h(X) commutes with X.  The
    n - 1 spectral flows of a side at times theta_k compose to its torus
    action, B -> B g(A)^dagger rho g(A) resp. A -> A g(B)^dagger conj(rho)
    g(B) with rho = diag(e^{i(theta_k - theta_{k-1})}), theta_0 = theta_n = 0.
    """
    return flow_map(p, h)(t)


def auto_apply(gen, p):
    """Mapping-class generators and related maps on the double.

    S(A,B) = (B^{-1}, B A B^{-1});  T(A,B) = (A B, B);
    Ttilde(A,B) = (A, B A^{-1});    Q = Psi_{mu(A,B)^{-1}} (the central
    twist, equal to S^4);           nu(A,B) = (conj B, conj A).
    S, T, Ttilde, Q preserve the 2-form and the moment map; nu reverses the
    form and sends mu to conj(mu)^{-1}.
    """
    A, B = p.A, p.B
    if gen == "S":
        return DoublePoint(dagger(B), B @ A @ dagger(B))
    if gen == "T":
        return DoublePoint(A @ B, B.copy())
    if gen == "Ttilde":
        return DoublePoint(A.copy(), B @ dagger(A))
    if gen == "Q":
        m = moment(p)
        return conjugate(p, dagger(m))
    if gen == "nu":
        return DoublePoint(np.conjugate(B), np.conjugate(A))
    raise ValueError(f"unknown generator {gen!r}")


def apply_word(word, p):
    """Apply a sequence of generators in order (leftmost acts first)."""
    for gen in word:
        p = auto_apply(gen, p)
    return p


def random_double_point(n, rng, count=None):
    """Random pair (A, B), A drawn first; with count, a pair of stacks
    (count, n, n) of the pairs of count calls on rng."""
    lead = () if count is None else (count,)
    g = random_special_unitary(n, rng, 2 * np.prod(lead, dtype=int)).reshape(lead + (2, n, n))
    return DoublePoint(g[..., 0, :, :], g[..., 1, :, :])


def geodesic_tangent(p, X, Y):
    """Tangent of the curve (A e^{sX}, B e^{sY}) at s = 0, for X, Y in su(n)."""
    return DoubleTangent(p.A @ X, p.B @ Y)
