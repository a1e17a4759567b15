"""Local orthogonal observable (LOO) bases and the correlation Gram matrix.

The basis is the generalized Gell-Mann family, trace-orthonormalized, in a
fixed order: for each column index k = 1..d-1, first the antisymmetric and
symmetric off-diagonal pair elements for rows j < k (ascending j), then the
k-th traceless diagonal element; the identity/sqrt(d) comes last.  For d = 2
this is (sigma_y, sigma_x, sigma_z, I)/sqrt(2).

The Gram matrix Gamma_{mu,nu} = Corr(Omega_mu, Omega_nu) encodes every skew
information as a quadratic form a^T Gamma a.  Gamma = C^dag C only fixes the
factor C up to a left unitary, and the modulus vectors below do depend on
that gauge, so one deterministic choice is fixed here: the upper-triangular
factor with a real positive diagonal and all-zero rows at dependent
columns, the one a semidefinite Cholesky factorization of Gamma gives.
Bound validity is gauge-free; only the intermediate refinement values move.

The factor is not computed from Gamma, which would square its condition
number, but as the R factor of F, where Gamma = F^dag F and
F_{(i,j),mu} = sqrt(W_ij) (V^dag Omega_mu V)_ij over the weights W and the
eigenvectors V of the state.  Its nonzero rows are Q^dag F, where Q spans
the columns of F that depend on no earlier column: the columns J that a
greedy left-to-right search keeps.  The moduli of an observable A with
coefficients a are then |C a| = |Q^dag f| with f = sqrt(W) * V^dag A V,
the vector skewinfo.eigenbasis_terms gives and K = f f^T is formed from,
so sum(x**2) = K_ii.  F and f are taken in real coordinates (see
skewinfo._real_terms), which change no inner product, so Gamma and C are
real.

J depends only on where W is positive, since scaling a row of F by
sqrt(W_ij) > 0 changes no column dependence, and W_ij = 0 exactly when
lam_i = lam_j; so there is one J per pattern of equal eigenvalues, at most
2^(d-1) of them.  modulus_vectors finds J once per pattern, by the
reference search (orthonormalize, a two-pass Gram-Schmidt) at a seeded
random eigenbasis, where the kept and the dropped columns must be far
apart.  At a state with that pattern no leading block of columns of F has
a higher rank than there, so J is the state's own choice exactly when each
column of J keeps a residual above the floor after the columns of J before
it.  One batched QR of those columns, with f appended, checks that and
gives Q^dag f.  The points where some residual is at or below the floor (a
state whose eigenbasis aligns with the basis, such as a qubit with a Bloch
vector in the x-y plane), and every point of a pattern whose J is not
clear, take the reference search over every column instead.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import DensityMatrix
from .metrics import MetricSpec
from .skewinfo import _real_terms, eigenbasis_terms

# Cholesky pivots at or below this relative to max(1, the largest diagonal
# entry of Gamma), and squared column residuals of F at or below this
# relative to the point's largest squared column norm or max W, are exact
# kernel directions.  Scaling W changes no column dependence, so F's floor
# has no absolute part: near I/d, where all of W is tiny, columns stay.
_SQRT_CLAMP = 1e-12

# The eigenbasis at which each pattern's columns are found, and the margin
# required there: every kept column keeps a squared residual of at least
# _KEPT_MIN and every dropped one at most _DROPPED_MAX, both far from the
# floor.  At this seed all 254 patterns of d = 2..8 keep at least 5e-5 and
# drop at most 1e-28.
_PATTERN_SEED = 15
_KEPT_MIN = 1e-6
_DROPPED_MAX = 1e-20


# One basis per dimension for the life of the process: it does not depend on
# the state, and callers only read it.
@functools.cache
def loo_basis(d: int) -> np.ndarray:
    """The d^2 trace-orthonormal Hermitian basis matrices, fixed order, as (d^2, d, d).

    The array is shared between calls and read-only.
    """
    if d < 2:
        raise DomainError(f"LOO basis needs d >= 2, got {d}")
    basis = np.zeros((d * d, d, d), dtype=complex)
    mu = 0
    for k in range(1, d):
        for j in range(k):
            basis[mu, j, k] = -1j / np.sqrt(2.0)
            basis[mu, k, j] = 1j / np.sqrt(2.0)
            basis[mu + 1, j, k] = basis[mu + 1, k, j] = 1.0 / np.sqrt(2.0)
            mu += 2
        diag = np.ones(k + 1)
        diag[k] = -k
        basis[mu, range(k + 1), range(k + 1)] = diag / np.sqrt(k * (k + 1))
        mu += 1
    basis[mu] = np.eye(d) / np.sqrt(d)
    basis.setflags(write=False)
    return basis


def expand(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real coefficients a_mu = Tr(Omega_mu A) of one observable or a stack of them."""
    n, d, _ = basis.shape
    A = np.asarray(A)
    if A.shape[-2:] != (d, d):
        raise DimensionMismatch(f"observable shape {A.shape} vs basis dim {d}")
    # Tr(Omega A) = sum_ij Omega_ij A_ji: one product of flattened A^T with the basis
    flat = np.swapaxes(A, -1, -2).reshape(*A.shape[:-2], d * d)
    return (flat @ basis.reshape(n, d * d).T).real


def cholesky_psd(gamma: np.ndarray) -> np.ndarray:
    """Upper-triangular C with C^dag C = gamma for Hermitian PSD gamma.

    Unlike the strictly-positive-definite factorization, rank deficiency is
    allowed: whenever a pivot falls at or below _SQRT_CLAMP (relative to
    the largest diagonal entry) the whole row is left zero and elimination
    continues, so the result has one nonzero row per pivot above the floor.
    That can be more rows than gamma's rank: gamma squares the condition
    number of F, and its rounding can leave a pivot above the floor where
    the R factor of F has none (a surplus row).  The pipeline takes its
    factor from F instead (modulus_vectors, gram_matrix).

    ``gamma`` may be one matrix (n, n) or a stack (T, n, n); the row loop
    runs once for the whole stack, each row computed for every matrix at once.
    """
    gamma = np.asarray(gamma)
    n = gamma.shape[-1]
    G = gamma.reshape(-1, n, n)
    R = np.zeros(G.shape, dtype=complex)
    diag = G.real.diagonal(axis1=1, axis2=2)
    floor = _SQRT_CLAMP * np.maximum(1.0, diag.max(axis=1, initial=0.0))
    for i in range(n):
        col = R[:, :i, i]
        pivot = diag[:, i] - np.square(np.abs(col)).sum(axis=1)
        zero = pivot <= floor
        zeros = np.count_nonzero(zero)
        if zeros == len(G):
            continue
        if zeros:
            pivot[zero] = 1.0
        R[:, i, i] = np.sqrt(pivot)
        if i + 1 < n:
            R[:, i, i + 1 :] = (
                G[:, i, i + 1 :] - (col.conj()[:, None, :] @ R[:, :i, i + 1 :])[:, 0]
            ) / R[:, i, i, None]
        if zeros:
            R[zero, i] = 0.0
    return R.reshape(gamma.shape)


def orthonormalize(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy orthonormal basis of the columns of a stack F (T, m, n): (Q, residuals).

    Column k of each point is orthogonalized against the columns kept
    before it twice ("twice is enough": Giraud, Langou and Rozloznik,
    2005).  It is kept when its squared residual norm exceeds _SQRT_CLAMP
    times the point's largest squared column norm, and then Q's column k is
    the unit residual; otherwise Q's column k is zero.  residuals (T, n)
    holds every squared residual norm, kept or not.  The rows of Q^dag F
    at kept columns are those of the factor C; the others are zero.
    """
    T, m, n = F.shape
    Q = np.zeros((T, m, n), dtype=np.result_type(F, float))
    residuals = np.zeros((T, n))
    floor = _SQRT_CLAMP * np.square(np.abs(F)).sum(axis=1).max(axis=1, initial=0.0)
    for k in range(n):
        v = F[:, :, k, None]
        for _ in range(2):
            v = v - Q[:, :, :k] @ (Q[:, :, :k].conj().swapaxes(1, 2) @ v)
        r2 = np.square(np.abs(v[:, :, 0])).sum(axis=1)
        residuals[:, k] = r2
        keep = r2 > floor
        Q[keep, :, k] = v[keep, :, 0] / np.sqrt(r2[keep])[:, None]
    return Q, residuals


@functools.lru_cache(maxsize=1024)
def _side_by_side(d: int, columns: tuple[int, ...]) -> np.ndarray:
    """The LOO basis elements at columns, side by side: (d, r d), read-only."""
    B = loo_basis(d)[list(columns)].transpose(1, 0, 2).reshape(d, len(columns) * d)
    B.setflags(write=False)
    return B


def _basis_columns(V: np.ndarray, W: np.ndarray, columns: tuple[int, ...]) -> np.ndarray:
    """The columns of F at columns, in real coordinates: (T, d(d-1), r).

    V (T, d, d) and W (T, d^2) are the eigenvectors and weights of T
    states.  V^dag Omega_mu V takes one product on each side per point:
    V^dag times the elements side by side, then the r of them stacked
    times V.
    """
    T, d, _ = V.shape
    r = len(columns)
    left = V.conj().swapaxes(1, 2) @ _side_by_side(d, columns)
    rotated = left.reshape(T, d, r, d).swapaxes(1, 2).reshape(T, r * d, d) @ V
    return _real_terms(rotated.reshape(T, r, d * d), W[:, None, :]).swapaxes(1, 2)


@functools.lru_cache(maxsize=1024)
def _pattern_columns(d: int, support: bytes) -> tuple[int, ...] | None:
    """The columns J that the greedy search keeps where W > 0 exactly at support.

    support holds the d^2 booleans W_ij > 0 as bytes.  The search runs at a
    seeded random eigenbasis with unit weights on the support.  It must keep
    one column per weight (F has full row rank there), with the kept and the
    dropped residuals far apart; where they are not, there is no J (None)
    and every point of the pattern takes the search over every column.
    """
    mask = np.frombuffer(support, dtype=bool)
    rng = np.random.default_rng(_PATTERN_SEED)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    V = np.linalg.qr(G)[0][None]
    Q, residuals = orthonormalize(_basis_columns(V, mask[None] * 1.0, tuple(range(d * d))))
    kept = np.any(Q[0], axis=0)
    if (
        np.count_nonzero(kept) != np.count_nonzero(mask)
        or residuals[0, kept].min(initial=np.inf) < _KEPT_MIN
        or residuals[0, ~kept].max(initial=0.0) > _DROPPED_MAX
    ):
        return None
    return tuple(np.flatnonzero(kept).tolist())


def modulus_vectors(rho: DensityMatrix, f: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Moduli |C a| of a family of observables at a state: (N, d^2), or (T, N, d^2).

    f and W are the terms skewinfo.eigenbasis_terms gives for the
    observables at rho, one state or a stack of T states.  The moduli are
    |Q^T f| at the kept columns of F and exact zeros at the others (see the
    module docstring); sum(x**2) = |f|^2 = I(A) = K_ii.

    The points are grouped by where W > 0.  Each group takes one batched
    QR of its pattern's columns J with f appended: R's first r = |J|
    columns check J, and the block beside them is Q^T f.  A column passes
    when its squared R_jj exceeds _SQRT_CLAMP times the point's max W,
    which bounds every squared column norm of F.  The points where a column
    of J falls to that floor, and every point of a pattern with no J, take
    orthonormalize over every column instead.
    """
    N, m = f.shape[-2:]
    d = rho.dim
    n = d * d
    shape = f.shape[:-1] + (n,)
    V = rho.eigenvectors.reshape(-1, d, d)
    T = len(V)
    W = W.reshape(T, n)
    f = f.reshape(T, N, m)
    floor = _SQRT_CLAMP * W.max(axis=1)
    x = np.zeros((T, N, n))
    support = W > 0
    todo = np.ones(T, dtype=bool)
    while todo.any():
        pattern = support[todo.argmax()]
        points = np.flatnonzero(todo & np.all(support == pattern, axis=1))
        todo[points] = False
        columns = _pattern_columns(d, pattern.tobytes())
        if columns is not None:
            r = len(columns)
            F = _basis_columns(V[points], W[points], columns)
            R = np.linalg.qr(np.concatenate((F, f[points].swapaxes(1, 2)), axis=2), mode="r")
            diag = R.diagonal(axis1=1, axis2=2)[:, :r]
            ok = np.all(np.square(diag) > floor[points, None], axis=1)
            x[points[ok, None], :, list(columns)] = np.abs(R[ok, :r, r:])
            points = points[~ok]
        if len(points):
            Q = orthonormalize(_basis_columns(V[points], W[points], tuple(range(n))))[0]
            x[points] = np.abs(f[points] @ Q)
    return x.reshape(shape)


def gram_matrix(rho: DensityMatrix, basis: np.ndarray, m: MetricSpec) -> np.ndarray:
    """Canonical factor C of the Gram matrix Gamma = C^T C = F^T F.

    Gamma_{mu,nu} = Corr(Omega_mu, Omega_nu) is the correlation matrix of the
    Hermitian basis elements, and C = Q^T F for the Q that orthonormalize
    gives, with F the basis elements' f from skewinfo.eigenbasis_terms as
    columns: the R factor of F at the kept columns and zero rows at the
    others.  It is upper triangular with a positive diagonal up to
    rounding, and up to the residuals of dropped columns, which fall below
    the floor but stay in C, so that C a = Q^T f gives the moduli of
    modulus_vectors.  A stack of T states gives a stack of T factors.
    """
    f = eigenbasis_terms(rho, basis, m)[0]
    n = len(basis)
    F = f.swapaxes(-1, -2).reshape(-1, f.shape[-1], n)
    Q = orthonormalize(F)[0]
    return (Q.swapaxes(1, 2) @ F).reshape(f.shape[:-2] + (n, n))


def modulus_vector(C: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Entrywise moduli |C a|, one row per coefficient vector a; sum(x**2) = I(A).

    A stack of factors (T, n, n) gives a stack of moduli (T, N, n).
    """
    E = np.asarray(coeffs)
    if C.shape[-1] != E.shape[-1]:
        raise DimensionMismatch(
            f"factor dim {C.shape[-1]} vs coefficient length {E.shape[-1]}"
        )
    moduli = np.abs(C @ E.T)
    return moduli if E.ndim == 1 else moduli.swapaxes(-1, -2)


__all__ = [
    "cholesky_psd",
    "expand",
    "gram_matrix",
    "loo_basis",
    "modulus_vector",
    "modulus_vectors",
    "orthonormalize",
]
