"""Factorization (gamma_2) norm of a matrix by a dense primal-dual interior point method.

gamma2(F) is the optimum of

    minimize t  subject to  [[X, F], [F^H, Y]] >= 0,  X_ii = Y_jj = t,

whose value equals the (completely) bounded Schur multiplier norm of F.
The usual form only bounds the diagonals, X_ii <= t and Y_jj <= t.  Both have
the same optimum: adding a nonnegative diagonal to a PSD block matrix keeps it
PSD, so raising every diagonal entry to t maps a feasible point of the bounded
form to one of the pinned form with the same t.  The pinned form needs one
cone, the Hermitian PSD matrices of size 2n.  The solver is a Nesterov-Todd
scaled path-following method on that cone, written directly over complex
Hermitian matrices.  It is deterministic: no randomness, fixed iteration
schedule, bitwise-reproducible certificates.

Certified bounds: the primal block matrix stays exactly feasible (its
off-diagonal block is the constant F and every diagonal entry is t), so t is
always an upper bound on gamma2(F).  Lower bounds come from the dual
characterization

    gamma2(F) = max { || diag(u) F diag(v) ||_S1 : u, v >= 0 unit vectors },

evaluated at u, v read off the dual iterate; any unit pair gives a valid
bound, so the reported gap is a true certificate independent of solver
internals.

Every dense kernel is a direct f2py call into scipy's LAPACK and BLAS, the
OpenBLAS that factors the Schur matrix.  numpy links a second OpenBLAS with
its own thread pool, whose workers keep spinning for a while after each call;
on a few cores that spinning takes a core from the other library's next call.
The direct calls also skip scipy.linalg's validation, whose finiteness scans
read the whole m x m Schur matrix several times per iteration.  Finiteness is
checked instead on F at entry and on each Newton direction, an m-vector:
OpenBLAS's potrf reports success on a matrix holding a NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm
from scipy.linalg.lapack import (dpotrf, dpotrs, zgesdd, zgesdd_lwork, zgesvd,
                                 zgesvd_lwork, zheevd, zheevd_lwork, zpotrf, zpotrs,
                                 ztrtrs)

from .errors import CertificateError, SolverFailure, UnsupportedSize

MAX_SIZE = 128
MAX_ITER = 100          # interior-point iteration budget


@dataclass(frozen=True, eq=False)
class SDPSolution:
    """Solver output: gamma2(F) lies in [dual_bound, value].

    dual_bound is the trace norm of diag(dual_u) F diag(dual_v); gamma2 fills
    every field, the all-zero F included.
    """

    value: float
    gram: np.ndarray            # [[X, F], [F^H, Y]], PSD, off-block exactly F
    dual_bound: float
    gap: float
    iterations: int
    xi: np.ndarray              # F = xi eta^H: F[i, j] = <xi(i), eta(j)>
    eta: np.ndarray
    ill_conditioned: bool
    dual_u: np.ndarray = field(repr=False)
    dual_v: np.ndarray = field(repr=False)


class _Hermitian:
    """hvec/hmat isometry between Hermitian n x n and R^{n^2}: x = vec(Re H + Im H).

    Re H is symmetric and Im H antisymmetric, so the cross term of
    |Re H + Im H|^2 sums to zero and <hvec H1, hvec H2> = Re tr(H1^H H2).
    The symmetric and antisymmetric parts of S = Re H + Im H give H back, and
    the real diagonal of H sits at the flat positions i (n + 1).
    """

    def __init__(self, n):
        self.n = n
        self.diag = np.arange(n) * (n + 1)

    def hvec(self, T):
        return (T.real + T.imag).ravel()

    def hmat(self, x):
        S = x.reshape(self.n, self.n)
        return 0.5 * ((S + S.T) + 1j * (S - S.T))

    def gram_congruence(self, K, out):
        """Matrix of H -> K H K^H in hvec coordinates, written into out (n^2 x n^2).

        With C = K (x) conj K, C[p, i, q, j] = K_pi conj(K_qj), the entry at
        ((p, q), (i, j)) is Re C[p, i, q, j] + Im C[p, j, q, i].  out may be a
        block of a C-ordered matrix, whose (n, n, n, n) reshape is a view.
        Two rank-2 BLAS products (dgemm, in the same OpenBLAS as the rest of
        the solver) give the same entries, but made a solve 5-10% slower at
        n = 32 (best of 3 solves, OpenBLAS 0.3.31, 2 cores).
        """
        n = self.n
        C = np.multiply.outer(K, K.conj())
        np.add(C.real.transpose(0, 2, 1, 3), C.imag.transpose(0, 2, 3, 1),
               out=out.reshape(n, n, n, n))
        return out


def _lapack(out):
    """An f2py LAPACK result without its info; info > 0 raises as numpy does."""
    *out, info = out
    if info < 0:
        raise ValueError(f"LAPACK argument {-info} has an illegal value")
    if info > 0:
        raise np.linalg.LinAlgError(f"LAPACK failed with info {info}")
    return out


def cholesky(a, lower=True, overwrite_a=False):
    """Cholesky factor of the real Schur matrix, scipy's signature, no scans.

    The triangle that is not the factor keeps whatever a held there.
    """
    return _lapack(dpotrf(a, lower=lower, clean=0, overwrite_a=overwrite_a))[0]


# numpy's SVD and eigensolvers query LAPACK's optimal workspace; querying it
# too keeps these results bit-identical to numpy's

def _svd(A, compute_uv=1, driver=(zgesdd, zgesdd_lwork)):
    routine, query = driver
    work, _ = query(*A.shape, compute_uv=compute_uv)
    return _lapack(routine(A, compute_uv=compute_uv, lwork=int(work.real)))


def _eigh(A, compute_v=1):
    work, iwork, rwork, _ = zheevd_lwork(A.shape[0], compute_v=compute_v, lower=True)
    return _lapack(zheevd(A, compute_v=compute_v, lower=True, lwork=int(work.real),
                          liwork=iwork, lrwork=int(rwork)))


def _psd_max_step(L, D):
    """sup alpha with chol-factored base plus alpha * D staying PSD."""
    M = _lapack(ztrtrs(L, D, lower=True))[0]
    M = _lapack(ztrtrs(L, M.conj().T, lower=True))[0].conj().T
    w = _eigh(0.5 * (M + M.conj().T), compute_v=0)[0]
    lo = w.min()
    if lo >= -1e-14:
        return np.inf
    return -1.0 / lo


def _dual_trace_bound(F, Zp):
    """Valid lower bound on gamma2(F) from the diagonal of a PSD dual iterate."""
    n = F.shape[0]
    u = np.sqrt(np.clip(np.real(np.diag(Zp[:n, :n])), 0.0, None))
    v = np.sqrt(np.clip(np.real(np.diag(Zp[n:, n:])), 0.0, None))
    nu, nv = np.sqrt(np.dot(u, u)), np.sqrt(np.dot(v, v))
    if nu == 0.0 or nv == 0.0:
        return 0.0, u, v
    u, v = u / nu, v / nv
    sv = _svd((u[:, None] * F) * v[None, :], compute_uv=0)[1]
    return float(sv.sum()), u, v


def gamma2(F, tol: float = 1e-6) -> SDPSolution:
    """Compute gamma2(F) with a certified gap <= tol.

    The factors are the two blocks of rows of the final Gram factor, so
    F = xi eta^H and gamma2(F) <= max row norm of xi times that of eta.
    Raises SolverFailure (carrying the partial solution) when MAX_ITER
    iterations end before the certificate closes.
    """
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError("gamma2 expects a square matrix")
    n = F.shape[0]
    if n > MAX_SIZE:
        raise UnsupportedSize(f"gamma2 supports n <= {MAX_SIZE}, got {n}")
    F = np.ascontiguousarray(F, dtype=complex)
    if not np.isfinite(F).all():
        raise ValueError("matrix entries must be finite")
    scale = float(np.abs(F).max())
    if scale == 0.0:
        zfac = np.zeros((n, 0), dtype=complex)
        return SDPSolution(0.0, np.zeros((2 * n, 2 * n), dtype=complex), 0.0, 0.0,
                           0, zfac, zfac, False, np.zeros(n), np.zeros(n))
    F = F / scale

    # y = (hvec X, hvec Y, t) and S(y) = [[X, F], [F^H, Y]] + t I, where the
    # 2n diagonal coordinates of X and Y are pinned to 0: they get unit rows
    # in the Schur matrix and a zero right-hand side, and every diagonal
    # entry of S is exactly t
    basis = _Hermitian(n)
    nh = n * n
    m = 2 * nh + 1
    diags = np.concatenate([basis.diag, nh + basis.diag])

    def adjoint(Q):
        out = np.empty(m)
        out[:nh] = basis.hvec(Q[:n, :n])
        out[nh:-1] = basis.hvec(Q[n:, n:])
        out[diags] = 0.0
        out[-1] = np.real(np.trace(Q))
        return out

    b = np.zeros(m)
    b[-1] = 1.0

    c0 = float(_svd(F, compute_uv=0)[1].max()) * 1.5 + 1.0
    S = c0 * np.eye(2 * n, dtype=complex)
    S[:n, n:] = F
    S[n:, :n] = F.conj().T
    Zp = np.eye(2 * n, dtype=complex) / (2 * n)     # diagonal with trace 1: dual feasible

    best_dual = 0.0
    best_uv = (np.ones(n) / np.sqrt(n), np.ones(n) / np.sqrt(n))
    ill = False
    # Schur complement: only its upper triangle is written, the rest stays 0
    M = np.zeros((m, m))
    Mdiag = M.reshape(-1)[::m + 1]
    for it in range(1, MAX_ITER + 1):
        gap_inner = float(np.real(np.vdot(Zp, S)))
        mu = gap_inner / (2 * n)

        pobj = S[0, 0].real
        bound, u, v = _dual_trace_bound(F, Zp)
        # weak duality, checked on the certified pair: the primal block is
        # exactly feasible and the trace bound is valid for any PSD iterate
        if bound > pobj + 1e-9 * max(1.0, abs(pobj)):
            raise CertificateError(f"weak duality violated: dual {bound} > primal {pobj}")
        if bound > best_dual:
            best_dual, best_uv = bound, (u, v)
        if pobj - best_dual <= 0.5 * tol / scale:
            break

        try:
            LS = _lapack(zpotrf(S, lower=True))[0]
            LZ = _lapack(zpotrf(Zp, lower=True))[0]
        except np.linalg.LinAlgError:
            ill = True
            break

        # NT scaling: W Z W = S; we only need Ginv = W^{-1}
        T = zgemm(1.0, LZ, LS, trans_a=2)
        try:
            U_, sig, Vh_ = _svd(T)
        except np.linalg.LinAlgError:   # gesdd can fail on clustered values
            U_, sig, Vh_ = _svd(T, driver=(zgesvd, zgesvd_lwork))
        Rinv = _lapack(ztrtrs(LS, (np.sqrt(sig)[:, None] * Vh_).conj().T,
                              lower=True, trans=2))[0].conj().T
        Ginv = zgemm(1.0, Rinv, Rinv, trans_a=2)
        Ginv = 0.5 * (Ginv + Ginv.conj().T)
        t_column = adjoint(zgemm(1.0, Ginv, Ginv))

        # M.T is Fortran-ordered: potrf reads M's upper triangle as its lower
        # one and leaves the factor there, so a failed attempt assembles M again;
        # potrs reads only that triangle, never the stale entries below it
        Lm = None
        for attempt in range(8):
            # the X-Y block is the congruence by Ginv's off-diagonal block
            basis.gram_congruence(Ginv[:n, :n], M[:nh, :nh])
            basis.gram_congruence(Ginv[n:, n:], M[nh:-1, nh:-1])
            basis.gram_congruence(Ginv[:n, n:], M[:nh, nh:-1])
            M[:, -1] = t_column
            M[diags] = M[:, diags] = 0.0
            Mdiag[diags] = 1.0
            reg = 100.0 * reg if attempt else 1e-13 * max(1.0, Mdiag.sum() / m)
            Mdiag += reg
            try:
                Lm = cholesky(M.T, lower=True, overwrite_a=True)
                break
            except np.linalg.LinAlgError:
                ill = True
        if Lm is None:
            ill = True
            break

        Zi = _lapack(zpotrs(LZ, np.eye(2 * n, dtype=complex), lower=True))[0]
        Zi = 0.5 * (Zi + Zi.conj().T)
        rd = b - adjoint(Zp)

        def direction(Rc):
            """(dS, dZ), or None when the solve gives a non-finite dy."""
            rhs = adjoint(zgemm(1.0, zgemm(1.0, Ginv, Rc), Ginv)) - rd
            dy = _lapack(dpotrs(Lm, rhs, lower=True))[0]
            if not np.isfinite(dy).all():
                return None
            dS = dy[-1] * np.eye(2 * n, dtype=complex)
            dS[:n, :n] += basis.hmat(dy[:nh])
            dS[n:, n:] += basis.hmat(dy[nh:-1])
            dZ = zgemm(1.0, zgemm(1.0, Ginv, Rc - dS), Ginv)
            return dS, 0.5 * (dZ + dZ.conj().T)

        # predictor
        step = direction(-S)
        if step is None:
            ill = True
            break
        dS, dZ = step
        ap = min(1.0, 0.99 * _psd_max_step(LS, dS))
        ad = min(1.0, 0.99 * _psd_max_step(LZ, dZ))
        a = min(ap, ad)
        gap_aff = np.real(np.vdot(Zp + a * dZ, S + a * dS))
        sigma_c = float(np.clip((max(gap_aff, 0.0) / gap_inner) ** 3, 1e-8, 0.999))

        # corrector with adaptive centering, same factorization
        step = direction(sigma_c * mu * Zi - S)
        if step is None:
            ill = True
            break
        dS, dZ = step
        ap = min(1.0, 0.98 * _psd_max_step(LS, dS))
        ad = min(1.0, 0.98 * _psd_max_step(LZ, dZ))
        if min(ap, ad) < 1e-9:
            ill = True
            break
        S = S + ap * dS
        Zp = 0.5 * ((Zp + ad * dZ) + (Zp + ad * dZ).conj().T)

    value = float(S[0, 0].real) * scale
    dual_bound = best_dual * scale
    gap = value - dual_bound
    w, Q = _eigh(S)
    w = np.clip(w, 0.0, None)
    keep = w > 1e-14 * max(w.max(), 1.0)
    L = np.sqrt(scale) * (Q[:, keep] * np.sqrt(w[keep])[None, :])
    sol = SDPSolution(value=value, gram=scale * S, dual_bound=dual_bound, gap=gap,
                      iterations=it, xi=L[:n], eta=L[n:],
                      ill_conditioned=ill, dual_u=best_uv[0], dual_v=best_uv[1])
    if not gap <= tol:          # a NaN gap fails too
        raise SolverFailure(
            f"gamma2 reached gap {gap:.3e} > tol {tol:.1e} "
            f"after {it} iterations", partial=sol)
    return sol
