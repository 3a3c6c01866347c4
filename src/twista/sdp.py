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

Newton equations: the Schur operator on y = (hvec X, hvec Y, t) has
m = 2n^2 + 1 coordinates, but it is never formed.  Its (X, Y) part is made
of congruences by the blocks of the scaling, so block elimination of X
leaves an n^2 x n^2 Schur complement on Y, factored in place, and the 2n
pinned diagonal coordinates with t form a rank-2n border (see _Newton).  The
factorization costs n^6 / 3 flops against m^3 / 3 for the whole matrix.
Every block of a congruence matrix is a rank-4 product, and one batched
product writes them all (see _Hermitian.gram_congruence), so a solve holds
about 3.4 n^4 doubles at its peak (n = 24): the complement and its coupling,
2 n^4, and O(n^3) besides.  One step of iterative refinement against the
operator applied by congruences, O(n^3), follows every solve.

Every dense kernel but one is a direct f2py call into scipy's LAPACK and
BLAS, the OpenBLAS that factors the Schur complement.  numpy links a second
OpenBLAS with its own thread pool, whose workers keep spinning for a while
after each call; on a few cores that spinning takes a core from the other
library's next call.  The exception, the congruences' batched n x 4 by 4 x n
product, never wakes that pool (see gram_congruence).  The direct calls
also skip scipy.linalg's validation, whose finiteness scans would read the
whole n^2 x n^2 complement several times per iteration.  Finiteness is
checked instead on F at entry and on each Newton direction, an m-vector:
OpenBLAS's potrf reports success on a matrix holding a NaN.  A failed step
(see _step) or dual bound ends the solve, unretried, on the best certified
bracket; no LAPACK call follows the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm, zgemm
from scipy.linalg.lapack import (dpotrf, dpotrs, zgesdd, zgesdd_lwork, zgesvd,
                                 zgesvd_lwork, zheevd, zheevd_lwork, zhegst, zpotrf,
                                 zpotrs, ztrtrs)

from .errors import CertificateError, SolverFailure, UnsupportedSize
from .littlewood import Bracket, closes, rounding_shrink

MAX_SIZE = 128
MAX_ITER = 100          # interior-point iteration budget


@dataclass(frozen=True, eq=False)
class SDPSolution(Bracket):
    """Solver output: gamma2(F) lies in [dual_bound, value].

    dual_bound is the trace norm of diag(dual_u) F diag(dual_v); gamma2 fills
    every field, the all-zero F included.
    """

    gram: np.ndarray            # [[X, F], [F^H, Y]], PSD, off-block exactly F
    iterations: int
    xi: np.ndarray              # F = xi eta^H, the first and last n rows of the lower
    eta: np.ndarray             # Cholesky factor of gram: n x 2n, rows of norm sqrt(value)
    ill_conditioned: bool
    dual_u: np.ndarray = field(repr=False)
    dual_v: np.ndarray = field(repr=False)


class _Hermitian:
    """The coordinates hvec H = vec(Re H + Im H) of Hermitian n x n matrices in R^{n^2}.

    Re H is symmetric and Im H antisymmetric, so the cross term of
    |Re H + Im H|^2 sums to zero and <hvec H1, hvec H2> = Re tr(H1^H H2).
    The symmetric and antisymmetric parts of S = Re H + Im H give H back, and
    the real diagonal of H sits at the flat positions i (n + 1).
    """

    # K and i K, whose real and imaginary parts are a, b and -b, a (a = Re K, b = Im K)
    phases = np.array([1, 1j])[:, None, None]

    def __init__(self, n):
        self.n = n
        self.diag = np.arange(n) * (n + 1)
        # gram_congruence's factors, 8 n^3 doubles.  Block (p, q) of rank4
        # holds the rows a_p, a_q, b_p, -b_q, a_p, b_q, b_p, a_q: rows 0-3 are
        # the left factor's columns, rows 7-4 the right factor's rows.  The
        # even rows are a_p, b_p twice, the odd ones the real and then the
        # imaginary parts of row q of K and i K
        self.phased = np.empty((2, n, n), dtype=complex)
        rank4 = np.empty((n, n, 8, n))
        parts = self.phased.view(float).reshape(2, n, n, 2)   # [K or i K, row, col, Re or Im]
        self.rows = rank4.reshape(n, n, 2, 2, 2, n)           # row 4 u + 2 v + w at [., ., u, v, w]
        self.p_rows = parts[0].transpose(0, 2, 1)[:, None, None]
        self.q_rows = parts.transpose(1, 3, 0, 2)[None]
        self.left = rank4[:, :, :4].swapaxes(2, 3)
        self.right = rank4[:, :, 7:3:-1]

    def gram_congruence(self, K, out):
        """Matrix of H -> K H K^H in hvec coordinates, written into out (n^2 x n^2).

        With a = Re K, b = Im K and a_p their rows, the entry at ((p, q), (i, j))
        is Re(K_pi conj K_qj) + Im(K_pj conj K_qi), so block (p, q), rows i and
        columns j, is the rank-4 product a_p a_q^T + a_q b_p^T + b_p b_q^T -
        b_q a_p^T of the n x 4 matrix [a_p, a_q, b_p, -b_q] and the 4 x n
        matrix [a_q; b_p; b_q; a_p].  Two broadcast copies fill both factors
        of every block and one batched matmul writes all blocks; out may be a
        block of a C-ordered matrix, whose (n, n, n, n) reshape is a view.
        It is the solver's only numpy matrix product, and it never wakes
        numpy's OpenBLAS pool: each block's product, m n k = 4 n^2 <= 65536 at
        n <= 128, is far below OpenBLAS's threading threshold (4 * 65536), so
        it runs on the calling thread.
        """
        n, rows = self.n, self.rows
        np.multiply(K, self.phases, out=self.phased)
        rows[..., 0, :] = self.p_rows
        rows[..., 1, :] = self.q_rows
        np.matmul(self.left, self.right, out=out.reshape(n, n, n, n))
        return out


def _lapack(out):
    """An f2py LAPACK result without its info; info > 0 raises as numpy does."""
    *out, info = out
    if info < 0:
        raise ValueError(f"LAPACK argument {-info} has an illegal value")
    if info > 0:
        raise np.linalg.LinAlgError(f"LAPACK failed with info {info}")
    return out


def cholesky(a):
    """Cholesky factor of the real Schur complement, in place in a's lower triangle.

    No finiteness scan; the upper triangle keeps whatever a held there.
    """
    return _lapack(dpotrf(a, lower=True, clean=0, overwrite_a=True))[0]


# numpy's SVD and eigensolvers query LAPACK's optimal workspace; querying it
# too keeps these results bit-identical to numpy's.  A query depends only on
# the shape, so each is made once per process

@cache
def _workspace(query, *args, **kwargs):
    return query(*args, **kwargs)


def _svd(A, compute_uv=1):
    """SVD by gesdd, or by gesvd when gesdd refuses (it can on clustered values)."""
    work, _ = _workspace(zgesdd_lwork, *A.shape, compute_uv=compute_uv)
    try:
        return _lapack(zgesdd(A, compute_uv=compute_uv, lwork=int(work.real)))
    except np.linalg.LinAlgError:
        work, _ = _workspace(zgesvd_lwork, *A.shape, compute_uv=compute_uv)
        return _lapack(zgesvd(A, compute_uv=compute_uv, lwork=int(work.real)))


def _psd_max_step(L, D):
    """sup alpha with chol-factored base plus alpha * D staying PSD.

    hegst forms the lower triangle of L^{-1} D L^{-H} from that of D, and
    heevd its eigenvalues only.
    """
    A = _lapack(zhegst(D, L, lower=True))[0]
    work, iwork, rwork, _ = _workspace(zheevd_lwork, len(A), compute_v=0, lower=True)
    lo = _lapack(zheevd(A, compute_v=0, lower=True, lwork=int(work.real),
                        liwork=iwork, lrwork=int(rwork)))[0].min()
    if lo >= -1e-14:
        return np.inf
    return -1.0 / lo


def _dual_trace_bound(F, Zp):
    """Valid lower bound on gamma2(F) from the diagonal of a PSD dual iterate."""
    n = F.shape[0]
    uv = np.sqrt(np.maximum(Zp.diagonal().real, 0.0))
    u, v = uv[:n], uv[n:]
    nu, nv = math.sqrt(np.dot(u, u)), math.sqrt(np.dot(v, v))
    if nu == 0.0 or nv == 0.0:
        return 0.0, u, v
    u, v = u / nu, v / nv
    sv = _svd((u[:, None] * F) * v[None, :], compute_uv=0)[1]
    # the computed sum can round above the trace norm (by 2 ulp on the 2 x 2
    # Hadamard matrix at a uniform pair); each singular value of a backward
    # stable SVD is within about n u ||A||_2 of its own, so gamma_k with
    # k = 2 n^2 + 4 n + 16 covers them, the entries of A and the unit norms
    return float(sv.sum()) * rounding_shrink(2 * F.size + 4 * n + 16), u, v


def _congruence(Q, K):
    """K Q_j K for a stack of matrices, through two products."""
    k, m = Q.shape[:2]
    P = zgemm(1.0, Q.reshape(k * m, m), K)
    P = P.reshape(k, m, m).transpose(1, 0, 2).reshape(m, k * m)
    return zgemm(1.0, K, P).reshape(m, k, m).transpose(1, 0, 2)


def _hvec_congruence(T, K):
    """hvec of K hmat(T_j) K for a stack of real T_j, as a stack.

    For Hermitian K and N = K T K, Re + Im of K ((1 + i) T + (1 - i) T^T) K / 2
    is Re N - Im N^T, so the Hermitian matrix is never formed.
    """
    N = _congruence(T, K)
    return N.real - N.imag.transpose(0, 2, 1)


class _Newton:
    """Newton equations of the pinned form, block-eliminated onto the Y block.

    For a scaling W = Ginv the equations read M dy = rhs, dy = (hvec X,
    hvec Y, t), with the 2n diagonal coordinates of X and Y pinned to 0.  On
    (X, Y) the operator is M0 = [[cong W11, cong W12], [cong W21, cong W22]],
    cong K the matrix of H -> K H K^H; the inverse of cong W11 is
    cong W11^{-1}, so eliminating X leaves the n^2 x n^2 complement
    S = cong W22 - cong K, K = W21 W11^{-1} W12, and the coupling is
    cong J, J = W21 W11^{-1}.  t enters as t I, the value t on every
    diagonal coordinate, so the pinned coordinates and t form a rank-2n
    border: with Z = M0^{-1} D over the 2n diagonal unit columns D and
    H = D^T Z, M0 w = r + D lam and D^T w = t 1 give lam and t from H.  One
    step of iterative refinement against M applied by congruences follows
    each solve.  Buffers and index arrays are built once per gamma2 solve.
    """

    def __init__(self, n):
        self.basis = _Hermitian(n)
        nh = n * n
        self.n, self.nh = n, nh
        self.pinned = np.concatenate([self.basis.diag, nh + self.basis.diag])
        # flat positions of the X and Y blocks in a 2n x 2n matrix, in hvec order
        block = (2 * n * np.arange(n)[:, None] + np.arange(n)).ravel()
        self.blocks = np.concatenate([block, block + (2 * n + 1) * n])
        # dy's coordinate at each entry of that matrix: t on the diagonal, and
        # the pinned coordinate 0, which is 0, off the blocks
        self.at = np.zeros((2 * n, 2 * n), dtype=np.intp)
        self.at.ravel()[self.blocks] = np.arange(2 * nh)
        self.at.ravel()[::2 * n + 1] = 2 * nh
        self.eye_w12 = np.eye(n, 2 * n, dtype=complex)     # [I, W12], see factor
        self.schur = np.empty((nh, nh))     # the complement S, factored in place
        self.schur_diag = self.schur.reshape(-1)[::nh + 1]
        self.G = np.empty((nh, nh))     # cong K, then the coupling cong J
        self.D = np.zeros((nh, 2 * n), order="F")   # the border's right-hand sides
        self.D[self.basis.diag, np.arange(n, 2 * n)] = 1.0
        self.D1 = self.D[:, :n]
        self.V = np.zeros((2 * nh, 2 * n), order="F")     # Z's pieces, see factor
        self.ones = np.ones(2 * n)

    def adjoint(self, R):
        """M's coordinates of a stack of 2n x 2n matrices R = Re Q + Im Q, one column each.

        A Hermitian Q has hvec coordinates Re Q + Im Q in each diagonal block.
        """
        k = R.shape[0]
        out = np.empty((2 * self.nh + 1, k))
        out[:-1] = R.reshape(k, -1)[:, self.blocks].T
        out[self.pinned] = 0.0
        out[-1] = np.trace(R, axis1=1, axis2=2)
        return out

    def lift(self, dy):
        """The steps dS of dy's columns: every diagonal entry t, off-diagonal blocks 0.

        With T the real block matrix of hvec X and hvec Y and t on its
        diagonal, dS = ((T + T^T) + i (T - T^T)) / 2, each diagonal entry
        t / 2 + t / 2, exactly t.
        """
        T = dy[self.at].transpose(2, 0, 1)
        return T * (0.5 + 0.5j) + T.transpose(0, 2, 1) * (0.5 - 0.5j)

    def apply(self, dy):
        """M dy by congruences with Ginv, one column per system."""
        return self.adjoint(_hvec_congruence(dy[self.at].transpose(2, 0, 1), self.Ginv))

    def factor(self, Ginv):
        """Factor the equations at the scaling Ginv.

        Raises LinAlgError when W11, the complement or the border matrix is
        not numerically positive definite.
        """
        n, nh, basis, S, G = self.n, self.nh, self.basis, self.schur, self.G
        self.Ginv = Ginv
        # W11^{-1} [I, W12] = [W11^{-1}, J^H], and K = W12^H J^H
        L11 = _lapack(zpotrf(Ginv[:n, :n], lower=True))[0]
        self.eye_w12[:, n:] = Ginv[:n, n:]
        P = _lapack(zpotrs(L11, self.eye_w12, lower=True))[0]
        Wi, Jh = P[:, :n], P[:, n:]
        self.Wi = Wi = 0.5 * (Wi + Wi.conj().T)
        K = zgemm(1.0, Ginv[:n, n:], Jh, trans_a=2)

        # S.T is Fortran-ordered: potrf reads S's upper triangle as its lower
        # one and leaves the factor there
        basis.gram_congruence(Ginv[n:, n:], S)
        basis.gram_congruence(K, G)
        S -= G
        self.schur_diag += 1e-13 * max(1.0, self.schur_diag.sum() / nh)
        self.L = cholesky(S.T)
        basis.gram_congruence(Jh.conj().T, G)

        # Z = M0^{-1} D: cong J E_ii is column ii of G, so the Y part of Z is
        # S^{-1} of the columns of D; its X part is cong W11^{-1} E_ii = c_i c_i^H,
        # c_i the column i of W11^{-1}, less cong J^T of its Y part.  V holds
        # (c_i c_i^H, Y part), from which H and every solve read the X part
        D, D1, V = self.D, self.D1, self.V
        np.negative(G[:, basis.diag], out=D1)
        Z2 = _lapack(dpotrs(self.L, D, lower=True))[0]
        V[nh:] = Z2
        C = Wi[:, None, :] * Wi.conj()[None, :, :]
        V[:nh, :n] = (C.real + C.imag).reshape(nh, n)
        H = V[self.pinned]
        H[:n] += dgemm(1.0, D1, Z2, trans_a=1)
        LH = _lapack(dpotrf(H, lower=True))[0]
        # V H^{-1} by two triangular solves from the right: potrs on V^T took
        # twice as long at n = 6, 9 and 16 (one thread)
        self.border = dtrsm(1.0, LH, dtrsm(1.0, LH, V, side=1, lower=True, trans_a=1),
                            side=1, lower=True, overwrite_b=True)
        self.h = _lapack(dpotrs(LH, self.ones, lower=True))[0]   # H^{-1} 1
        self.h_sum = self.h.sum()

    def _solve(self, r):
        n, nh, k, G = self.n, self.nh, r.shape[1], self.G
        # x = (r1, r2 - cong J r1): the Y part of M0^{-1} r is S^{-1} of the
        # second half, and q = D^T M0^{-1} r = V^T x
        x = r[:-1].copy()
        x[nh:] -= dgemm(1.0, G.T, x[:nh], trans_a=1)
        q = dgemm(1.0, self.V, x, trans_a=1)
        t = (r[-1] + np.dot(self.h, q)) / self.h_sum
        # w = M0^{-1} r + Z lam with lam = H^{-1} (t 1 - q), and Z's X part
        # is V's less cong J^T of its Y part
        w = dgemm(1.0, self.border, t - q)
        w[nh:] += _lapack(dpotrs(self.L, x[nh:], lower=True))[0]
        w[:nh] += _hvec_congruence(x[:nh].T.reshape(k, n, n), self.Wi).reshape(k, nh).T
        w[:nh] -= dgemm(1.0, G.T, w[nh:])
        dy = np.empty((2 * nh + 1, k))
        dy[:-1] = w
        dy[self.pinned] = 0.0
        dy[-1] = t
        return dy

    def solve(self, rhs):
        """dy with M dy = rhs, one column per system; rhs is 0 at the pinned rows."""
        dy = self._solve(rhs)
        return dy + self._solve(rhs - self.apply(dy))


def _step(S, LS, Zp, newton):
    """One predictor-corrector step: the next S, its lower Cholesky factor and Zp.

    Raises LinAlgError, discarding the step, when LAPACK refuses a call (the
    new S's factorization included), the Newton direction is not finite or a
    step falls below 1e-9.
    """
    gap_inner = float(np.real(np.vdot(Zp, S)))
    mu = gap_inner / len(S)
    LZ = _lapack(zpotrf(Zp, lower=True))[0]

    # NT scaling: W Z W = S; we only need Ginv = W^{-1}
    U_, sig, Vh_ = _svd(zgemm(1.0, LZ, LS, trans_a=2))
    Rinv = _lapack(ztrtrs(LS, (np.sqrt(sig)[:, None] * Vh_).conj().T,
                          lower=True, trans=2))[0].conj().T
    Ginv = zgemm(1.0, Rinv, Rinv, trans_a=2)
    Ginv = 0.5 * (Ginv + Ginv.conj().T)
    newton.factor(Ginv)

    # the predictor (Rc = -S) and the centering term (Rc = Zp^{-1}) share
    # one two-column solve; (dS, dZ) is linear in Rc, so the corrector's,
    # at Rc = sigma_c mu Zp^{-1} - S, is the predictor's plus sigma_c mu
    # times the other's.  The right-hand sides are adjoint(Ginv Rc Ginv),
    # less the dual residual b - adjoint(Zp), b = e_t, for the predictor
    Zi = _lapack(zpotrs(LZ, np.eye(len(S), dtype=complex), lower=True))[0]
    Rc = np.stack([-S, 0.5 * (Zi + Zi.conj().T)])
    Q = _congruence(Rc, Ginv)
    Q[0] += Zp
    rhs = newton.adjoint(Q.real + Q.imag)
    rhs[-1, 0] -= 1.0
    dy = newton.solve(rhs)
    if not np.isfinite(dy).all():
        raise np.linalg.LinAlgError("the Newton direction is not finite")
    dS = newton.lift(dy)
    dZ = _congruence(Rc - dS, Ginv)
    dZ = 0.5 * (dZ + dZ.conj().transpose(0, 2, 1))

    # predictor
    ap = min(1.0, 0.99 * _psd_max_step(LS, dS[0]))
    ad = min(1.0, 0.99 * _psd_max_step(LZ, dZ[0]))
    a = min(ap, ad)
    gap_aff = np.real(np.vdot(Zp + a * dZ[0], S + a * dS[0]))
    sigma_c = min(max((max(gap_aff, 0.0) / gap_inner) ** 3, 1e-8), 0.999)

    # corrector with adaptive centering, same factorization
    c = sigma_c * mu
    dS, dZ = dS[0] + c * dS[1], dZ[0] + c * dZ[1]
    ap = min(1.0, 0.98 * _psd_max_step(LS, dS))
    ad = min(1.0, 0.98 * _psd_max_step(LZ, dZ))
    if min(ap, ad) < 1e-9:
        raise np.linalg.LinAlgError(f"step {min(ap, ad):.1e} below 1e-9")
    S = S + ap * dS
    Zp = Zp + ad * dZ
    return S, _lapack(zpotrf(S, lower=True))[0], 0.5 * (Zp + Zp.conj().T)


def gamma2(F, tol: float = 1e-6) -> SDPSolution:
    """Compute gamma2(F) with a certified gap <= tol.

    The factors are the two blocks of rows of the final iterate's carried
    Cholesky factor, so F = xi eta^H and every row has norm sqrt(value).
    Raises SolverFailure (carrying the partial solution) when the gap is
    above tol after MAX_ITER iterations or after a failed step, and its
    subclass CertificateError (carrying the last iterate's partial) when a
    dual bound exceeds the value.  A start point LAPACK refuses raises
    SolverFailure without a partial: there is no iterate.
    """
    if not tol >= 0:
        raise ValueError(f"the tolerance must be nonnegative, got {tol}")
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError("gamma2 expects a square matrix")
    n = F.shape[0]
    if n > MAX_SIZE:
        raise UnsupportedSize(f"gamma2 supports n <= {MAX_SIZE}, got {n}")
    F = np.ascontiguousarray(F, dtype=complex)
    if not np.isfinite(F).all():
        raise ValueError("matrix entries must be finite")
    scale = float(np.abs(F).max()) if F.size else 0.0
    if scale == 0.0:
        zero = np.zeros((2 * n, 2 * n), dtype=complex)      # the gram and its factor
        return SDPSolution(0.0, 0.0, zero, 0, zero[:n], zero[n:], False,
                           np.zeros(n), np.zeros(n))
    F = F / scale

    # y = (hvec X, hvec Y, t) and S(y) = [[X, F], [F^H, Y]] + t I, where the
    # 2n diagonal coordinates of X and Y are pinned to 0, so every diagonal
    # entry of S is exactly t
    newton = _Newton(n)

    eye = np.eye(2 * n, dtype=complex)
    try:
        c0 = float(_svd(F, compute_uv=0)[1].max()) * 1.5 + 1.0
        S = c0 * eye
        S[:n, n:] = F
        S[n:, :n] = F.conj().T
        LS = _lapack(zpotrf(S, lower=True))[0]     # S is positive definite: c0 > ||F||_2
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"gamma2 could not start: {exc}") from exc
    Zp = eye / (2 * n)      # diagonal with trace 1: dual feasible

    best_dual = 0.0
    best_uv = (np.ones(n) / np.sqrt(n), np.ones(n) / np.sqrt(n))
    ill = False
    violation = None
    for it in range(1, MAX_ITER + 1):
        pobj = S[0, 0].real
        try:
            bound, u, v = _dual_trace_bound(F, Zp)
            # weak duality, checked on the certified pair: the primal block is
            # exactly feasible and the trace bound is valid for any PSD iterate
            if bound > pobj + 1e-9 * max(1.0, abs(pobj)):
                violation = (f"weak duality violated: dual {bound * scale} "
                             f"> primal {pobj * scale}")
                break
            if bound > best_dual:
                best_dual, best_uv = bound, (u, v)
            if closes(pobj, best_dual, 0.5 * tol / scale):
                break
            S, LS, Zp = _step(S, LS, Zp, newton)
        except np.linalg.LinAlgError:
            ill = True
            break

    L = np.sqrt(scale) * LS
    sol = SDPSolution(value=float(S[0, 0].real) * scale, dual_bound=best_dual * scale,
                      gram=scale * S, iterations=it, xi=L[:n], eta=L[n:],
                      ill_conditioned=ill, dual_u=best_uv[0], dual_v=best_uv[1])
    if violation:
        raise CertificateError(violation, partial=sol)
    if not closes(sol.value, sol.dual_bound, tol):     # a NaN gap fails too
        raise SolverFailure(
            f"gamma2 reached gap {sol.gap:.3e} > tol {tol:.1e} "
            f"after {it} iterations", partial=sol)
    return sol
