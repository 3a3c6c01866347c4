"""Littlewood sum-split norm t2 of a general matrix by ADMM.

t2(psi) = inf { maxrow_l2(psi1) + maxcol_l2(psi2) : psi = psi1 + psi2 }.

Primal splits come from ADMM with exact proximal steps (the prox of a
max-of-row-norms term is a group soft threshold via projection onto the dual
ball).  The row step is over-relaxed, h = ALPHA psi1 + (1 - ALPHA)(P - psi2)
with ALPHA = 1.8 (Eckstein & Bertsekas, Math. Program. 1992; Boyd et al.,
FnT ML 2011, section 3.4.3), and h replaces psi1 in the column step and the
multiplier update.  The penalty rho is tuned by residual balancing (Boyd et
al., section 3.4.1): at every certificate check rho doubles when the primal
residual ||h + psi2 - P|| of the relaxed iterate (the change of U) exceeds MU
times the dual one, rho ||change of psi2||, and halves in the opposite case.
rho starts at the power of two nearest 1 / sqrt(max(rows, cols)), near where
balancing settles.

One step is a map T(psi2, U), Anderson accelerated with memory MEMORY
(Walker & Ni, SIAM J. Numer. Anal. 2011; Fu, Zhang & Boyd, SIAM J. Sci.
Comput. 2020).  T is evaluated once per step, at the extrapolated point, and
that is also the safeguard: the point is kept when its residual T(x) - x is
no larger than that of the last iterate z; otherwise the next step starts
from T(z), already computed, and the memory is cleared, as it is when
balancing changes rho; a check on a dropped point does not balance.

Lower bounds come from the dual characterization

    t2(psi) = sup { |<psi, c>| : sum_s ||row_s c||_2 <= 1
                                 and sum_t ||col_t c||_2 <= 1 },

where any feasible c certifies, so the reported gap is a true certificate.
The dual candidate is the ADMM multiplier -rho * U, rescaled into the
feasible set and shrunk by a rounding bound, so the computed dual bound never
exceeds the computed value.
psi1 and U are read from the output of a real step, never from an
extrapolated point, so acceleration cannot make a bracket unsound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHECK_EVERY = 50        # ADMM steps between certificate checks
MAX_ITER = 40000        # ADMM step budget
MU, TAU = 10.0, 2.0     # residual balancing: scale rho by TAU when one
                        # residual exceeds MU times the other
ALPHA = 1.8             # over-relaxation of the row step
MEMORY = 5              # Anderson memory: differences kept for extrapolation


@dataclass(frozen=True, eq=False)
class Bracket:
    """A certified bracket: the norm lies in [dual_bound, value]."""

    value: float
    dual_bound: float

    @property
    def gap(self) -> float:
        return self.value - self.dual_bound


def closes(value: float, dual_bound: float, tol: float) -> bool:
    """The one closure rule of both solvers: the bracket is at most tol wide."""
    return value - dual_bound <= tol


@dataclass(frozen=True, eq=False)
class T2Split(Bracket):
    """psi = psi1 + psi2 with dual_bound <= t2(psi) <= value: m x n from t2_split, or
    psi1 = phi, psi2 = 0 of shape [n] (lifted by G.mul) from norms.littlewood_T2_norm."""

    psi1: np.ndarray
    psi2: np.ndarray
    iterations: int
    budget_exhausted: bool = False


def _l2(M, axis: int) -> np.ndarray:
    """The l2 norms of M's rows (axis 1) or columns (axis 0)."""
    return np.sqrt((np.abs(M) ** 2).sum(axis=axis))


def max_row_l2(M) -> float:
    return float(_l2(M, 1).max(initial=0.0))


def max_col_l2(M) -> float:
    return float(_l2(M, 0).max(initial=0.0))


def _ball_scales(r: np.ndarray, radius: float):
    """Scales that project magnitudes r >= 0 onto the l1 ball of the given
    radius, or None when r is already inside it."""
    if r.sum() <= radius:
        return None
    u = np.sort(r)[::-1]
    css = np.cumsum(u) - radius
    # u_k > css_k / k holds exactly for a prefix of k, so counting finds its end
    p = np.count_nonzero(u - css / np.arange(1, r.size + 1) > 0)
    tau = css[p - 1] / p
    return np.divide(np.maximum(r - tau, 0.0), r, out=np.zeros_like(r), where=r > 0)


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def rounding_shrink(k: int) -> float:
    """1 - gamma_k, where gamma_k = k u / (1 - k u) bounds the relative error
    of k roundings (Higham, ch. 3); a dual witness scaled by it stays
    feasible, and pairs to at most the value, when computed in floating point."""
    ku = k * _UNIT_ROUNDOFF
    return 1.0 - ku / (1.0 - ku)


def _dual_feasible(C: np.ndarray) -> np.ndarray:
    """The dual witness c of a multiplier C: C over the larger of its row and
    column norm sums, shrunk by gamma_k; an all-zero C is returned as it is.

    For m x n C the norm sums and entries of c take m + n + 3 roundings, the
    pairing with P (t2 ignores phases, so |c| and |P| bound it), as m row
    sums and then their total, m + n + 3, a split's value max(m, n) + 4 and
    the rescaling 2, so k = 3(m + n) + 16 keeps the computed dual bound at
    most the value.
    """
    denom = max(float(_l2(C, 1).sum()), float(_l2(C, 0).sum()))
    if not denom:
        return C
    return C * (rounding_shrink(3 * sum(C.shape) + 16) / denom)


def _bracket(P: np.ndarray, psi1: np.ndarray, C: np.ndarray):
    """The value of the split (psi1, P - psi1) and the dual bound |sum conj(c) P|
    of the witness c of the multiplier C."""
    c = _dual_feasible(C)
    return (max_row_l2(psi1) + max_col_l2(P - psi1),
            float(abs((c.conj() * P).sum(axis=1).sum())))


def _admm_step(P: np.ndarray, Z: np.ndarray, rho: float):
    """One over-relaxed ADMM step T from Z = (psi2, U); returns T(Z) and psi1."""
    psi2, U = Z
    # the prox of maxrow_l2 / rho at V is V minus the projection of V onto
    # the dual ball of radius 1 / rho (Moreau), and likewise for columns
    V = P - psi2 - U
    s = _ball_scales(_l2(V, 1), 1.0 / rho)
    psi1 = np.zeros_like(V) if s is None else V - V * s[:, None]
    h = ALPHA * psi1 + (1 - ALPHA) * (P - psi2)
    V = P - h - U
    s = _ball_scales(_l2(V, 0), 1.0 / rho)
    psi2 = np.zeros_like(V) if s is None else V - V * s[None, :]
    return np.stack([psi2, U + h + psi2 - P]), psi1


def t2_split(psi, tol: float = 1e-5) -> T2Split:
    """Certified split of psi; gap <= tol, or budget_exhausted with the gap reached."""
    if not tol >= 0:
        raise ValueError(f"the tolerance must be nonnegative, got {tol}")
    psi = np.ascontiguousarray(psi, dtype=complex)
    if psi.ndim != 2:
        raise ValueError("t2_split expects a matrix")
    if not np.isfinite(psi).all():
        raise ValueError("matrix entries must be finite")
    scale = float(np.abs(psi).max()) if psi.size else 0.0
    if scale == 0.0:
        return T2Split(value=0.0, dual_bound=0.0, psi1=np.zeros_like(psi),
                       psi2=np.zeros_like(psi), iterations=0)
    P = psi / scale

    X = np.stack([0.5 * P, np.zeros_like(P)])   # the point T is applied to
    # a power of two near where balancing settles, so U rescales exactly
    rho = 2.0 ** np.round(np.log2(1 / np.sqrt(max(P.shape))))
    # Anderson memory, rings over real views: differences of T(z) and of
    # f = T(z) - z between consecutive iterates z, and the Gram matrix of dF
    dG, dF = np.empty((2, MEMORY, 2 * X.size))
    gram = np.empty((MEMORY, MEMORY))
    stored, last = 0, None      # differences stored; tz, f, |f| of the last z
    bound = np.inf              # residual the point X must not exceed
    best_value, best_psi1, best_dual = np.inf, X[0], 0.0
    for it in range(1, MAX_ITER + 1):
        TX, psi1 = _admm_step(P, X, rho)
        tx = TX.reshape(-1).view(float)
        f = tx - X.reshape(-1).view(float)
        fnorm = np.sqrt(f @ f)
        accepted = fnorm <= bound
        if accepted:
            # X is the next iterate z; extend the memory from the last one
            if last is not None:
                j, stored = stored % MEMORY, stored + 1
                np.subtract(tx, last[0], out=dG[j])
                np.subtract(f, last[1], out=dF[j])
                k = min(stored, MEMORY)
                gram[j, :k] = gram[:k, j] = dF[:k] @ dF[j]
            last, plain = (tx, f, fnorm), TX
        else:
            # the extrapolation failed the safeguard: fall back to T(z)
            stored, last = 0, None
        if it % CHECK_EVERY == 0 or it == MAX_ITER:
            # the multiplier is rho * U; its negative, rescaled, is dual feasible
            cand, dual = _bracket(P, psi1, -rho * TX[1])
            if cand < best_value:
                best_value, best_psi1 = cand, psi1
            best_dual = max(best_dual, dual)
            if closes(best_value, best_dual, 0.5 * tol / scale):
                break
            # residual balancing on the halves of f, the changes of psi2 and
            # U; TAU is a power of two, so U rescales exactly
            rd, rp = np.sqrt((f.reshape(2, -1) ** 2).sum(axis=1)) * (rho, 1.0)
            if accepted and (rp > MU * rd or rd > MU * rp):
                factor = TAU if rp > MU * rd else 1 / TAU
                rho = rho * factor
                plain[1] /= factor
                stored, last = 0, None
        k = min(stored, MEMORY)
        if k:
            # gamma minimizes |f - dF^T gamma| by its k x k normal equations;
            # a tiny ridge keeps them solvable when the differences are dependent
            A = gram[:k, :k].copy()
            A.flat[::k + 1] += 1e-12 * A.trace() + np.finfo(float).tiny
            gamma = np.linalg.solve(A, dF[:k] @ last[1])
            X = (last[0] - gamma @ dG[:k]).view(complex).reshape(TX.shape)
            bound = last[2]
        else:
            X, bound = plain, np.inf

    value, dual = best_value * scale, best_dual * scale
    psi1_out = best_psi1 * scale
    return T2Split(value=value, dual_bound=dual, psi1=psi1_out, psi2=psi - psi1_out,
                   iterations=it, budget_exhausted=not closes(value, dual, tol))
