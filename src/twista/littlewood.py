"""Littlewood sum-split norm t2 of a general matrix by ADMM.

t2(psi) = inf { maxrow_l2(psi1) + maxcol_l2(psi2) : psi = psi1 + psi2 }.

Primal splits come from ADMM with exact proximal steps (the prox of a
max-of-row-norms term is a group soft threshold via projection onto the dual
ball).  The row step is over-relaxed, h = ALPHA psi1 + (1 - ALPHA)(P - psi2)
with ALPHA = 1.8 (Eckstein & Bertsekas, Math. Program. 1992; Boyd et al.,
FnT ML 2011, section 3.4.3), and h replaces psi1 in the column step and the
multiplier update.  The penalty rho is tuned by residual balancing (Boyd et
al., section 3.4.1): at every certificate check rho doubles when the primal
residual ||h + psi2 - P|| of the relaxed iterate exceeds MU times the dual
one and halves in the opposite case.  rho starts at the power of two nearest
1 / sqrt(max(rows, cols)), near where balancing settles.
Lower bounds come from the dual characterization

    t2(psi) = sup { |<psi, c>| : sum_s ||row_s c||_2 <= 1
                                 and sum_t ||col_t c||_2 <= 1 },

where any feasible c certifies, so the reported gap is a true certificate.
The dual candidate is the ADMM multiplier -rho * U, rescaled into the
feasible set.
On group functions the norm has a closed form (``norms.littlewood_T2_norm``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

CHECK_EVERY = 50        # ADMM steps between certificate checks
MAX_ITER = 40000        # ADMM step budget
MU, TAU = 10.0, 2.0     # residual balancing: scale rho by TAU when one
                        # residual exceeds MU times the other
ALPHA = 1.8             # over-relaxation of the row step


@dataclass(frozen=True)
class T2Split:
    value: float
    psi1: np.ndarray
    psi2: np.ndarray
    dual_bound: float
    gap: float
    iterations: int
    budget_exhausted: bool = False


def max_row_l2(M) -> float:
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.sqrt((np.abs(M) ** 2).sum(axis=1)).max())


def max_col_l2(M) -> float:
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.sqrt((np.abs(M) ** 2).sum(axis=0)).max())


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


def _dual_feasible(C: np.ndarray) -> np.ndarray:
    denom = max(1.0,
                float(np.sqrt((np.abs(C) ** 2).sum(axis=1)).sum()),
                float(np.sqrt((np.abs(C) ** 2).sum(axis=0)).sum()))
    return C / denom


def t2_split(psi, tol: float = 1e-5) -> T2Split:
    """Certified split of psi; gap <= tol, or budget_exhausted with the gap reached."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    if psi.ndim != 2:
        raise ValueError("t2_split expects a matrix")
    if not np.isfinite(psi).all():
        raise SolverFailure("matrix entries must be finite")
    scale = float(np.abs(psi).max()) if psi.size else 0.0
    if scale == 0.0:
        z = np.zeros_like(psi)
        return T2Split(0.0, z, z, 0.0, 0.0, 0)
    P = psi / scale

    # the prox of maxrow_l2 / rho at V is V minus the projection of V onto
    # the dual ball of radius 1 / rho (Moreau), and likewise for columns
    psi2 = 0.5 * P
    U = np.zeros_like(P)
    # a power of two near where balancing settles, so U rescales exactly
    rho = 2.0 ** np.round(np.log2(1 / np.sqrt(max(P.shape))))
    best_value, best_psi1, best_dual = np.inf, psi2, 0.0
    for it in range(1, MAX_ITER + 1):
        V = P - psi2 - U
        s = _ball_scales(np.sqrt((np.abs(V) ** 2).sum(axis=1)), 1.0 / rho)
        psi1 = np.zeros_like(V) if s is None else V - V * s[:, None]
        h = ALPHA * psi1 + (1 - ALPHA) * (P - psi2)
        V = P - h - U
        s = _ball_scales(np.sqrt((np.abs(V) ** 2).sum(axis=0)), 1.0 / rho)
        prev, psi2 = psi2, np.zeros_like(V) if s is None else V - V * s[None, :]
        U = U + h + psi2 - P
        if it % CHECK_EVERY == 0 or it == MAX_ITER:
            cand = max_row_l2(psi1) + max_col_l2(P - psi1)
            if cand < best_value:
                best_value, best_psi1 = cand, psi1
            # the multiplier is rho * U; its negative, rescaled, is dual feasible
            best_dual = max(best_dual, abs(np.vdot(_dual_feasible(-rho * U), P)))
            if best_value - best_dual <= 0.5 * tol / scale:
                break
            # residual balancing; TAU is a power of two, so U rescales exactly
            # the primal residual of the relaxed iterate h, not of psi1
            rp = np.linalg.norm(h + psi2 - P)
            rd = rho * np.linalg.norm(psi2 - prev)
            if rp > MU * rd:
                rho, U = rho * TAU, U / TAU
            elif rd > MU * rp:
                rho, U = rho / TAU, U * TAU

    value = best_value * scale
    dual = best_dual * scale
    gap = value - dual
    psi1_out = best_psi1 * scale
    return T2Split(value=value, psi1=psi1_out, psi2=psi - psi1_out,
                   dual_bound=dual, gap=gap, iterations=it,
                   budget_exhausted=bool(gap > tol))
