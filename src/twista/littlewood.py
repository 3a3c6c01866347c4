"""Littlewood sum-split norm t2 of a general matrix by ADMM.

t2(psi) = inf { maxrow_l2(psi1) + maxcol_l2(psi2) : psi = psi1 + psi2 }.

Primal splits come from ADMM with unit penalty and exact proximal steps (the
prox of a max-of-row-norms term is a group soft threshold via projection
onto the dual ball).  Lower bounds come from the dual characterization

    t2(psi) = sup { |<psi, c>| : sum_s ||row_s c||_2 <= 1
                                 and sum_t ||col_t c||_2 <= 1 },

where any feasible c certifies, so the reported gap is a true certificate.
The dual candidate is the ADMM multiplier, rescaled into the feasible set.
On group functions the norm has a closed form (``norms.littlewood_T2_norm``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

CHECK_EVERY = 50        # ADMM steps between certificate checks
MAX_ITER = 40000        # ADMM step budget


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


def _project_l1_ball(r: np.ndarray) -> np.ndarray:
    """Scales for projecting a vector of nonnegative magnitudes onto the l1 ball."""
    total = r.sum()
    if total <= 1.0:
        return np.ones_like(r)
    u = np.sort(r)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, r.size + 1)
    cond = u - css / k > 0
    rho = np.max(np.flatnonzero(cond)) + 1
    tau = css[rho - 1] / rho
    shrunk = np.clip(r - tau, 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        scales = np.where(r > 0, shrunk / np.where(r > 0, r, 1.0), 0.0)
    return scales


def _project_row_dual_ball(C: np.ndarray) -> np.ndarray:
    """Project onto { C : sum_s ||row_s||_2 <= 1 } (group-l1 over rows)."""
    r = np.sqrt((np.abs(C) ** 2).sum(axis=1))
    return C * _project_l1_ball(r)[:, None]


def _project_col_dual_ball(C: np.ndarray) -> np.ndarray:
    r = np.sqrt((np.abs(C) ** 2).sum(axis=0))
    return C * _project_l1_ball(r)[None, :]


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

    # the prox of maxrow_l2 at V is V minus the projection of V onto the
    # dual ball (Moreau), and likewise for columns
    psi2 = 0.5 * P
    U = np.zeros_like(P)
    best_value, best_psi1, best_dual = np.inf, psi2, 0.0
    for it in range(1, MAX_ITER + 1):
        V = P - psi2 - U
        psi1 = V - _project_row_dual_ball(V)
        V = P - psi1 - U
        psi2 = V - _project_col_dual_ball(V)
        U = U + psi1 + psi2 - P
        if it % CHECK_EVERY == 0 or it == MAX_ITER:
            cand = max_row_l2(psi1) + max_col_l2(P - psi1)
            if cand < best_value:
                best_value, best_psi1 = cand, psi1
            best_dual = max(best_dual, abs(np.vdot(_dual_feasible(-U), P)))
            if best_value - best_dual <= 0.5 * tol / scale:
                break

    value = best_value * scale
    dual = best_dual * scale
    gap = value - dual
    psi1_out = best_psi1 * scale
    return T2Split(value=value, psi1=psi1_out, psi2=psi - psi1_out,
                   dual_bound=dual, gap=gap, iterations=it,
                   budget_exhausted=bool(gap > tol))
