"""Littlewood sum-split norm t2 by a first-order primal-dual method.

t2(psi) = inf { maxrow_l2(psi1) + maxcol_l2(psi2) : psi = psi1 + psi2 }.

Primal splits come from ADMM with exact proximal steps (the prox of a
max-of-row-norms term is a group soft threshold via projection onto the
dual ball).  Lower bounds come from the dual characterization

    t2(psi) = sup { |<psi, c>| : sum_s ||row_s c||_2 <= 1
                                 and sum_t ||col_t c||_2 <= 1 },

where any feasible c certifies, so the reported gap is a true certificate.
The ADMM multiplier seeds the dual candidate and is polished by projected
supergradient ascent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure


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


def _prox_maxrow(V: np.ndarray, lam: float) -> np.ndarray:
    """prox of lam * maxrow_l2 at V, via Moreau and the dual-ball projection."""
    return V - lam * _project_row_dual_ball(V / lam)

def _prox_maxcol(V: np.ndarray, lam: float) -> np.ndarray:
    return V - lam * _project_col_dual_ball(V / lam)


def _dual_feasible(C: np.ndarray) -> np.ndarray:
    denom = max(1.0,
                float(np.sqrt((np.abs(C) ** 2).sum(axis=1)).sum()),
                float(np.sqrt((np.abs(C) ** 2).sum(axis=0)).sum()))
    return C / denom


def t2_split(psi, tol: float = 1e-5, max_iter: int = 40000,
             check_every: int = 50) -> T2Split:
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

    rho = 1.0
    psi1 = 0.5 * P
    psi2 = 0.5 * P
    U = np.zeros_like(P)
    best_value = np.inf
    best_psi1 = psi1.copy()
    best_dual = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        psi1 = _prox_maxrow(P - psi2 - U, 1.0 / rho)
        psi2 = _prox_maxcol(P - psi1 - U, 1.0 / rho)
        U = U + psi1 + psi2 - P
        if it % check_every == 0 or it == max_iter:
            cand1 = psi1
            cand_value = max_row_l2(cand1) + max_col_l2(P - cand1)
            if cand_value < best_value:
                best_value = cand_value
                best_psi1 = cand1.copy()
            C = _dual_feasible(-rho * U)
            best_dual = max(best_dual, abs(np.vdot(C, P)))
            if best_value - best_dual <= 0.5 * tol / scale:
                break

    # polish the dual certificate by projected supergradient ascent
    C = _dual_feasible(-rho * U)
    phase = np.vdot(C, P)
    if abs(phase) > 0:
        C = C * (phase / abs(phase))
    step0 = 1.0 / max(1.0, np.linalg.norm(P))
    for k in range(1, 201):
        C = _dual_feasible(C + (step0 / np.sqrt(k)) * P)
        best_dual = max(best_dual, abs(np.vdot(C, P)))
        if best_value - best_dual <= 0.25 * tol / scale:
            break

    value = best_value * scale
    dual = best_dual * scale
    gap = value - dual
    psi1_out = best_psi1 * scale
    psi2_out = psi - psi1_out
    return T2Split(value=value, psi1=psi1_out, psi2=psi2_out,
                   dual_bound=dual, gap=gap, iterations=it,
                   budget_exhausted=bool(gap > tol))
