"""Norm computations on the twisted Fourier side, with certificates.

Three norms, three independent computational routes:

* the Fourier-Stieltjes norm by trace duality against the twisted group
  von Neumann algebra (an SVD),
* the completely bounded multiplier norm as the factorization norm of the
  Schur symbol sigma(t,s) phi(ts) (a semidefinite program),
* the Littlewood T2 norm as a convex sum-split: in closed form on group
  functions, where it is the l2 norm, and by ADMM on general matrices.

For a finite group the regular representation is faithful on the twisted
group algebra, so the full and reduced algebras coincide and the trace
duality value is simultaneously the A(G, sigma) and B(G, sigma) norm.
Finite groups are amenable, which forces the first two norms to agree;
amenability_report cross-validates the two pipelines on random functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import (GroupFunction, TwistedOperator, lift_matrix,
                      operator_coefficients)
from .cocycles import Cocycle, cocycle_conjugate, cocycle_product, trivial_cocycle
from .errors import CertificateError, GroupMismatch, SolverFailure
from .groups import FiniteGroup, same_group
from .littlewood import T2Split, max_row_l2, t2_split
from .sdp import SDPSolution, gamma2


@dataclass(frozen=True)
class FourierStieltjesCertificate:
    value: float
    dual_element: TwistedOperator
    singular_values: np.ndarray
    pairing_check: float
    method: str = "trace-duality"


@dataclass(frozen=True)
class MultiplierCertificate:
    value: float
    xi: np.ndarray          # sigma(t,s) phi(ts) = <xi(s), eta(t)>
    eta: np.ndarray
    dual_bound: float
    gap: float
    sdp: SDPSolution = field(repr=False, default=None)


def fourier_stieltjes_norm(phi: GroupFunction, sigma: Cocycle) -> FourierStieltjesCertificate:
    """B(G, sigma) norm by trace duality.

    Y is the unique element of VN(G, sigma) with tau(lambda(t) Y) = phi(t),
    built from the coefficients c_s = phi(s^-1) conj(sigma(s^-1, s)); the
    norm is the normalized trace norm of Y.  The certificate carries a
    contraction T in the algebra whose pairing with phi re-attains the value.
    """
    G = same_group(phi, sigma)
    n = G.order
    idx = np.arange(n)
    coeffs = phi.values[G.inv] * np.conj(sigma.values[G.inv, idx])
    Y = lift_matrix(coeffs, sigma)
    A, svals, Bh = np.linalg.svd(Y)
    value = float(svals.sum() / n)

    # approximate polar adjoint inside the algebra: T = g(|Y|) Y^H with
    # g(x) = 1 / max(x, delta); ||T|| <= 1 and tau(T Y) ~ tau(|Y|)
    delta = max(svals[0], 1.0) * 1e-13
    gvals = 1.0 / np.maximum(svals, delta)
    T = (Bh.conj().T * gvals[None, :]) @ (A * svals[None, :]).conj().T
    t_coeffs = operator_coefficients(T, sigma)
    pairing = float(abs(np.sum(t_coeffs * phi.values)))
    if pairing < value - 1e-8 * max(1.0, value):
        raise CertificateError(f"polar witness pairs to {pairing}, below the value {value}")
    dual_element = TwistedOperator(G, sigma, Y, coeffs)
    return FourierStieltjesCertificate(value=value, dual_element=dual_element,
                                       singular_values=svals,
                                       pairing_check=pairing)


def schur_symbol(phi: GroupFunction, sigma1: Cocycle, sigma2: Cocycle) -> np.ndarray:
    """F[s, t] = sigma(t, s) phi(ts) with sigma = conj(sigma1) sigma2.

    This indexing makes F the Schur mask whose entrywise action on
    B(l2(G)) implements lambda_{sigma2}(u) -> phi(u) lambda_{sigma1}(u),
    and it is the kernel the multiplier factorization produces:
    F[s, t] = <xi(s), eta(t)>.  On abelian groups it agrees with the
    (s, t)-ordered cocycle factor; on nonabelian groups only this order
    matches the trace-duality norm.
    """
    G = same_group(phi, sigma1, sigma2)
    diff = cocycle_product(cocycle_conjugate(sigma1), sigma2)
    return diff.values.T * phi.values[G.mul.T]


def cb_multiplier_norm(phi: GroupFunction, sigma1: Cocycle, sigma2: Cocycle,
                       tol: float = 1e-6, max_iter: int = 100) -> MultiplierCertificate:
    """Completely bounded (sigma1, sigma2)-multiplier norm of phi.

    Equals the Schur multiplier norm of the symbol, computed as its
    factorization norm; the certificate factorization satisfies
    sigma(t,s) phi(ts) = <xi(s), eta(t)> entrywise.
    """
    F = schur_symbol(phi, sigma1, sigma2)
    sol = gamma2(F, tol=tol, max_iter=max_iter)
    # gamma2 returns F[i][j] = <xi(j), eta(i)>; transpose the bookkeeping
    xi = sol.eta.conj()
    eta = sol.xi.conj()
    recon = xi @ eta.conj().T
    err = float(np.abs(recon - F).max())
    if err > 1e-8 * max(1.0, sol.value):
        raise CertificateError(f"factorization residual {err:.2e}", partial=sol)
    return MultiplierCertificate(value=sol.value, xi=xi, eta=eta,
                                 dual_bound=sol.dual_value, gap=sol.gap, sdp=sol)


def multiplier_apply(phi: GroupFunction, psi: GroupFunction,
                     sigma1: Cocycle, sigma2: Cocycle) -> GroupFunction:
    """m_phi(psi) = phi * psi pointwise, A(G, sigma1) -> A(G, sigma2)."""
    G = same_group(phi, psi, sigma1, sigma2)
    return GroupFunction(G, phi.values * psi.values)


def littlewood_norm(psi, tol: float = 1e-5) -> T2Split:
    return t2_split(psi, tol=tol)


def littlewood_T2_norm(phi: GroupFunction) -> T2Split:
    """T2 norm of phi, the t2 norm of f[s, t] = phi(st), in closed form.

    Every row and every column of f is a permutation of phi, so the split
    (f, 0) costs ||phi||_2, and c = conj(f) / (n ||phi||_2) has row and
    column norm sums 1 and pairs with f to ||phi||_2: the split is optimal
    and c certifies it.
    """
    f = phi.values[phi.group.mul]
    value = max_row_l2(f)
    c = f.conj() / (f.shape[0] * value) if value else np.zeros_like(f)
    dual = float(abs(np.sum(c * f)))
    return T2Split(value=value, psi1=f, psi2=np.zeros_like(f), dual_bound=dual,
                   gap=value - dual, iterations=0)


def schur_action_norm(psi: np.ndarray, contraction: np.ndarray) -> float:
    """Operator norm of the entrywise product psi o A."""
    return float(np.linalg.svd(np.asarray(psi) * np.asarray(contraction),
                               compute_uv=False)[0])


def amplified_fs_norm(coeff_block: np.ndarray, sigma: Cocycle) -> float:
    """Matrix-level Fourier-Stieltjes norm of a k x k block of functions.

    coeff_block[i, j] holds the coefficient function phi_ij; the norm is the
    normalized trace norm of the block matrix with (i, j) block Y_{phi_ji},
    which is the dual norm against M_k(VN(G, sigma)) under the pairing
    <T, Phi> = sum_ij <T_ij, Phi_ij>.
    """
    coeff_block = np.asarray(coeff_block, dtype=complex)
    k = coeff_block.shape[0]
    G = sigma.group
    n = G.order
    idx = np.arange(n)
    big = np.zeros((k * n, k * n), dtype=complex)
    for i in range(k):
        for j in range(k):
            phi = coeff_block[j, i]   # block (i, j) carries Y of phi_{ji}
            c = phi[G.inv] * np.conj(sigma.values[G.inv, idx])
            big[i * n:(i + 1) * n, j * n:(j + 1) * n] = lift_matrix(c, sigma)
    return float(np.linalg.svd(big, compute_uv=False).sum() / n)


@dataclass(frozen=True)
class AmenabilitySample:
    sample_id: int
    seed: int
    b_norm: float
    cb_norm: float
    rel_gap: float
    sdp_gap: float
    wall_time_ms: float
    status: str = "ok"


@dataclass(frozen=True)
class AmenabilityReport:
    group_order: int
    cocycle_m: int
    n_samples: int
    seed: int
    tol: float
    samples: tuple
    max_rel_gap: float
    inclusion_violations: int

    def to_json(self) -> dict:
        return {
            "group_order": self.group_order,
            "cocycle_m": self.cocycle_m,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "tol": self.tol,
            "max_rel_gap": self.max_rel_gap,
            "inclusion_violations": self.inclusion_violations,
            "samples": [vars(s) for s in self.samples],
        }


CSV_COLUMNS = ("sample_id", "seed", "b_norm", "cb_norm", "rel_gap",
               "sdp_gap", "wall_time_ms")


def amenability_report(group: FiniteGroup, sigma: Cocycle, n_samples: int,
                       seed: int, tol: float = 1e-6) -> AmenabilityReport:
    """Cross-validate trace duality against the multiplier SDP.

    For seeded complex Gaussian phi the B(G, sigma) norm and the
    cb multiplier norm from A(G) to A(G, sigma) must agree (finite groups
    are amenable); the report records both values, the relative gap, and
    whether the contractive inclusion cb <= b + tol ever fails.  Solver
    failures are recorded per sample without aborting the batch.
    """
    if sigma.group != group:
        raise GroupMismatch("cocycle does not live on the group")
    triv = trivial_cocycle(group)

    def one(k: int):
        rng = np.random.default_rng([seed, k])
        vals = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        phi = GroupFunction(group, vals)
        t0 = time.perf_counter()
        b = fourier_stieltjes_norm(phi, sigma).value
        try:
            cert = cb_multiplier_norm(phi, triv, sigma, tol=tol)
            cb, sdp_gap, status = cert.value, cert.gap, "ok"
        except SolverFailure as exc:
            part = exc.partial
            cb = part.value if part is not None else float("nan")
            sdp_gap = part.gap if part is not None else float("nan")
            status = "solver_failure"
        ms = (time.perf_counter() - t0) * 1e3
        rel = abs(b - cb) / max(b, 1e-12)
        return AmenabilitySample(sample_id=k, seed=seed, b_norm=b, cb_norm=cb,
                                 rel_gap=rel, sdp_gap=sdp_gap,
                                 wall_time_ms=ms, status=status)

    samples = [one(k) for k in range(n_samples)]

    ok = [s for s in samples if s.status == "ok"]
    max_rel = max((s.rel_gap for s in ok), default=0.0)
    violations = sum(1 for s in ok if s.cb_norm > s.b_norm + tol)
    return AmenabilityReport(group_order=group.order, cocycle_m=sigma.m,
                             n_samples=n_samples, seed=seed, tol=tol,
                             samples=tuple(samples), max_rel_gap=max_rel,
                             inclusion_violations=violations)


def certificate_to_json(cert, wall_time_ms: Optional[float] = None) -> dict:
    """JSON form of any of the three certificates, witnesses included."""
    def carr(a):
        a = np.asarray(a)
        return [[float(z.real), float(z.imag)] for z in a.reshape(-1)], list(a.shape)

    if isinstance(cert, FourierStieltjesCertificate):
        flat, shape = carr(cert.dual_element.matrix)
        doc = {"norm": "fourier-stieltjes", "label": "A=B (finite group)",
               "value": cert.value, "method": cert.method,
               "singular_values": [float(s) for s in cert.singular_values],
               "pairing_check": cert.pairing_check,
               "dual_element": {"shape": shape, "entries": flat}}
    elif isinstance(cert, MultiplierCertificate):
        xi_flat, xi_shape = carr(cert.xi)
        eta_flat, eta_shape = carr(cert.eta)
        doc = {"norm": "cb-multiplier", "value": cert.value,
               "dual_bound": cert.dual_bound, "gap": cert.gap,
               "iterations": cert.sdp.iterations if cert.sdp else None,
               "xi": {"shape": xi_shape, "entries": xi_flat},
               "eta": {"shape": eta_shape, "entries": eta_flat}}
    elif isinstance(cert, T2Split):
        p1, s1 = carr(cert.psi1)
        p2, s2 = carr(cert.psi2)
        doc = {"norm": "littlewood-t2", "value": cert.value,
               "dual_bound": cert.dual_bound, "gap": cert.gap,
               "iterations": cert.iterations,
               "budget_exhausted": cert.budget_exhausted,
               "psi1": {"shape": s1, "entries": p1},
               "psi2": {"shape": s2, "entries": p2}}
    else:
        raise TypeError(f"unknown certificate type {type(cert)!r}")
    if wall_time_ms is not None:
        doc["wall_time_ms"] = wall_time_ms
    return doc
