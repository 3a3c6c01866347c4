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

import numpy as np

from .algebra import (GroupFunction, TwistedOperator, complex_entries, lift_matrix,
                      operator_coefficients)
from .cocycles import Cocycle, cocycle_conjugate, cocycle_product, trivial_cocycle
from .errors import CertificateError, SolverFailure, UnsupportedSize
from .groups import same_group
from .littlewood import Bracket, T2Split, _bracket, t2_split


def __getattr__(name):
    # sdp imports scipy, which loads with the first SDP solve; the names are
    # looked up afresh, never cached, so they follow a rebound sdp.gamma2.
    # twista/__init__ reuses this function, so its error names the package.
    if name in ("SDPSolution", "gamma2"):
        from . import sdp
        return getattr(sdp, name)
    raise AttributeError(f"twista has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class FourierStieltjesCertificate:
    value: float
    dual_element: TwistedOperator
    singular_values: np.ndarray
    pairing_check: float


@dataclass(frozen=True, eq=False)
class MultiplierCertificate(Bracket):
    xi: np.ndarray          # sigma(t,s) phi(ts) = <xi(s), eta(t)>
    eta: np.ndarray
    sdp: SDPSolution = field(repr=False)

    @classmethod
    def of(cls, sol: SDPSolution) -> MultiplierCertificate:
        """The certificate a gamma2 solution states, a failed solve's partial included."""
        return cls(value=sol.value, dual_bound=sol.dual_bound, xi=sol.xi, eta=sol.eta,
                   sdp=sol)


def _dual_coefficients(values: np.ndarray, sigma: Cocycle) -> np.ndarray:
    """c_s = phi(s^-1) conj(sigma(s^-1, s)) for phi = values[..., :], over leading axes."""
    G = sigma.group
    return values[..., G.inv] * np.conj(sigma.values[G.inv, np.arange(G.order)])


def fourier_stieltjes_norm(phi: GroupFunction, sigma: Cocycle) -> FourierStieltjesCertificate:
    """B(G, sigma) norm by trace duality.

    Y is the unique element of VN(G, sigma) with tau(lambda(t) Y) = phi(t),
    built from the coefficients c_s = phi(s^-1) conj(sigma(s^-1, s)); the
    norm is the normalized trace norm of Y.  The certificate carries a
    contraction T in the algebra whose pairing with phi re-attains the value.
    """
    G = same_group(phi, sigma)
    n = G.order
    dual_element = TwistedOperator(sigma, _dual_coefficients(phi.values, sigma))
    Y = dual_element.matrix
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
                       tol: float = 1e-6) -> MultiplierCertificate:
    """Completely bounded (sigma1, sigma2)-multiplier norm of phi.

    Equals the Schur multiplier norm of the symbol, computed as its
    factorization norm; the certificate factorization satisfies
    sigma(t,s) phi(ts) = <xi(s), eta(t)> entrywise.
    """
    from . import sdp
    F = schur_symbol(phi, sigma1, sigma2)
    sol = sdp.gamma2(F, tol=tol)
    err = float(np.abs(sol.xi @ sol.eta.conj().T - F).max())
    if err > 1e-8 * max(1.0, sol.value):
        raise CertificateError(f"factorization residual {err:.2e}", partial=sol)
    return MultiplierCertificate.of(sol)


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
    (f, 0) costs ||phi||_2, and the witness c = f / (n ||phi||_2) of the
    multiplier f has row and column norm sums 1 and pairs with f to
    sum conj(c) f = ||phi||_2: the split is optimal and c certifies it.
    Both ends come from the ADMM's own certificate check at (f, 0), whose
    rounding shrink keeps the computed dual bound at most the value.
    """
    f = phi.values[phi.group.mul]
    value, dual = _bracket(f, f, f)
    return T2Split(value=value, dual_bound=dual, psi1=phi.values,
                   psi2=np.zeros_like(phi.values), iterations=0)


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
    k, n = coeff_block.shape[0], sigma.group.order
    # block (i, j) carries Y of phi_{ji}
    Y = lift_matrix(_dual_coefficients(coeff_block.transpose(1, 0, 2), sigma), sigma)
    big = Y.transpose(0, 2, 1, 3).reshape(k * n, k * n)
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
    """Written as dataclasses.asdict(report): the field order is the key order."""

    group_order: int
    cocycle_m: int
    n_samples: int
    seed: int
    tol: float
    max_rel_gap: float
    inclusion_violations: int
    samples: tuple


CSV_COLUMNS = ("sample_id", "seed", "b_norm", "cb_norm", "rel_gap",
               "sdp_gap", "wall_time_ms")


def amenability_report(sigma: Cocycle, n_samples: int, seed: int,
                       tol: float = 1e-6) -> AmenabilityReport:
    """Cross-validate trace duality against the multiplier SDP on sigma's group.

    For seeded complex Gaussian phi the B(G, sigma) norm and the
    cb multiplier norm from A(G) to A(G, sigma) must agree (finite groups
    are amenable); the report records both values, the relative gap, and
    whether the contractive inclusion cb <= b + tol ever fails.  Solver
    failures are recorded per sample without aborting the batch.  A negative
    n_samples, or a NaN or negative tol, raises ValueError; zero samples
    give an empty report.  A group above sdp.MAX_SIZE raises UnsupportedSize
    before any sample, whatever n_samples is.
    """
    if n_samples < 0:
        raise ValueError(f"the sample count must be nonnegative, got {n_samples}")
    if not tol >= 0:
        raise ValueError(f"the tolerance must be nonnegative, got {tol}")
    from . import sdp
    group = sigma.group
    if group.order > sdp.MAX_SIZE:
        raise UnsupportedSize(f"the report solves gamma2 on |G| <= {sdp.MAX_SIZE}, "
                              f"got {group.order}")
    triv = trivial_cocycle(group)

    def one(k: int):
        rng = np.random.default_rng([seed, k])
        vals = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        phi = GroupFunction(group, vals)
        t0 = time.perf_counter()
        b = fourier_stieltjes_norm(phi, sigma).value
        try:
            cb, status = cb_multiplier_norm(phi, triv, sigma, tol=tol), "ok"
        except SolverFailure as exc:
            cb, status = exc.partial or Bracket(float("nan"), float("nan")), "solver_failure"
        ms = (time.perf_counter() - t0) * 1e3
        rel = abs(b - cb.value) / max(b, 1e-12)
        return AmenabilitySample(sample_id=k, seed=seed, b_norm=b, cb_norm=cb.value,
                                 rel_gap=rel, sdp_gap=cb.gap,
                                 wall_time_ms=ms, status=status)

    samples = [one(k) for k in range(n_samples)]

    ok = [s for s in samples if s.status == "ok"]
    max_rel = max((s.rel_gap for s in ok), default=0.0)
    violations = sum(1 for s in ok if s.cb_norm > s.b_norm + tol)
    return AmenabilityReport(group_order=group.order, cocycle_m=sigma.m,
                             n_samples=n_samples, seed=seed, tol=tol,
                             samples=tuple(samples), max_rel_gap=max_rel,
                             inclusion_violations=violations)


def certificate_to_json(cert) -> dict:
    """JSON form of any of the three certificates, witnesses included.

    An array is written as {"shape", "entries"} with [re, im] entries.  The
    Fourier-Stieltjes dual element Y = sum c_s lambda_sigma(s) is written as
    its n coefficients c_s; lift_matrix(c, sigma) gives its matrix back.
    """
    def array(a):
        return {"shape": list(np.shape(a)), "entries": complex_entries(a)}

    if isinstance(cert, FourierStieltjesCertificate):
        return {"norm": "fourier-stieltjes", "label": "A=B (finite group)",
                "value": cert.value, "method": "trace-duality",
                "singular_values": cert.singular_values.tolist(),
                "pairing_check": cert.pairing_check,
                "dual_element": array(cert.dual_element.coeffs)}
    if isinstance(cert, MultiplierCertificate):
        sol = cert.sdp
        # dual_bound is the trace norm of diag(dual_u) xi eta^H diag(dual_v)
        return {"norm": "cb-multiplier", "value": cert.value,
                "dual_bound": cert.dual_bound, "gap": cert.gap,
                "iterations": sol.iterations,
                "ill_conditioned": sol.ill_conditioned,
                "dual_u": sol.dual_u.tolist(),
                "dual_v": sol.dual_v.tolist(),
                "xi": array(cert.xi), "eta": array(cert.eta)}
    if isinstance(cert, T2Split):
        return {"norm": "littlewood-t2", "value": cert.value,
                "dual_bound": cert.dual_bound, "gap": cert.gap,
                "iterations": cert.iterations,
                "budget_exhausted": cert.budget_exhausted,
                "psi1": array(cert.psi1), "psi2": array(cert.psi2)}
    raise TypeError(f"unknown certificate type {type(cert)!r}")
