"""Positive definiteness with respect to a cocycle: kernel tests and GNS.

Two independent routes to the same property are kept deliberately separate:
the translation-kernel eigenvalue test (is_sigma_pd) and the positive-type
pairing computed through twisted convolution (positive_type_value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (GroupFunction, regular_rep_tensor, twisted_convolve,
                      twisted_involution)
from .cocycles import Cocycle
from .errors import (DegenerateState, DimensionMismatch, NotPositiveDefinite,
                     ZeroVector)
from .groups import same_group

PSD_TOL = 1e-10
GNS_RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GNSResult:
    dim: int
    rep: np.ndarray        # (|G|, dim, dim) unitaries
    cyclic: np.ndarray     # unit vector of length dim
    residual: float        # max |<pi(s) xi, xi> - phi(s)|


def pd_kernel(phi: GroupFunction, sigma: Cocycle) -> np.ndarray:
    """Translation kernel K[s, t] = conj(sigma(s, s^-1)) phi(s^-1 t) sigma(s^-1, t).

    Rows and columns follow the element indices, so K is reproducible.
    """
    G = same_group(phi, sigma)
    idx = np.arange(G.order)
    sinv_t = G.mul[G.inv]                     # [s, t] = s^-1 t
    return (np.conj(sigma.values[idx, G.inv])[:, None]   # conj sigma(s, s^-1)
            * phi.values[sinv_t]                         # phi(s^-1 t)
            * sigma.values[G.inv])                       # sigma(s^-1, t)


def _pd_decision(K: np.ndarray, w: np.ndarray) -> bool:
    """K is Hermitian and PSD, w the spectrum of its Hermitian part, both up to
    PSD_TOL scaled by the kernel operator norm (scale-free threshold)."""
    scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    hermitian_defect = float(np.abs(K - K.conj().T).max())
    return bool(w.min() >= -PSD_TOL * scale and hermitian_defect <= PSD_TOL * scale * 10)


def is_sigma_pd(phi: GroupFunction, sigma: Cocycle):
    """(decision, min eigenvalue of the Hermitian part of the kernel), by _pd_decision."""
    K = pd_kernel(phi, sigma)
    w = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
    return _pd_decision(K, w), float(w.min())


def positive_type_value(phi: GroupFunction, sigma: Cocycle, f: GroupFunction) -> complex:
    """<lift(f* *_sigma f), phi> = sum_s (f* *_sigma f)(s) phi(s).

    Computed through convolution and involution only; independent of the
    kernel assembly above.
    """
    g = twisted_convolve(twisted_involution(f, sigma), f, sigma)
    return complex(np.sum(g.values * phi.values))


def positive_type_check(phi: GroupFunction, sigma: Cocycle, n_random: int = 100,
                        seed: int = 0) -> bool:
    """Positive-type oracle over all deltas plus seeded random unit vectors."""
    G = same_group(phi, sigma)
    n = G.order
    rng = np.random.default_rng(seed)
    scale = max(1.0, n * float(np.abs(phi.values).max()))
    worst_re = np.inf
    worst_im = 0.0
    tests = []
    eye = np.eye(n, dtype=complex)
    tests.extend(eye)
    draws = rng.standard_normal((n_random, n)) + 1j * rng.standard_normal((n_random, n))
    draws /= np.linalg.norm(draws, axis=1)[:, None]
    tests.extend(draws)
    for vec in tests:
        val = positive_type_value(phi, sigma, GroupFunction(G, vec))
        worst_re = min(worst_re, val.real)
        worst_im = max(worst_im, abs(val.imag))
    return worst_re >= -PSD_TOL * scale and worst_im <= PSD_TOL * scale


def autocorrelation_pd(f: GroupFunction, sigma: Cocycle) -> GroupFunction:
    """phi(s) = <lambda_sigma(s) f, f> for f scaled to unit l2 norm.

    Also equals conj(f *_sigma f~)(s); both routes are compared in the tests.
    """
    G = same_group(f, sigma)
    nrm = np.linalg.norm(f.values)
    if nrm == 0:
        raise ZeroVector("autocorrelation needs a nonzero vector")
    v = f.values / nrm
    # <lambda(s) f, f> = sum_u sigma(s, u) f(u) conj(f(su))
    su = G.mul
    phi = (sigma.values * v[None, :] * np.conj(v[su])).sum(axis=1)
    return GroupFunction(G, phi)


def coefficient(group, rep: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> GroupFunction:
    """Coefficient function s -> <rep[s] xi, eta>."""
    rep = np.asarray(rep, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    if rep.ndim != 3 or rep.shape[0] != group.order or rep.shape[1] != rep.shape[2]:
        raise DimensionMismatch(f"rep tensor has shape {rep.shape}")
    if xi.shape != (rep.shape[1],) or eta.shape != (rep.shape[1],):
        raise DimensionMismatch("vector length does not match the representation")
    vals = np.einsum("sij,j,i->s", rep, xi, np.conj(eta))
    return GroupFunction(group, vals)


def gns(phi: GroupFunction, sigma: Cocycle) -> GNSResult:
    """GNS representation of a sigma-positive-definite function.

    Eigendecomposes the translation kernel once: its spectrum decides
    positivity by is_sigma_pd's rule, and the eigenvectors with
    eigenvalue > GNS_RANK_TOL * max span the retained subspace, to which
    the twisted translation action is compressed.  The cyclic vector is the
    image of delta_e.  Input is rescaled to phi(e) = 1.
    """
    G = same_group(phi, sigma)
    pe = phi.values[0]
    if abs(pe.imag) > 1e-12 * max(1.0, abs(pe)) or pe.real <= 0:
        raise DegenerateState(f"phi(e) = {pe} is not a positive number")
    phi = GroupFunction(G, phi.values / pe.real)
    K = pd_kernel(phi, sigma)
    w, Q = np.linalg.eigh(0.5 * (K + K.conj().T))
    if not _pd_decision(K, w):
        raise NotPositiveDefinite(f"kernel min eigenvalue {w.min():.3e}")
    keep = w > GNS_RANK_TOL * max(w.max(), 0.0)
    w = w[keep]
    Q = Q[:, keep]
    dim = int(keep.sum())
    sq = np.sqrt(w)

    # action of u on basis vectors: e_t -> sigma(u, t) e_{ut}, which is the
    # regular representation matrix; compress to the retained subspace
    A = Q.conj().T @ regular_rep_tensor(sigma) @ Q
    rep = (sq[:, None] * A) / sq[None, :]

    cyclic = sq * np.conj(Q[0, :])
    nrm = np.linalg.norm(cyclic)
    cyclic = cyclic / nrm
    coeffs = coefficient(G, rep, cyclic, cyclic).values
    residual = float(np.abs(coeffs - phi.values).max())
    return GNSResult(dim=dim, rep=rep, cyclic=cyclic, residual=residual)
