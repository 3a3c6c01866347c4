"""Dense linear algebra helpers: operator norm, trace norm, Hermitian eig."""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian


def operator_norm(M) -> float:
    """Largest singular value."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def trace_norm(M) -> float:
    """Sum of singular values."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False).sum())


def eig_hermitian(M, tol: float = 1e-12):
    """Eigendecomposition of a Hermitian matrix; raises NotHermitian otherwise."""
    M = np.asarray(M, dtype=complex)
    scale = max(1.0, float(np.abs(M).max()) if M.size else 1.0)
    if np.abs(M - M.conj().T).max() > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.conj().T))
    return vals, vecs
