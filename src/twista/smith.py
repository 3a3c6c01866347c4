"""Exact integer linear algebra mod m: a diagonal form and linear solves.

Used by the coboundary decision procedure.  Correct for composite moduli,
where Gaussian elimination mod m would fail.  All arithmetic is numpy int64
with entries kept in [0, m), so products stay below m^2.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificateError, UnsupportedSize


def _echelon_carry(A: np.ndarray, b: np.ndarray, m: int):
    """Row echelon reduction of A x = b (mod m), carrying b through the row ops.

    Row operations are unimodular over Z, hence invertible mod m, and every
    entry only matters mod m, so the working matrix is reduced to [0, m)
    throughout; entries stay below m and intermediates below m^2.  Returns
    (R, c, extra) where R is the reduced row block, c the carried right
    side, and extra the carried entries of rows whose A-part vanished
    (consistency constraints 0 = extra_i mod m).
    """
    W = np.concatenate([np.asarray(A, dtype=np.int64),
                        np.asarray(b, dtype=np.int64)[:, None]], axis=1) % m
    rows, cols = W.shape[0], W.shape[1] - 1
    r = 0
    for j in range(cols):
        if r >= rows:
            break
        while True:
            col = W[r:, j]
            nz = np.flatnonzero(col)
            if nz.size == 0:
                break
            p = r + nz[np.argmin(col[nz])]
            if p != r:
                W[[r, p]] = W[[p, r]]
            # rows with a zero in column j have quotient 0 and stay as they are
            below = r + 1 + np.flatnonzero(W[r + 1:, j])
            quo = W[below, j, None] // W[r, j]
            W[below] = (W[below] - quo * W[r]) % m
            if not W[below, j].any():
                r += 1
                break
    # rows below the pivot block have zero A-part by construction
    return W[:r, :-1], W[:r, -1], W[r:, -1]


def smith_normal_form(A, m: int):
    """Return (d, U, V) with U A V = diag(d) (mod m), U and V invertible mod m.

    A diagonal form over Z/mZ: the smallest nonzero entry of the remaining
    block becomes the pivot, and Euclid runs on the pivot row and column
    until both clear.  Every entry stays in [0, m); U and V are tracked mod
    m.  The divisibility chain d_1 | d_2 | ... of a Smith normal form is not
    computed, because solving the diagonal system does not need it.
    """
    W = np.asarray(A, dtype=np.int64) % m
    rows, cols = W.shape
    U = np.eye(rows, dtype=np.int64)
    V = np.eye(cols, dtype=np.int64)
    k = 0
    while k < min(rows, cols):
        block = np.where(W[k:, k:] > 0, W[k:, k:], m)
        i, j = np.unravel_index(block.argmin(), block.shape)
        if block[i, j] == m:
            break
        W[[k, k + i]], U[[k, k + i]] = W[[k + i, k]], U[[k + i, k]]
        W[:, [k, k + j]], V[:, [k, k + j]] = W[:, [k + j, k]], V[:, [k + j, k]]
        below = k + 1 + np.flatnonzero(W[k + 1:, k])
        q = W[below, k, None] // W[k, k]
        W[below] = (W[below] - q * W[k]) % m
        U[below] = (U[below] - q * U[k]) % m
        right = k + 1 + np.flatnonzero(W[k, k + 1:])
        q = W[k, right] // W[k, k]
        W[:, right] = (W[:, right] - W[:, k, None] * q) % m
        V[:, right] = (V[:, right] - V[:, k, None] * q) % m
        # the remainders are below the pivot, so each retry lowers it
        if not (W[k + 1:, k].any() or W[k, k + 1:].any()):
            k += 1
    return np.diagonal(W).copy(), U, V


def _bezout(d: np.ndarray, m: int):
    """Elementwise (g, s) with g = gcd(d, m) and s d = g (mod m), s in [0, m)."""
    r0, r1 = np.full_like(d, m), d % m
    s0, s1 = np.zeros_like(d), np.ones_like(d)
    while (live := r1 > 0).any():
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        s0[live], s1[live] = s1[live], s0[live] - q * s1[live]
    return r0, s0 % m


def solve_mod(A, b, m: int):
    """One solution x of A x = b (mod m), or None when none exists.

    The decision is exact: a row echelon form mod m, a diagonal form
    U R V = diag(d) of the surviving block R, then the independent
    congruences d_i z_i = (U c)_i (mod m); x = V z.  Raises UnsupportedSize
    when max(rows, cols) * m^2 reaches 2^63, the bound that keeps the int64
    sums in U c, V z and A x exact.
    """
    m = int(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    if max(np.shape(A)) * m * m >= 1 << 63:
        raise UnsupportedSize(f"modulus {m} too large for int64 arithmetic "
                              f"on a {np.shape(A)} system")
    A = np.asarray(A, dtype=np.int64) % m
    b = np.asarray(b, dtype=np.int64) % m

    R, c, extra = _echelon_carry(A, b, m)
    if extra.any():
        return None
    d, U, V = smith_normal_form(R, m)
    c = U @ c % m
    g, s = _bezout(d, m)
    if (c % g).any():
        return None
    z = np.zeros(A.shape[1], dtype=np.int64)
    z[:len(d)] = s * (c // g) % m
    x = V @ z % m
    if ((A @ x - b) % m).any():
        raise CertificateError("solve_mod: the solution fails A x = b (mod m)")
    return x
