"""Independent slow routes kept as test oracles for the exact cohomology code.

Each one works on the whole table, with no generating-set reduction and no
class-function shortcut, so agreement with the package is a real check.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from twista.smith import solve_mod


def coboundary_solution_full(c1, c2):
    """xi with c1 = (delta xi) c2 from the full n^2-row system, or None."""
    L = lcm(c1.m, c2.m)
    d = (c1.rescaled(L).exponents - c2.rescaled(L).exponents) % L
    n = c1.group.order
    r = np.arange(n * n)
    s, t = r // n, r % n
    A = np.zeros((n * n, n), dtype=np.int64)
    np.add.at(A, (r, s), 1)
    np.add.at(A, (r, t), 1)
    np.add.at(A, (r, c1.group.mul[s, t]), -1)
    return solve_mod(A, d.reshape(-1), L)


def center_dimension_svd(sigma) -> int:
    """Null space of the n^2 x n commutator system [lambda(t), x] = 0, by SVD."""
    G = sigma.group
    n = G.order
    mul, inv, sig = G.mul, G.inv, sigma.values
    u = np.arange(n)
    blocks = []
    for t in range(n):
        a = mul[u, inv[t]]       # s with st = u
        b = mul[inv[t], u]       # s with ts = u
        block = np.zeros((n, n), dtype=complex)
        block[u, a] += sig[a, t]
        block[u, b] -= sig[t, b]
        blocks.append(block)
    svals = np.linalg.svd(np.concatenate(blocks), compute_uv=False)
    tol = 1e-9 * max(1.0, svals[0])
    return n - int((svals > tol).sum())


def associativity_fails(mul) -> bool:
    """Full n^3 scan: some (ab)c != a(bc)."""
    mul = np.asarray(mul)
    return bool((mul[mul, :] != mul[:, mul]).any())


def magma_closure(mul, gens) -> np.ndarray:
    """Boolean mask of every product of the generators, any bracketing."""
    reached = np.zeros(len(mul), dtype=bool)
    reached[list(gens)] = True
    while True:
        idx = np.flatnonzero(reached)
        grown = reached.copy()
        grown[mul[np.ix_(idx, idx)].ravel()] = True
        if (grown == reached).all():
            return reached
        reached = grown
