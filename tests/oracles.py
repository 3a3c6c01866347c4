"""Independent slow routes kept as test oracles.

The cohomology oracles work on the whole table, with no generating-set
reduction and no class-function shortcut, so agreement with the package is a
real check.  ``hvec`` and ``hmat`` are gamma2's coordinates of a Hermitian
matrix and their inverse.  ``regular_rep`` writes one matrix of lambda_sigma
entry by entry, the reference for ``lift_matrix``.  The l1-ball projection
is a plainer form of ``littlewood._ball_scales`` at radius 1, which must
match it bit for bit.  ``dense_newton_solve`` assembles gamma2's whole m x m
Newton matrix, m = 2 n^2 + 1, column by column from its definition, the
reference for the block-eliminated solve, and ``outer_gram_congruence``
gathers one congruence block from the complex tensor K (x) conj K, the
reference for the batched rank-4 product of ``_Hermitian.gram_congruence``.
"""

from __future__ import annotations

import itertools
from math import isqrt, lcm

import numpy as np

from twista.smith import solve_mod


def regular_rep(sigma, s: int) -> np.ndarray:
    """Unitary matrix of lambda_sigma(s): delta_u -> sigma(s, u) delta_{su}."""
    n = sigma.group.order
    out = np.zeros((n, n), dtype=complex)
    for u in range(n):
        out[sigma.group.mul[s, u], u] = sigma.values[s, u]
    return out


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


def tree_coordinates(mul, S, d, L: int):
    """(a, b) with xi(g) = a[g] . xi(S) + b[g] (mod L), by a breadth-first walk.

    The per-call form of the Cayley tree that FiniteGroup.cayley_tree caches:
    each new g = s_j t takes its tree edge, a[g] = a[t] + e_j and
    b[g] = b[t] - d(s_j, t).
    """
    n, k = len(mul), len(S)
    a = np.zeros((n, k), dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    a[S, np.arange(k)] = 1
    seen = np.zeros(n, dtype=bool)
    seen[S] = True
    frontier = S
    while frontier.size:
        g = mul[S[:, None], frontier].ravel()        # s_j t, j-major
        fresh = np.flatnonzero(~seen[g])
        g, first = np.unique(g[fresh], return_index=True)
        j, i = np.divmod(fresh[first], frontier.size)
        t = frontier[i]
        a[g] = a[t]
        a[g, j] += 1
        b[g] = (b[t] - d[S[j], t]) % L
        seen[g] = True
        frontier = g
    return a, b


def symmetric_table(n: int) -> np.ndarray:
    """Cayley table of S_n, permutations in lexicographic order, one product at a time."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mul = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            # composition p after q: x -> p[q[x]]
            mul[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return mul


def cyclic_inverse(n: int) -> np.ndarray:
    """Inverses in Z_n: -i mod n."""
    return (-np.arange(n)) % n


def product_inverse(g1, g2) -> np.ndarray:
    """Inverses in G1 x G2 under the index (a, b) -> a |G2| + b, factor by factor."""
    a, b = np.divmod(np.arange(g1.order * g2.order), g2.order)
    return g1.inv[a] * g2.order + g2.inv[b]


def dihedral_inverse(n: int) -> np.ndarray:
    """Inverses in D_n, element f n + a = s^f r^a: r^a -> r^-a, reflections fixed."""
    f, a = np.divmod(np.arange(2 * n), n)
    return np.where(f == 1, f * n + a, (-a) % n)


def symmetric_inverse(n: int) -> np.ndarray:
    """Inverse permutations of S_n, in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([index[tuple(np.argsort(p))] for p in perms], dtype=np.int64)


def extension_inverse(sigma) -> np.ndarray:
    """Inverses in G x mu_m, index s m + k: (s, k)^-1 = (s^-1, -k - e(s, s^-1))."""
    G, m = sigma.group, sigma.m
    s, k = np.divmod(np.arange(G.order * m), m)
    return G.inv[s] * m + (-k - sigma.exponents[s, G.inv[s]]) % m


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


def echelon_carry_full(A, b, m):
    """Row echelon reduction of A x = b (mod m) that updates every row below the pivot."""
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
            quo = W[r + 1:, j] // W[r, j]
            W[r + 1:] = (W[r + 1:] - quo[:, None] * W[r][None, :]) % m
            if not W[r + 1:, j].any():
                r += 1
                break
    return W[:r, :-1], W[:r, -1], W[r:, -1]


def project_l1_ball(r):
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


def hvec(H):
    """gamma2's coordinates of a Hermitian matrix: vec(Re H + Im H)."""
    return (H.real + H.imag).ravel()


def hmat(x):
    """The Hermitian matrix whose hvec is x."""
    n = isqrt(x.size)
    S = x.reshape(n, n)
    return 0.5 * ((S + S.T) + 1j * (S - S.T))


def dense_newton_solve(Ginv, rhs):
    """gamma2's Newton direction dy = (hvec X, hvec Y, t) from the dense matrix M.

    Column j of M is the adjoint (the hvec of both diagonal blocks, then the
    trace) of Ginv A_j Ginv, where A_j is coordinate j's block-diagonal
    Hermitian matrix; t's is the identity, so its column is the adjoint of
    Ginv^2.  The 2n pinned diagonal coordinates get unit rows and columns and
    a zero right-hand side.  rhs may hold one column per system.
    """
    n = Ginv.shape[0] // 2
    nh = n * n
    m = 2 * nh + 1

    def adjoint(Q):
        return np.concatenate([hvec(Q[:n, :n]), hvec(Q[n:, n:]), [np.trace(Q).real]])

    M = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        A = e[-1] * np.eye(2 * n, dtype=complex)
        A[:n, :n] += hmat(e[:nh])
        A[n:, n:] += hmat(e[nh:-1])
        M[:, j] = adjoint(Ginv @ A @ Ginv)
    pinned = np.concatenate([np.arange(n) * (n + 1), nh + np.arange(n) * (n + 1)])
    M[pinned] = 0.0
    M[:, pinned] = 0.0
    M[pinned, pinned] = 1.0
    b = np.array(rhs, dtype=float)
    b[pinned] = 0.0
    return np.linalg.solve(M, b)


def outer_gram_congruence(K):
    """Matrix of H -> K H K^H in gamma2's coordinates hvec H = vec(Re H + Im H).

    With C = K (x) conj K, C[p, i, q, j] = K_pi conj(K_qj), the entry at
    ((p, q), (i, j)) is Re C[p, i, q, j] + Im C[p, j, q, i].
    """
    n = K.shape[0]
    C = np.multiply.outer(K, K.conj())
    return (C.real.transpose(0, 2, 1, 3) + C.imag.transpose(0, 2, 3, 1)).reshape(n * n, n * n)
