"""Solvers: dense linear algebra helpers, the gamma2 SDP, the t2 splitting."""


import tracemalloc

import numpy as np
import pytest

import twista as tw
from twista import littlewood
from twista.errors import NotHermitian
from twista.sdp import _Hermitian


def test_operator_and_trace_norm_basics():
    assert abs(tw.operator_norm(np.eye(4)) - 1.0) < 1e-12
    assert abs(tw.trace_norm(np.eye(4)) - 4.0) < 1e-12
    D = np.diag([3.0, -4.0])
    assert abs(tw.operator_norm(D) - 4.0) < 1e-12
    assert abs(tw.trace_norm(D) - 7.0) < 1e-12
    assert tw.operator_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_matches_eigenvalue_route_for_hermitian():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    H = A + A.conj().T
    vals, vecs = tw.eig_hermitian(H)
    assert abs(tw.trace_norm(H) - np.abs(vals).sum()) < 1e-10
    assert np.abs(vecs.conj().T @ vecs - np.eye(8)).max() < 1e-10


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        tw.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_operator_norm_matches_svd_on_larger_matrices():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    assert abs(tw.operator_norm(M)
               - np.linalg.svd(M, compute_uv=False)[0]) < 1e-8


# --- gamma2 ---

def test_gamma2_unit_values():
    for n in (1, 2, 4, 6):
        sol = tw.gamma2(np.eye(n), tol=1e-6)
        assert abs(sol.value - 1.0) <= 1e-6
        assert sol.dual_value <= sol.value
    sol = tw.gamma2(np.ones((3, 3)), tol=1e-6)
    assert abs(sol.value - 1.0) <= 1e-6


def test_gamma2_hadamard_bracketed():
    F = np.array([[1.0, 1.0], [1.0, -1.0]])
    sol = tw.gamma2(F, tol=1e-6)
    assert abs(sol.value - np.sqrt(2.0)) <= 1e-6
    # independent bracket: search over rank-2 factorizations F = U V^H with
    # unit rows of U (full generality up to gauge) for the upper bound; the
    # solver dual certificate supplies the lower bound
    best = np.inf
    for theta in np.linspace(0.01, np.pi - 0.01, 1801):
        U = np.array([[1.0, 0.0],
                      [np.cos(theta), np.sin(theta)]])
        Vh = np.linalg.solve(U, F)
        cand = np.linalg.norm(Vh, axis=0).max()   # max factor row norm product
        best = min(best, cand)
    assert best >= sol.dual_value - 1e-9
    assert sol.value <= best + 1e-6
    assert abs(best - np.sqrt(2.0)) < 1e-3


def test_gamma2_zero_matrix():
    sol = tw.gamma2(np.zeros((3, 3)))
    assert sol.value == 0.0 and sol.gap == 0.0


def test_gamma2_factorization_convention():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sol = tw.gamma2(F, tol=1e-6)
    # F[i][j] = <xi(j), eta(i)> with <a, b> = sum a conj(b)
    rec = np.einsum("jk,ik->ij", sol.xi, np.conj(sol.eta))
    assert np.abs(rec - F).max() < 1e-8 * max(1.0, sol.value)
    max_xi = np.linalg.norm(sol.xi, axis=1).max()
    max_eta = np.linalg.norm(sol.eta, axis=1).max()
    assert max_xi * max_eta <= sol.value + max(sol.gap, 1e-9) + 1e-9
    # gram block diagonals sit below the optimum value
    n = F.shape[0]
    assert np.real(np.diag(sol.gram)).max() <= sol.value + 1e-8


def test_gamma2_lower_bound_max_entry():
    rng = np.random.default_rng(3)
    for _ in range(5):
        F = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sol = tw.gamma2(F, tol=1e-6)
        assert sol.value >= np.abs(F).max() - 1e-6


def test_gamma2_transpose_conjugate_invariance():
    rng = np.random.default_rng(4)
    F = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    tol = 1e-7
    v0 = tw.gamma2(F, tol=tol).value
    assert abs(tw.gamma2(F.T, tol=tol).value - v0) <= 2 * tol
    assert abs(tw.gamma2(F.conj(), tol=tol).value - v0) <= 2 * tol


def test_gamma2_schur_product_submultiplicative():
    rng = np.random.default_rng(5)
    tol = 1e-7
    for _ in range(3):
        F = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vF = tw.gamma2(F, tol=tol).value
        vG = tw.gamma2(G, tol=tol).value
        vFG = tw.gamma2(F * G, tol=tol).value
        assert vFG <= vF * vG + tol * (1 + vF + vG)


def test_gamma2_unimodular_diagonal_scaling_invariance():
    rng = np.random.default_rng(6)
    F = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    tol = 1e-7
    v0 = tw.gamma2(F, tol=tol).value
    dl = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    dr = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    v1 = tw.gamma2(dl[:, None] * F * dr[None, :], tol=tol).value
    assert abs(v1 - v0) <= 2 * tol


def test_gamma2_homogeneity_and_triangle():
    rng = np.random.default_rng(13)
    F = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    tol = 1e-7
    vF = tw.gamma2(F, tol=tol).value
    assert abs(tw.gamma2(3.5 * F, tol=tol).value - 3.5 * vF) <= 8 * tol
    vG = tw.gamma2(G, tol=tol).value
    assert tw.gamma2(F + G, tol=tol).value <= vF + vG + 3 * tol


def test_gamma2_deterministic_bitwise():
    rng = np.random.default_rng(7)
    F = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = tw.gamma2(F, tol=1e-7)
    b = tw.gamma2(F.copy(), tol=1e-7)
    assert a.value == b.value
    assert a.dual_value == b.dual_value
    assert np.array_equal(a.gram, b.gram)
    assert a.iterations == b.iterations


def test_gamma2_rejects_oversize_and_nonsquare():
    with pytest.raises(tw.UnsupportedSize):
        tw.gamma2(np.ones((129, 129)))
    with pytest.raises(ValueError):
        tw.gamma2(np.ones((2, 3)))


def test_gamma2_solver_failure_carries_partial():
    rng = np.random.default_rng(8)
    F = rng.standard_normal((6, 6))
    with pytest.raises(tw.SolverFailure) as exc:
        tw.gamma2(F, tol=1e-13, max_iter=3)
    part = exc.value.partial
    assert part is not None
    assert part.value >= part.dual_value


# --- the IPM's Hermitian coordinates and Schur blocks ---

def _complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _gram(basis, K):
    return basis.gram_congruence(K, np.empty((basis.n ** 2, basis.n ** 2)))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_hvec_is_an_isometry_with_the_diagonal_at_basis_diag(n):
    rng = np.random.default_rng(n)
    basis = _Hermitian(n)
    A, B = _complex(rng, n), _complex(rng, n)
    H1, H2 = A + A.conj().T, B + B.conj().T
    assert np.allclose(basis.hmat(basis.hvec(H1)), H1, rtol=0, atol=1e-14)
    assert abs(basis.hvec(H1) @ basis.hvec(H2)
               - np.real(np.trace(H1.conj().T @ H2))) <= 1e-12 * n * n
    assert np.array_equal(basis.hvec(H1)[basis.diag], np.real(np.diag(H1)))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_gram_congruence_matches_its_definition(n):
    # column b is hvec(K hmat(e_b) K^H), for Hermitian and general K
    rng = np.random.default_rng(10 + n)
    basis = _Hermitian(n)
    G = _complex(rng, n)
    for K in (G, G + G.conj().T):
        want = np.column_stack([basis.hvec(K @ basis.hmat(e) @ K.conj().T)
                                for e in np.eye(n * n)])
        got = _gram(basis, K)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(K).max() ** 2)
        # the adjoint of H -> K H K^H is H -> K^H H K, and the basis is orthonormal
        assert np.allclose(_gram(basis, K.conj().T), got.T,
                           rtol=0, atol=1e-12 * np.abs(K).max() ** 2)


def test_gram_congruence_writes_into_a_block_of_a_larger_matrix():
    n = 4
    nh = n * n
    basis = _Hermitian(n)
    K = _complex(np.random.default_rng(4), n)
    M = np.zeros((2 * nh + 1, 2 * nh + 1))
    basis.gram_congruence(K, M[:nh, nh:-1])
    assert np.array_equal(M[:nh, nh:-1], _gram(basis, K))
    M[:nh, nh:-1] = 0.0
    assert not M.any()


def _benchmark_symbol_z4xz4(seed):
    g = tw.cyclic_product([4, 4])
    sigma = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    rng = np.random.default_rng([seed, 0])
    phi = tw.GroupFunction(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    return tw.schur_symbol(phi, tw.trivial_cocycle(g), sigma)


# iteration count and value of gamma2(F, tol=1e-6), recorded with the earlier
# coordinates (real diagonal, then sqrt(2) Re and Im of the upper triangle);
# the basis change is orthogonal, so the IPM must take the same path.  At
# seed 1353983473 the clustered singular values of the NT scaling step made
# LAPACK's gesdd fail to converge on a finite matrix
_TRAJECTORIES = {
    "complex n=3": (18, 3.8997021702100456),
    "complex n=8": (21, 3.6415356910654717),
    "complex n=16": (16, 4.952602327059255),
    "Z4xZ4 symbol seed 1": (8, 4.401441717842986),
    "Z4xZ4 symbol seed 1353983473": (9, 4.977101252655288),
}


@pytest.mark.parametrize("name", sorted(_TRAJECTORIES))
def test_gamma2_trajectory_is_pinned(name):
    if name.startswith("Z4xZ4"):
        F = _benchmark_symbol_z4xz4(int(name.split()[-1]))
    else:
        n = int(name.split("=")[1])
        F = _complex(np.random.default_rng(n), n)
    iterations, value = _TRAJECTORIES[name]
    sol = tw.gamma2(F)
    assert sol.iterations == iterations
    assert abs(sol.value - value) <= 1e-9 * value


def test_gamma2_schur_working_set_stays_below_three_schur_matrices():
    # M (m x m doubles) and its Cholesky factor are the floor; the rest of
    # the assembly must stay small next to them
    n = 24
    m = 2 * n * n + 1
    F = _complex(np.random.default_rng(24), n)
    tracemalloc.start()
    try:
        tw.gamma2(F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * m * m * 8


# --- t2 splitting ---

def test_t2_zero_and_single_entry():
    sol = tw.t2_split(np.zeros((3, 3)))
    assert sol.value == 0.0
    E11 = np.zeros((3, 3))
    E11[0, 0] = 1.0
    sol = tw.t2_split(E11, tol=1e-6)
    assert abs(sol.value - 1.0) <= 1e-6
    assert abs(sol.dual_bound - 1.0) <= 1e-6


def test_t2_all_ones_2x2_with_grid_oracle():
    psi = np.ones((2, 2))
    sol = tw.t2_split(psi, tol=1e-6)
    # brute-force parametric minimization over real splits on a grid
    g = np.linspace(-0.25, 1.25, 31)
    a, b, c, d = np.meshgrid(g, g, g, g, indexing="ij", sparse=True)
    maxrow = np.maximum(np.sqrt(a ** 2 + b ** 2), np.sqrt(c ** 2 + d ** 2))
    maxcol = np.maximum(np.sqrt((1 - a) ** 2 + (1 - c) ** 2),
                        np.sqrt((1 - b) ** 2 + (1 - d) ** 2))
    best = float((maxrow + maxcol).min())
    assert sol.value <= best + 1e-6
    assert abs(sol.value - np.sqrt(2.0)) <= 1e-5
    assert sol.gap <= 1e-6


def test_t2_split_adds_up_and_certifies():
    rng = np.random.default_rng(9)
    psi = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    sol = tw.t2_split(psi, tol=1e-5)
    assert np.abs(sol.psi1 + sol.psi2 - psi).max() < 1e-10
    val = tw.max_row_l2(sol.psi1) + tw.max_col_l2(sol.psi2)
    assert abs(val - sol.value) < 1e-9
    assert sol.dual_bound <= sol.value + 1e-12
    assert sol.gap <= 1e-5


# value, dual bound and iteration count of t2_split(psi) at the default tol,
# recorded when the ADMM still ended in a supergradient polish of the dual
# bound; the polish never raised the bound, so dropping it moved nothing
_T2_PINS = {
    6: (3.449187095205883, 3.449185361028353, 250),
    16: (5.6976237635426354, 5.697620665562662, 900),
}


@pytest.mark.parametrize("n", sorted(_T2_PINS))
def test_t2_split_is_pinned(n):
    value, dual_bound, iterations = _T2_PINS[n]
    sol = tw.t2_split(_complex(np.random.default_rng(n), n))
    assert sol.iterations == iterations
    assert abs(sol.value - value) <= 1e-12 * value
    assert abs(sol.dual_bound - dual_bound) <= 1e-12 * value
    assert not sol.budget_exhausted


def test_t2_split_reports_an_exhausted_budget(monkeypatch):
    monkeypatch.setattr(littlewood, "MAX_ITER", 50)
    psi = _complex(np.random.default_rng(16), 16)
    tol = 1e-12
    sol = tw.t2_split(psi, tol=tol)
    assert sol.iterations == 50
    assert sol.budget_exhausted and sol.gap > tol
    assert sol.value >= sol.dual_bound
    # psi2 is psi - psi1, so the sum returns psi up to one rounding
    assert np.abs(sol.psi1 + sol.psi2 - psi).max() <= 1e-15 * np.abs(psi).max()


def test_t2_dominates_gamma2():
    rng = np.random.default_rng(10)
    for _ in range(3):
        psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t2 = tw.t2_split(psi, tol=1e-6)
        g2 = tw.gamma2(psi, tol=1e-6)
        assert g2.value <= t2.value + 2e-6


def test_t2_unimodular_multiplication_invariance():
    rng = np.random.default_rng(11)
    psi = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 5)))
    a = tw.t2_split(psi, tol=1e-6)
    b = tw.t2_split(psi * phases, tol=1e-6)
    assert abs(a.value - b.value) <= 2 * max(a.gap, b.gap) + 2e-6


def test_t2_homogeneity_and_triangle():
    rng = np.random.default_rng(12)
    psi = rng.standard_normal((4, 4))
    chi = rng.standard_normal((4, 4))
    tol = 1e-6
    v = tw.t2_split(psi, tol=tol).value
    assert abs(tw.t2_split(2.5 * psi, tol=tol).value - 2.5 * v) <= 4 * tol
    vs = tw.t2_split(psi + chi, tol=tol).value
    assert vs <= v + tw.t2_split(chi, tol=tol).value + 3 * tol
