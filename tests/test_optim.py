"""Solvers: dense linear algebra helpers, the gamma2 SDP, the t2 splitting."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import twista as tw
from oracles import dense_newton_solve, hmat, hvec, outer_gram_congruence, project_l1_ball

from twista import littlewood, sdp
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
        assert sol.dual_bound <= sol.value
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
    assert best >= sol.dual_bound - 1e-9
    assert sol.value <= best + 1e-6
    assert abs(best - np.sqrt(2.0)) < 1e-3


def test_gamma2_zero_matrix():
    # the empty matrix gets the zero solution, as t2_split does for empty input
    for n in (3, 0):
        sol = tw.gamma2(np.zeros((n, n)))
        assert sol.value == 0.0 and sol.gap == 0.0 and sol.dual_bound == 0.0
        assert sol.xi.shape == (n, 2 * n) == sol.eta.shape


def test_gamma2_factorization_convention():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sol = tw.gamma2(F, tol=1e-6)
    # F = xi eta^H: F[i][j] = <xi(i), eta(j)> with <a, b> = sum a conj(b)
    rec = np.einsum("ik,jk->ij", sol.xi, np.conj(sol.eta))
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
    assert a.dual_bound == b.dual_bound
    assert np.array_equal(a.gram, b.gram)
    assert a.iterations == b.iterations


def test_gamma2_rejects_oversize_and_nonsquare():
    with pytest.raises(tw.UnsupportedSize):
        tw.gamma2(np.ones((129, 129)))
    with pytest.raises(ValueError):
        tw.gamma2(np.ones((2, 3)))
    F = np.ones((3, 3))
    F[1, 2] = np.nan
    with pytest.raises(ValueError):
        tw.gamma2(F)


@pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf])
def test_gamma2_refuses_a_nan_or_negative_tolerance(tol):
    # refused before the size checks: nothing is allocated or solved
    with pytest.raises(ValueError, match="tolerance"):
        tw.gamma2(np.ones((129, 129)), tol=tol)
    assert tw.gamma2(np.zeros((2, 2)), tol=0.0).value == 0.0


def test_gamma2_solver_failure_carries_partial(monkeypatch):
    rng = np.random.default_rng(8)
    F = rng.standard_normal((6, 6))
    monkeypatch.setattr(sdp, "MAX_ITER", 3)
    with pytest.raises(tw.SolverFailure) as exc:
        tw.gamma2(F, tol=1e-13)
    part = exc.value.partial
    assert part is not None
    assert part.value >= part.dual_bound


def _sparse_complex(rng, shape):
    # about 30% of the entries are zero
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * (rng.random(shape) >= 0.3)


def _assert_bracketed(sol, exact):
    # gamma2 raises unless value - dual_bound <= tol; slack is for rounding
    slack = 1e-12 * max(1.0, exact)
    assert sol.dual_bound - slack <= exact <= sol.value + slack


@given(st.integers(1, 8), st.integers(0, 10**6))
def test_gamma2_of_a_rank_one_matrix_is_the_product_of_max_entries(n, seed):
    # a b^H factors through rows of length |a_i| and |b_j|, and its entry of
    # largest modulus is a lower bound
    rng = np.random.default_rng(seed)
    a, bv = _sparse_complex(rng, n), _sparse_complex(rng, n)
    _assert_bracketed(tw.gamma2(np.outer(a, bv.conj())),
                      np.abs(a).max() * np.abs(bv).max())


@given(st.integers(1, 8), st.integers(0, 10**6))
def test_gamma2_of_a_diagonal_matrix_is_its_max_entry(n, seed):
    d = _sparse_complex(np.random.default_rng(seed), n)
    _assert_bracketed(tw.gamma2(np.diag(d)), np.abs(d).max())


@pytest.mark.parametrize("n", [1, 3, 8])
def test_gamma2_gram_diagonal_is_pinned_to_the_value(n):
    sol = tw.gamma2(_complex(np.random.default_rng(n), n))
    assert np.all(np.real(np.diag(sol.gram)) == sol.value)


# --- the IPM's Hermitian coordinates and Schur blocks ---

def _complex(rng, n, m=None):
    shape = (n, n if m is None else m)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _gram(basis, K):
    return basis.gram_congruence(K, np.empty((basis.n ** 2, basis.n ** 2)))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_hvec_is_an_isometry_with_the_diagonal_at_basis_diag(n):
    rng = np.random.default_rng(n)
    basis = _Hermitian(n)
    A, B = _complex(rng, n), _complex(rng, n)
    H1, H2 = A + A.conj().T, B + B.conj().T
    assert np.allclose(hmat(hvec(H1)), H1, rtol=0, atol=1e-14)
    assert abs(hvec(H1) @ hvec(H2) - np.real(np.trace(H1.conj().T @ H2))) <= 1e-12 * n * n
    assert np.array_equal(hvec(H1)[basis.diag], np.real(np.diag(H1)))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_gram_congruence_matches_its_definition(n):
    # column b is hvec(K hmat(e_b) K^H), for Hermitian and general K
    rng = np.random.default_rng(10 + n)
    basis = _Hermitian(n)
    G = _complex(rng, n)
    for K in (G, G + G.conj().T):
        want = np.column_stack([hvec(K @ hmat(e) @ K.conj().T) for e in np.eye(n * n)])
        got = _gram(basis, K)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(K).max() ** 2)
        # the adjoint of H -> K H K^H is H -> K^H H K, and the basis is orthonormal
        assert np.allclose(_gram(basis, K.conj().T), got.T,
                           rtol=0, atol=1e-12 * np.abs(K).max() ** 2)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 16, 32])
def test_gram_congruence_matches_the_outer_product_assembly(n):
    # Hermitian, general and real K, the general one a strided block as
    # gamma2's W22 is
    rng = np.random.default_rng([n, 14])
    G = _complex(rng, 2 * n)
    basis = _Hermitian(n)
    for K in (G[:n, :n] + G[:n, :n].conj().T, G[n:, n:], G.real[:n, n:]):
        want = outer_gram_congruence(K)
        got = _gram(basis, K)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_newton_direction_matches_the_dense_schur_solve(n):
    # a seeded positive-definite scaling and two right-hand sides, zero at
    # the pinned coordinates as gamma2's are
    rng = np.random.default_rng([n, 21])
    A = _complex(rng, 2 * n)
    Ginv = A @ A.conj().T / (2 * n) + 0.5 * np.eye(2 * n)
    newton = sdp._Newton(n)
    newton.factor(Ginv)
    rhs = rng.standard_normal((2 * n * n + 1, 2))
    rhs[newton.pinned] = 0.0
    dy = newton.solve(rhs)
    want = dense_newton_solve(Ginv, rhs)
    assert np.abs(dy - want).max() <= 1e-10 * np.abs(want).max()


def _closure_case(kind, n, rng):
    z = _complex(rng, n)
    if kind == "rank one":
        return np.outer(z[0], z[-1].conj())
    if kind == "zero row":
        z[n // 2] = 0
    elif kind == "sparse":
        z *= rng.random(z.shape) < 0.3
    elif kind == "identity":
        z = np.eye(n)
    elif kind == "all ones":
        z = np.ones((n, n))
    return z


@pytest.mark.parametrize("n", [1, 4, 9, 16])
@pytest.mark.parametrize("kind", ["gaussian", "rank one", "zero row", "sparse",
                                  "identity", "all ones"])
def test_gamma2_closes_on_every_kind(kind, n):
    sol = tw.gamma2(_closure_case(kind, n, np.random.default_rng([n, len(kind)])))
    assert sol.gap <= 1e-6 and sol.dual_bound <= sol.value


def _report_symbol(name, seed):
    # the symbol of sample 0 of a single-sample amenability report, on a
    # group and cocycle of the benchmark: a bilinear cocycle on Z4xZ4 and
    # Z4xZ8, a coboundary twist at root order 4 on S4
    if name == "S4":
        g = tw.symmetric(4)
        twist, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g), 4,
                                              np.random.default_rng(seed))
        sigma = tw.normalize_cocycle(twist)[0]
    else:
        g = tw.cyclic_product([4, int(name[-1])])
        sigma = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    rng = np.random.default_rng([seed, 0])
    phi = tw.GroupFunction(g, rng.standard_normal(g.order)
                           + 1j * rng.standard_normal(g.order))
    return tw.schur_symbol(phi, tw.trivial_cocycle(g), sigma)


# iteration count and value of gamma2(F, tol=1e-6), the diagonals of X and Y
# pinned to t.  At seed 1353983473 the clustered singular values of the NT
# scaling step once made LAPACK's gesdd fail to converge on a finite matrix
_TRAJECTORIES = {
    "complex n=3": (14, 3.8997021709536908),
    "complex n=8": (13, 3.6415354968464433),
    "complex n=16": (14, 4.952602339148133),
    "Z4xZ4 symbol seed 1": (8, 4.401441238235082),
    "Z4xZ4 symbol seed 1353983473": (8, 4.977101274530765),
    "S4 symbol seed 1": (8, 5.032597642672036),
    "Z4xZ8 symbol seed 1": (8, 5.989406562980815),
}

# the values of the same cases from the solver that bounded the diagonals by
# t over a second, nonnegative orthant cone (18, 21, 16, 8, 9, 9 and 9
# iterations); the two forms have the same optimum
_PARENT_VALUES = {
    "complex n=3": 3.8997021702100456,
    "complex n=8": 3.6415356910654717,
    "complex n=16": 4.952602327059255,
    "Z4xZ4 symbol seed 1": 4.401441717842986,
    "Z4xZ4 symbol seed 1353983473": 4.977101252655288,
    "S4 symbol seed 1": 5.032597622682218,
    "Z4xZ8 symbol seed 1": 5.989406533310112,
}


def _trajectory_input(name):
    if "symbol" in name:
        return _report_symbol(name.split()[0], int(name.split()[-1]))
    n = int(name.split("=")[1])
    return _complex(np.random.default_rng(n), n)


@pytest.mark.parametrize("name", sorted(_TRAJECTORIES))
def test_gamma2_trajectory_is_pinned(name):
    iterations, value = _TRAJECTORIES[name]
    sol = tw.gamma2(_trajectory_input(name))
    assert sol.iterations == iterations
    assert abs(sol.value - value) <= 1e-9 * value


@pytest.mark.parametrize("name", sorted(_PARENT_VALUES))
def test_gamma2_agrees_with_the_bounded_diagonal_form(name):
    old_value = _PARENT_VALUES[name]
    sol = tw.gamma2(_trajectory_input(name))
    assert sol.dual_bound <= old_value
    assert abs(sol.value - old_value) <= 1e-6


def test_gamma2_schur_working_set_stays_below_two_schur_matrices():
    # the n^2 x n^2 complement, factored in place, and its coupling are
    # 2 n^4 doubles; the rank-4 factors of the congruences (8 n^3) and the
    # border's pieces are O(n^3): the peak is about 3.4 n^4 at n = 24.
    # Gathering each congruence from a complex K (x) conj K product (2 n^4
    # more) peaked at 4.8 n^4 and the whole m x m Schur matrix
    # (m = 2 n^2 + 1) at 6.3 n^4; both fail the bound, about one of those
    # matrices (m^2 = 4 n^4)
    n = 24
    F = _complex(np.random.default_rng(24), n)
    tracemalloc.start()
    try:
        tw.gamma2(F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n ** 4 * 8


def _assert_failed_on_a_bracket(exc, iterations):
    part = exc.value.partial
    assert part.ill_conditioned and part.iterations == iterations
    assert np.isfinite(part.gap) and part.dual_bound <= part.value


def test_gamma2_stops_on_a_refused_schur_factorization(refuse_sdp_call):
    # a refusal is not retried: the solve ends on the bracket it had
    calls = refuse_sdp_call("cholesky", 4)
    with pytest.raises(tw.SolverFailure) as exc:
        tw.gamma2(_complex(np.random.default_rng(3), 8))
    assert len(calls) == 4
    _assert_failed_on_a_bracket(exc, 4)


@pytest.mark.parametrize("vectors, at, iterations", [(1, 1, 1), (0, 3, 2)],
                         ids=["scaling", "dual-bound"])
def test_gamma2_stops_on_a_failed_svd(monkeypatch, vectors, at, iterations):
    # _svd falls back from gesdd to gesvd inside, so a refused _svd is both
    # drivers refusing.  The only SVD with vectors is the scaling's; of the
    # SVDs without vectors the first is the start point's and the third the
    # second iteration's bound
    svd, calls = sdp._svd, []

    def refuse(A, compute_uv=1):
        if compute_uv == vectors:
            calls.append(A.shape)
            if len(calls) >= at:
                raise np.linalg.LinAlgError("forced")
        return svd(A, compute_uv=compute_uv)

    monkeypatch.setattr(sdp, "_svd", refuse)
    with pytest.raises(tw.SolverFailure) as exc:
        tw.gamma2(_complex(np.random.default_rng(3), 8))
    _assert_failed_on_a_bracket(exc, iterations)


@pytest.mark.parametrize("at", [1, 2, 3], ids=["start point", "dual bound", "scaling"])
def test_every_svd_falls_back_to_gesvd(refuse_sdp_call, at):
    # gesdd's first three calls are the start point's, the first bound's
    # and the first scaling's; each refusal is answered by gesvd
    F = _complex(np.random.default_rng(3), 8)
    value = tw.gamma2(F).value
    calls = refuse_sdp_call("zgesdd", at)
    sol = tw.gamma2(F)
    assert len(calls) > at and not sol.ill_conditioned
    assert abs(sol.value - value) <= 1e-6


def test_gamma2_stops_on_a_failed_step_search(refuse_sdp_call):
    # four searches per iteration: the fifth is the second iteration's first
    refuse_sdp_call("_psd_max_step", 5)
    with pytest.raises(tw.SolverFailure) as exc:
        tw.gamma2(_complex(np.random.default_rng(3), 8))
    _assert_failed_on_a_bracket(exc, 2)


def test_gamma2_discards_a_step_whose_iterate_is_refused(refuse_sdp_call):
    # zpotrf factors S0, then Zp, W11 and the new S in each step: the
    # seventh call is the second step's new S, so the partial describes the
    # first step's iterate and its factor
    calls = refuse_sdp_call("zpotrf", 7)
    with pytest.raises(tw.SolverFailure) as exc:
        tw.gamma2(_complex(np.random.default_rng(3), 8))
    assert len(calls) == 7
    _assert_failed_on_a_bracket(exc, 2)
    part = exc.value.partial
    assert part.value == part.gram[0, 0].real
    assert np.abs(part.xi @ part.eta.conj().T - part.gram[:8, 8:]).max() <= 1e-13


@pytest.mark.parametrize("name", ["zpotrf", "_svd"])
def test_gamma2_fails_typed_when_the_start_point_is_refused(refuse_sdp_call, name):
    # the first SVD and the first factorization are the start point's; no
    # iterate exists yet, so the failure carries no partial
    refuse_sdp_call(name, 1)
    with pytest.raises(tw.SolverFailure, match="could not start") as exc:
        tw.gamma2(_complex(np.random.default_rng(3), 8))
    assert exc.value.partial is None


def test_gamma2_keeps_the_bracket_when_weak_duality_fails(inflate_dual_bound):
    # the second bound, inflated tenfold, lies above the value: the solve
    # stops there, and its partial is the iterate it stood on
    g = tw.cyclic_product([3, 3])
    phi = tw.GroupFunction(g, np.random.default_rng(1).standard_normal(9) + 0j)
    F = tw.schur_symbol(phi, tw.trivial_cocycle(g), tw.bilinear_cocycle(g, [[0, 1], [0, 0]]))
    inflate_dual_bound(2)
    with pytest.raises(tw.CertificateError, match="weak duality") as exc:
        tw.gamma2(F)
    part = exc.value.partial
    assert part.iterations == 2 and not part.ill_conditioned
    assert part.dual_bound <= part.value
    assert np.abs(part.xi @ part.eta.conj().T - F).max() <= 1e-12
    # the message states both bounds in the caller's units, as the partial does
    dual, primal = re.fullmatch(r"weak duality violated: dual (\S+) > primal (\S+)",
                                str(exc.value)).groups()
    assert float(primal) == part.value and float(dual) > part.value


def _nan_schur_factor(at_call, entry):
    """sdp.cholesky as OpenBLAS behaves on a NaN: info 0, a non-finite factor."""
    factor, calls = sdp.cholesky, []

    def spoiled(a):
        L = factor(a)
        calls.append(a.shape)
        if len(calls) >= at_call:
            L[entry] = np.nan
        return L
    return spoiled


@pytest.mark.parametrize("at_call", [1, 3])
@pytest.mark.parametrize("entry", [(-1, -1), (-1, 0)], ids=["diagonal", "lower"])
def test_gamma2_fails_typed_on_a_non_finite_schur_factor(monkeypatch, at_call, entry):
    F = _complex(np.random.default_rng(3), 8)
    monkeypatch.setattr(sdp, "cholesky", _nan_schur_factor(at_call, entry))
    with pytest.raises(tw.SolverFailure) as exc:
        tw.gamma2(F)
    part = exc.value.partial
    assert part.ill_conditioned and part.iterations == at_call
    assert np.isfinite([part.value, part.dual_bound, part.gap]).all()
    assert np.isfinite(part.gram).all() and np.isfinite(part.xi).all()


def _solution_or_partial(F):
    # a row-scaled input can stop short of tol (the closure is absolute);
    # its partial carries the same kind of witness
    try:
        return tw.gamma2(F)
    except tw.SolverFailure as exc:
        return exc.partial


@pytest.mark.parametrize("kind, n, seed", [
    *[pytest.param(kind, n, [n, len(kind)], id=f"{kind} n={n}")
      for kind in ["gaussian", "rank one", "zero row", "row scaled", "sparse", "all ones"]
      for n in (4, 12)],
    *[pytest.param("row scaled", 4 + k % 9, [7, k], id=f"row scaled rng [7, {k}]")
      for k in (5, 6, 12)]])
def test_gamma2_witness_is_the_lower_cholesky_factor_of_the_gram(kind, n, seed):
    # xi and eta are the first and last n rows of a lower triangular factor
    # of the gram, whose diagonal entries are all the value
    F = _t2_case(kind, n, np.random.default_rng(seed))
    sol = _solution_or_partial(F)
    assert sol.xi.shape == sol.eta.shape == (n, 2 * n)
    assert np.all(sol.xi[:, n:] == 0)
    rows = np.concatenate([np.linalg.norm(sol.xi, axis=1), np.linalg.norm(sol.eta, axis=1)])
    assert np.abs(rows ** 2 - sol.value).max() <= 1e-12 * sol.value
    assert np.abs(sol.xi @ sol.eta.conj().T - F).max() <= 1e-14 * np.abs(F).max()


# --- t2 splitting ---

def test_t2_zero_and_single_entry():
    sol = tw.t2_split(np.zeros((3, 3)))
    assert sol.value == 0.0
    E11 = np.zeros((3, 3))
    E11[0, 0] = 1.0
    sol = tw.t2_split(E11, tol=1e-6)
    assert abs(sol.value - 1.0) <= 1e-6
    assert abs(sol.dual_bound - 1.0) <= 1e-6


def test_t2_split_refuses_non_finite_entries():
    # bad input, as for gamma2, not a solver failure
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            tw.t2_split(np.array([[1.0, bad]]))


@pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf])
def test_t2_split_refuses_a_nan_or_negative_tolerance(tol, monkeypatch):
    # a NaN tolerance would run the whole budget and report it unspent
    monkeypatch.setattr(littlewood, "_admm_step", None)
    with pytest.raises(ValueError, match="tolerance"):
        tw.t2_split(np.ones((8, 8)), tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        tw.littlewood_norm(np.ones((8, 8)), tol=tol)
    assert tw.t2_split(np.zeros((2, 2)), tol=0.0).value == 0.0


@pytest.mark.parametrize("shape", [(5, 5), (12, 12), (3, 7)], ids=["5", "12", "3x7"])
def test_the_t2_witness_does_not_depend_on_the_multipliers_scale(shape):
    # C goes to the boundary of the dual feasible set whatever its size, so
    # a power-of-two scale cancels exactly
    C = _complex(np.random.default_rng(list(shape)), *shape)
    c = littlewood._dual_feasible(C)
    assert np.array_equal(littlewood._dual_feasible(2.0 ** -30 * C), c)
    sums = np.linalg.norm(c, axis=1).sum(), np.linalg.norm(c, axis=0).sum()
    assert abs(max(sums) - 1.0) <= 1e-12


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
# with the Anderson-accelerated over-relaxed split; each closes at the first
# check
_T2_PINS = {
    6: (3.449186966830323, 3.449186966830294, 50),
    16: (5.697623753525566, 5.69762375352535, 50),
    32: (8.125862944835047, 8.125862899401076, 50),
}

# value and dual bound of the n = 16 case under the fixed unit penalty (900
# steps); both runs certify, so each bracket must contain the other's norm
_UNIT_PENALTY_T2_16 = (5.6976237635426354, 5.697620665562662)

# value and dual bound of the unrelaxed split started at the unit penalty
# (n = 16 and 32, 500 and 1100 steps), kept as brackets in the same way
_UNRELAXED_T2 = {
    16: (5.69762377800187, 5.697621871164705),
    32: (8.125862958405884, 8.125858188907939),
}

# value and dual bound of the over-relaxed split without acceleration
# (n = 6, 16 and 32: 100, 150 and 500 steps), kept as brackets in the same way
_OVER_RELAXED_T2 = {
    6: (3.4491869671295357, 3.4491869646915903),
    16: (5.697623824614803, 5.697622452310087),
    32: (8.125862941428549, 8.125860533603202),
}


@pytest.mark.parametrize("n", sorted(_T2_PINS))
def test_t2_split_is_pinned(n):
    value, dual_bound, iterations = _T2_PINS[n]
    sol = tw.t2_split(_complex(np.random.default_rng(n), n))
    assert sol.iterations == iterations
    assert abs(sol.value - value) <= 1e-12 * value
    assert abs(sol.dual_bound - dual_bound) <= 1e-12 * value
    assert not sol.budget_exhausted


def _assert_brackets_overlap(n, old_value, old_dual):
    sol = tw.t2_split(_complex(np.random.default_rng(n), n))
    assert sol.dual_bound <= old_value
    assert old_dual <= sol.value


def test_t2_split_brackets_agree_with_the_unit_penalty():
    _assert_brackets_overlap(16, *_UNIT_PENALTY_T2_16)


@pytest.mark.parametrize("n", sorted(_UNRELAXED_T2))
def test_t2_split_brackets_agree_with_the_unrelaxed_split(n):
    _assert_brackets_overlap(n, *_UNRELAXED_T2[n])


@pytest.mark.parametrize("n", sorted(_OVER_RELAXED_T2))
def test_t2_split_brackets_agree_with_the_unaccelerated_split(n):
    _assert_brackets_overlap(n, *_OVER_RELAXED_T2[n])


@pytest.mark.parametrize("n", [16, 24, 32])
def test_t2_split_closes_gaussians_within_two_checks(n):
    # complex Gaussians like those of the certify benchmark; without
    # acceleration these took 150 to 600 steps
    for draw in range(5):
        sol = tw.t2_split(_complex(np.random.default_rng([n, draw]), n))
        assert not sol.budget_exhausted and sol.gap <= 1e-5
        assert sol.iterations <= 100


@pytest.mark.parametrize("shape", [(24, 24), (12, 30)], ids=["24x24", "12x30"])
def test_t2_split_certifies_when_extrapolation_keeps_failing(shape):
    # on all-ones matrices the safeguard rejects 15 of 20 and 10 of 28
    # extrapolations before the first check; accepting them all, the 12 x 30
    # split diverges and spends the whole budget
    sol = tw.t2_split(np.ones(shape))
    assert not sol.budget_exhausted and sol.gap <= 1e-5
    assert abs(sol.value - np.sqrt(min(shape))) <= 1e-5
    assert sol.dual_bound <= sol.value


def test_t2_split_closes_on_a_sparse_matrix():
    # with the unit penalty this case spent all 40000 steps at a gap of 1.38e-5;
    # the over-relaxed split takes 1200, or 5550 if balancing reads the
    # unrelaxed residual, and accelerated 500 on either residual
    rng = np.random.default_rng([4, 12, 8])
    psi = _complex(rng, 12) * (rng.random((12, 12)) < 0.3)
    sol = tw.t2_split(psi, tol=1e-5)
    assert not sol.budget_exhausted and sol.gap <= 1e-5
    assert sol.iterations < littlewood.MAX_ITER
    assert sol.iterations <= 600


def _t2_case(kind, n, rng, m=None):
    z = _complex(rng, n, m)
    if kind == "rank one":
        return np.outer(z[0], z[1])
    if kind == "zero row":
        z[n // 2] = 0
    elif kind == "row scaled":
        z *= 10.0 ** rng.uniform(-4, 4, (n, 1))
    elif kind == "sparse":
        z *= rng.random(z.shape) < 0.3
    elif kind == "all ones":
        z = np.ones(z.shape)
    return z


@pytest.mark.parametrize("n", [4, 12])
@pytest.mark.parametrize("kind", ["gaussian", "rank one", "zero row",
                                  "row scaled", "sparse", "all ones"])
def test_t2_split_closes_on_every_kind(kind, n):
    psi = _t2_case(kind, n, np.random.default_rng([n, len(kind)]))
    sol = tw.t2_split(psi)
    assert not sol.budget_exhausted and sol.gap <= 1e-5
    assert np.abs(sol.psi1 + sol.psi2 - psi).max() <= 1e-15 * np.abs(psi).max()
    assert sol.dual_bound <= sol.value


def test_t2_split_dual_bound_never_exceeds_its_value():
    # at gaps of rounding size the computed pairing can exceed the computed
    # value; without the rounding shrink of the dual witness, 10 of these 72
    # cases did, by up to 3.6e-16 relative
    for kind in ["gaussian", "rank one", "zero row", "row scaled", "sparse", "all ones"]:
        for n in (5, 6):
            for draw in range(6):
                psi = _t2_case(kind, n, np.random.default_rng([n, draw, len(kind)]))
                sol = tw.t2_split(psi)
                assert sol.dual_bound <= sol.value, (kind, n, draw)


def test_t2_split_balances_on_the_relaxed_residual():
    # at the check of step 100 the relaxed primal residual |h + psi2 - P| is
    # 0.074 times the dual one, so rho halves and the split closes at step
    # 150; the unrelaxed residual |psi1 + psi2 - P| reads 1.78 times, leaves
    # rho as it is and takes 200 steps
    psi = _t2_case("rank one", 24, np.random.default_rng([24, 24, 1, 8]))
    sol = tw.t2_split(psi)
    assert not sol.budget_exhausted and sol.gap <= 1e-5
    assert sol.iterations <= 150


def test_t2_split_closes_a_rank_one_matrix():
    # without acceleration this case took 4700 steps, and 8350 with balancing
    # on the unrelaxed residual; accelerated it takes 250 on either residual
    psi = _t2_case("rank one", 40, np.random.default_rng([40, 8, 1]))
    sol = tw.t2_split(psi)
    assert not sol.budget_exhausted and sol.gap <= 1e-5
    assert sol.iterations <= 300


@pytest.mark.parametrize("kind", ["gaussian", "row scaled", "sparse"])
def test_t2_split_closes_on_rectangular_matrices(kind):
    # transposing swaps the max-row and max-column terms, so t2(psi) and
    # t2(psi^T) are one norm and their certified brackets must overlap
    psi = _t2_case(kind, 8, np.random.default_rng([8, 40, len(kind)]), 40)
    wide, tall = tw.t2_split(psi), tw.t2_split(psi.T)
    for sol, m in ((wide, psi), (tall, psi.T)):
        assert sol.psi1.shape == m.shape
        assert not sol.budget_exhausted and sol.gap <= 1e-5
        assert np.abs(sol.psi1 + sol.psi2 - m).max() <= 1e-15 * np.abs(m).max()
    assert wide.dual_bound <= tall.value and tall.dual_bound <= wide.value


_magnitudes = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([0.125, 0.5, 1.0, 3.0]),
              st.floats(0.0, 4.0, allow_subnormal=False)),
    min_size=1, max_size=12)


@given(_magnitudes, st.booleans())
def test_ball_scales_match_the_unit_ball_oracle(r, inside):
    r = np.array(r)
    if inside:
        r = r / (r.sum() + 1.0)
    s = littlewood._ball_scales(r, 1.0)
    if s is None:
        assert r.sum() <= 1.0
        s = np.ones_like(r)
    assert np.array_equal(s, project_l1_ball(r))


@given(_magnitudes, st.sampled_from([1e-3, 0.1, 1 / 3, 2.0, 7.5]))
def test_ball_scales_project_into_the_ball(r, radius):
    r = np.array(r)
    s = littlewood._ball_scales(r, radius)
    if s is None:
        assert r.sum() <= radius
        return
    assert np.all((0.0 <= s) & (s <= 1.0))
    rounding = 4 * r.size * np.finfo(float).eps * r.sum()
    assert abs((r * s).sum() - radius) <= rounding


def test_t2_split_reports_an_exhausted_budget(monkeypatch):
    # the accelerated split certifies this case to 2e-13 in 50 steps; after
    # 20 its gap is still about 1e-6
    monkeypatch.setattr(littlewood, "MAX_ITER", 20)
    psi = _complex(np.random.default_rng(16), 16)
    tol = 1e-12
    sol = tw.t2_split(psi, tol=tol)
    assert sol.iterations == 20
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
