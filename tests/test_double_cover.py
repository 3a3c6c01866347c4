"""Integration: a cohomologically nontrivial cocycle from a double cover.

The generalized quaternion group of order 16 is a nonsplit central extension
of the dihedral group of order 8 by {+1, -1}.  Reading the cocycle off a
coset section gives a sign-valued cocycle on D4 that is NOT a coboundary,
so this exercises the whole stack on a nonabelian group with a genuinely
twisted algebra: C[D4, sigma] splits into two 2x2 matrix blocks.
"""

import numpy as np
import pytest

import twista as tw
from oracles import center_dimension_svd, coboundary_solution_full


def quaternion16():
    """Q16 = <x, y | x^8 = 1, y^2 = x^4, y x y^-1 = x^-1>, index j*8 + a for x^a y^j."""
    def mul(j, a, k, b):
        if j == 0:
            return (k, (a + b) % 8)
        if k == 0:
            return (1, (a - b) % 8)
        return (0, (a - b + 4) % 8)

    table = np.zeros((16, 16), dtype=int)
    for j in (0, 1):
        for a in range(8):
            for k in (0, 1):
                for b in range(8):
                    rj, ra = mul(j, a, k, b)
                    table[j * 8 + a, k * 8 + b] = rj * 8 + ra
    return tw.from_table(table)


@pytest.fixture(scope="module")
def cover_data():
    E = quaternion16()
    # center is {1, x^4}; cosets have representatives x^a y^j with a < 4
    z = 4  # index of x^4
    assert all(E.mul[z, t] == E.mul[t, z] for t in range(16))
    assert tw.element_order(E, z) == 2

    def rep(q):          # quotient index (j, abar) -> representative in E
        j, abar = divmod(q, 4)
        return j * 8 + abar

    def proj(e):         # E index -> quotient index
        j, a = divmod(e, 8)
        return j * 4 + a % 4

    qmul = np.zeros((8, 8), dtype=int)
    expo = np.zeros((8, 8), dtype=int)
    for u in range(8):
        for v in range(8):
            prod = E.mul[rep(u), rep(v)]
            qmul[u, v] = proj(prod)
            expo[u, v] = 0 if prod == rep(proj(prod)) else 1
    Q = tw.from_table(qmul)
    sigma = tw.validate_cocycle(expo, 2, Q)
    return E, Q, sigma


def test_quotient_is_dihedral(cover_data):
    _, Q, _ = cover_data
    assert Q.order == 8 and not Q.is_abelian
    orders = sorted(tw.element_order(Q, a) for a in range(8))
    assert orders == sorted(tw.element_order(tw.dihedral(4), a) for a in range(8))


def test_cover_cocycle_is_not_a_coboundary(cover_data):
    _, Q, sigma = cover_data
    assert tw.coboundary_test(sigma, tw.trivial_cocycle(Q, 2)) is None
    assert coboundary_solution_full(sigma, tw.trivial_cocycle(Q, 2)) is None
    # nor over mu_32: a T-valued witness could be taken in mu_{2|G|} = mu_16
    assert tw.coboundary_test(sigma.rescaled(32), tw.trivial_cocycle(Q, 32)) is None


def test_central_extension_rebuilds_the_cover(cover_data):
    E, Q, sigma = cover_data
    ce = tw.central_extension(sigma)
    assert ce.ext.order == 16
    orders_ext = sorted(tw.element_order(ce.ext, a) for a in range(16))
    orders_cover = sorted(tw.element_order(E, a) for a in range(16))
    assert orders_ext == orders_cover   # both have the quaternion profile


def test_twisted_algebra_splits_into_two_matrix_blocks(cover_data):
    _, Q, sigma = cover_data
    assert tw.center_dimension(sigma) == 2
    assert tw.center_dimension(tw.trivial_cocycle(Q)) == 5  # conjugacy classes of D4
    assert center_dimension_svd(sigma) == 2
    assert center_dimension_svd(tw.trivial_cocycle(Q)) == 5


def test_norm_equality_on_the_twisted_dihedral(cover_data):
    _, Q, sigma = cover_data
    report = tw.amenability_report(sigma, n_samples=10, seed=7, tol=1e-6)
    assert report.inclusion_violations == 0
    assert report.max_rel_gap <= 1e-4


def test_pd_theory_on_the_twisted_dihedral(cover_data):
    _, Q, sigma = cover_data
    rng = np.random.default_rng(3)
    f = tw.GroupFunction(Q, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    phi = tw.autocorrelation_pd(f, sigma)
    ok, _ = tw.is_sigma_pd(phi, sigma)
    assert ok
    assert tw.positive_type_check(phi, sigma, n_random=50)
    res = tw.gns(phi, sigma)
    assert res.residual <= 1e-10


def test_comultiply_matches_kronecker_sum_on_the_twisted_dihedral(cover_data):
    _, Q, sigma = cover_data
    n = Q.order
    rng = np.random.default_rng(5)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    M = tw.comultiply(tw.lift(tw.GroupFunction(Q, c), sigma))
    # oracle: the definition sum_s c_s lambda_sigma(s) (x) lambda(s)
    lam_sigma = tw.regular_rep_tensor(sigma)
    lam = tw.regular_rep_tensor(tw.trivial_cocycle(Q))
    oracle = np.zeros((n * n, n * n), dtype=complex)
    for s in range(n):
        oracle += c[s] * np.kron(lam_sigma[s], lam[s])
    assert np.array_equal(M, oracle)
    coeffs = tw.algebra.tensor_coefficients(M, sigma)
    assert np.abs(np.diag(coeffs) - c).max() < 1e-14
    assert np.abs(coeffs - np.diag(np.diag(coeffs))).max() < 1e-14
    # on any matrix, c[s, t] is the normalised trace pairing with lambda_sigma(s) (x) lambda(t)
    R = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    expect = np.array([[np.vdot(np.kron(lam_sigma[s], lam[t]), R) for t in range(n)]
                       for s in range(n)]) / (n * n)
    assert np.abs(tw.algebra.tensor_coefficients(R, sigma) - expect).max() < 1e-12
