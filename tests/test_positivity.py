"""Positive definiteness: kernel tests, oracle agreement, GNS reconstruction."""

import numpy as np
import pytest

import twista as tw
from twista.errors import DegenerateState, NotPositiveDefinite, ZeroVector


def rand_fn(group, rng):
    v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return tw.GroupFunction(group, v)


@pytest.fixture(scope="module")
def z3z3_sigma():
    g = tw.cyclic_product([3, 3])
    return g, tw.bilinear_cocycle(g, [[0, 1], [0, 0]])


def test_kernel_delta_e_is_identity(z3z3_sigma):
    g, sigma = z3z3_sigma
    norm_sigma, _ = tw.normalize_cocycle(sigma)
    K = tw.pd_kernel(tw.delta(g, 0), norm_sigma)
    assert np.abs(K - np.eye(g.order)).max() < 1e-14


def test_kernel_constant_one_trivial_sigma():
    g = tw.cyclic(5)
    K = tw.pd_kernel(tw.GroupFunction(g, np.ones(5)), tw.trivial_cocycle(g))
    assert np.abs(K - np.ones((5, 5))).max() < 1e-15
    ok, mineig = tw.is_sigma_pd(tw.GroupFunction(g, np.ones(5)), tw.trivial_cocycle(g))
    assert ok and mineig > -1e-12


def test_autocorrelation_kernels_are_psd(z3z3_sigma):
    g, sigma = z3z3_sigma
    rng = np.random.default_rng(0)
    for _ in range(10):
        phi = tw.autocorrelation_pd(rand_fn(g, rng), sigma)
        ok, mineig = tw.is_sigma_pd(phi, sigma)
        assert ok and mineig > -1e-10
        assert abs(phi.values[0] - 1.0) < 1e-12


def test_delta_s_not_pd_on_z2():
    g = tw.cyclic(2)
    triv = tw.trivial_cocycle(g)
    phi = tw.delta(g, 1)
    K = tw.pd_kernel(phi, triv)
    assert np.abs(K - np.array([[0, 1], [1, 0]])).max() < 1e-15
    ok, mineig = tw.is_sigma_pd(phi, triv)
    assert not ok and abs(mineig + 1.0) < 1e-12


def test_delta_e_is_pd(z3z3_sigma):
    g, sigma = z3z3_sigma
    norm_sigma, _ = tw.normalize_cocycle(sigma)
    ok, _ = tw.is_sigma_pd(tw.delta(g, 0), norm_sigma)
    assert ok
    assert tw.positive_type_check(tw.delta(g, 0), norm_sigma, n_random=50)


def test_autocorrelation_matches_convolution_route():
    g = tw.symmetric(3)
    rng = np.random.default_rng(1)
    sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, rng)
    for _ in range(10):
        f = rand_fn(g, rng)
        f = tw.GroupFunction(g, f.values / np.linalg.norm(f.values))
        phi = tw.autocorrelation_pd(f, sigma)
        other = np.conj(
            tw.twisted_convolve(f, tw.twisted_involution(f, sigma), sigma).values)
        assert np.abs(phi.values - other).max() < 1e-12


def test_autocorrelation_delta_and_uniform_cases(z3z3_sigma):
    g, sigma = z3z3_sigma
    norm_sigma, _ = tw.normalize_cocycle(sigma)
    out = tw.autocorrelation_pd(tw.delta(g, 0), norm_sigma)
    assert np.abs(out.values - tw.delta(g, 0).values).max() < 1e-15
    z2 = tw.cyclic(2)
    uniform = tw.GroupFunction(z2, np.ones(2))
    out = tw.autocorrelation_pd(uniform, tw.trivial_cocycle(z2))
    assert np.abs(out.values - 1.0).max() < 1e-15


def test_autocorrelation_rejects_zero():
    g = tw.cyclic(3)
    with pytest.raises(ZeroVector):
        tw.autocorrelation_pd(tw.GroupFunction(g, np.zeros(3)), tw.trivial_cocycle(g))


def test_conjugate_closure(z3z3_sigma):
    g, sigma = z3z3_sigma
    rng = np.random.default_rng(2)
    phi = tw.autocorrelation_pd(rand_fn(g, rng), sigma)
    conj_phi = tw.GroupFunction(g, np.conj(phi.values))
    ok, _ = tw.is_sigma_pd(conj_phi, tw.cocycle_conjugate(sigma))
    assert ok


def test_product_closure(z3z3_sigma):
    g, sigma1 = z3z3_sigma
    sigma2 = tw.bilinear_cocycle(g, [[0, 0], [1, 0]])
    rng = np.random.default_rng(3)
    for _ in range(5):
        phi1 = tw.autocorrelation_pd(rand_fn(g, rng), sigma1)
        phi2 = tw.autocorrelation_pd(rand_fn(g, rng), sigma2)
        prod = tw.GroupFunction(g, phi1.values * phi2.values)
        ok, _ = tw.is_sigma_pd(prod, tw.cocycle_product(sigma1, sigma2))
        assert ok


def test_modulus_bounded_by_value_at_identity(z3z3_sigma):
    g, sigma = z3z3_sigma
    rng = np.random.default_rng(4)
    for _ in range(20):
        phi = tw.autocorrelation_pd(rand_fn(g, rng), sigma)
        assert np.abs(phi.values).max() <= phi.values[0].real + 1e-10


def test_oracle_agreement_on_pd_and_non_pd(z3z3_sigma):
    g, sigma = z3z3_sigma
    rng = np.random.default_rng(5)
    for k in range(20):
        phi = tw.autocorrelation_pd(rand_fn(g, rng), sigma)
        kernel_ok, _ = tw.is_sigma_pd(phi, sigma)
        oracle_ok = tw.positive_type_check(phi, sigma, n_random=40, seed=k)
        assert kernel_ok and oracle_ok
        # strong perturbations: diagonal push, Hermitian pair scaling
        bad = phi.values.copy()
        bad[0] -= 2.0
        bad_phi = tw.GroupFunction(g, bad)
        assert not tw.is_sigma_pd(bad_phi, sigma)[0]
        assert not tw.positive_type_check(bad_phi, sigma, n_random=40, seed=k)
        s0 = int(rng.integers(1, g.order))
        bad2 = phi.values.copy()
        bad2[s0] *= 40.0
        bad2[g.inv[s0]] *= 40.0
        bad2_phi = tw.GroupFunction(g, bad2)
        assert not tw.is_sigma_pd(bad2_phi, sigma)[0]
        assert not tw.positive_type_check(bad2_phi, sigma, n_random=40, seed=k)


def test_gns_delta_e_full_dimension(z3z3_sigma):
    g, sigma = z3z3_sigma
    norm_sigma, _ = tw.normalize_cocycle(sigma)
    res = tw.gns(tw.delta(g, 0), norm_sigma)
    assert res.dim == g.order
    assert res.residual < 1e-10
    # sigma-representation law on the reconstructed unitaries
    for s in range(g.order):
        for t in range(g.order):
            err = np.abs(res.rep[s] @ res.rep[t]
                         - norm_sigma.values[s, t] * res.rep[g.mul[s, t]]).max()
            assert err < 1e-10


def test_gns_constant_one_is_one_dimensional():
    g = tw.cyclic(4)
    res = tw.gns(tw.GroupFunction(g, np.ones(4)), tw.trivial_cocycle(g))
    assert res.dim == 1
    assert np.abs(res.rep - 1.0).max() < 1e-12


def test_gns_round_trip_on_autocorrelations(z3z3_sigma):
    g, sigma = z3z3_sigma
    rng = np.random.default_rng(6)
    for _ in range(5):
        phi = tw.autocorrelation_pd(rand_fn(g, rng), sigma)
        res = tw.gns(phi, sigma)
        assert res.residual <= 1e-10
        assert abs(np.linalg.norm(res.cyclic) - 1.0) < 1e-12
        back = tw.coefficient(g, res.rep, res.cyclic, res.cyclic)
        assert np.abs(back.values - phi.values).max() < 1e-10
        # unitarity of the compressed action
        for s in range(g.order):
            err = np.abs(res.rep[s] @ res.rep[s].conj().T - np.eye(res.dim)).max()
            assert err < 1e-10


def test_gns_rejects_bad_inputs(z3z3_sigma):
    g, sigma = z3z3_sigma
    with pytest.raises(NotPositiveDefinite):
        tw.gns(tw.GroupFunction(g, np.eye(9)[1] + 1.0), sigma)
    with pytest.raises(DegenerateState):
        vals = np.ones(9, dtype=complex)
        vals[0] = -1.0
        tw.gns(tw.GroupFunction(g, vals), tw.trivial_cocycle(g))


def test_coefficient_trivial_rep():
    g = tw.cyclic(5)
    rep = np.ones((5, 1, 1), dtype=complex)
    out = tw.coefficient(g, rep, np.array([1.0]), np.array([1.0]))
    assert np.abs(out.values - 1.0).max() < 1e-15


def test_coefficient_of_regular_rep_is_pd():
    g = tw.symmetric(3)
    rng = np.random.default_rng(7)
    sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, rng)
    lam = tw.regular_rep_tensor(sigma)
    v = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    v /= np.linalg.norm(v)
    phi = tw.coefficient(g, lam, v, v)
    ok, mineig = tw.is_sigma_pd(phi, sigma)
    assert ok and mineig > -1e-10
