"""Twisted convolution, regular representation, lifts, extension, bullet action."""

import numpy as np
import pytest

import twista as tw
from twista.errors import GroupMismatch, InvalidTable, MissingCoefficients

from oracles import regular_rep


def rand_fn(group, rng):
    v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return tw.GroupFunction(group, v)


@pytest.fixture(scope="module")
def s3_sigma():
    g = tw.symmetric(3)
    rng = np.random.default_rng(11)
    sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, rng)
    return g, sigma


def test_delta_convolution_single_term(s3_sigma):
    g, sigma = s3_sigma
    for s in range(g.order):
        for t in range(g.order):
            out = tw.twisted_convolve(tw.delta(g, s), tw.delta(g, t), sigma)
            expect = np.zeros(g.order, dtype=complex)
            expect[g.mul[s, t]] = sigma.values[s, t]
            assert np.abs(out.values - expect).max() < 1e-15


def test_trivial_cocycle_is_plain_convolution():
    g = tw.dihedral(4)
    rng = np.random.default_rng(0)
    f, h = rand_fn(g, rng), rand_fn(g, rng)
    out = tw.twisted_convolve(f, h, tw.trivial_cocycle(g))
    direct = np.zeros(g.order, dtype=complex)
    for t in range(g.order):
        for u in range(g.order):
            direct[g.mul[t, u]] += f.values[t] * h.values[u]
    assert np.abs(out.values - direct).max() < 1e-12


@pytest.mark.parametrize("p,q,r", [(1, 1, 1), (1, 2, 2), (2, 2, np.inf)])
def test_young_inequality(p, q, r, s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(5)
    for _ in range(20):
        f, h = rand_fn(g, rng), rand_fn(g, rng)
        conv = tw.twisted_convolve(f, h, sigma)
        assert conv.norm(r) <= f.norm(p) * h.norm(q) + 1e-10


def test_involution_on_deltas(s3_sigma):
    g, sigma = s3_sigma
    assert np.abs(tw.twisted_involution(tw.delta(g, 0), sigma).values
                  - tw.delta(g, 0).values).max() < 1e-15
    for s in range(1, g.order):
        out = tw.twisted_involution(tw.delta(g, s), sigma)
        expect = np.zeros(g.order, dtype=complex)
        expect[g.inv[s]] = np.conj(sigma.values[g.inv[s], s])
        assert np.abs(out.values - expect).max() < 1e-15


def test_involution_is_involutive(s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = rand_fn(g, rng)
        back = tw.twisted_involution(tw.twisted_involution(f, sigma), sigma)
        assert np.abs(back.values - f.values).max() < 1e-14


def test_anti_homomorphism_of_involution(s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(2)
    f, h = rand_fn(g, rng), rand_fn(g, rng)
    lhs = tw.twisted_involution(tw.twisted_convolve(f, h, sigma), sigma)
    rhs = tw.twisted_convolve(tw.twisted_involution(h, sigma),
                              tw.twisted_involution(f, sigma), sigma)
    assert np.abs(lhs.values - rhs.values).max() < 1e-12


def test_associativity(s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(3)
    for _ in range(10):
        f, h, k = rand_fn(g, rng), rand_fn(g, rng), rand_fn(g, rng)
        lhs = tw.twisted_convolve(tw.twisted_convolve(f, h, sigma), k, sigma)
        rhs = tw.twisted_convolve(f, tw.twisted_convolve(h, k, sigma), sigma)
        assert np.abs(lhs.values - rhs.values).max() < 1e-12


def test_regular_rep_unitarity_and_identity(s3_sigma):
    g, sigma = s3_sigma
    assert np.abs(regular_rep(sigma, 0) - np.eye(g.order)).max() < 1e-15
    for s in range(g.order):
        U = regular_rep(sigma, s)
        assert np.abs(U @ U.conj().T - np.eye(g.order)).max() < 1e-14


def test_projective_representation_law(s3_sigma):
    g, sigma = s3_sigma
    lam = tw.regular_rep_tensor(sigma)
    for s in range(g.order):
        for t in range(g.order):
            err = np.abs(lam[s] @ lam[t]
                         - sigma.values[s, t] * lam[g.mul[s, t]]).max()
            assert err < 1e-14


def test_regular_rep_tensor_matches_the_per_entry_oracle(suite_cocycles):
    for name in ("S3", "D4", "S4", "Z3xZ3"):
        for kind, sigma in suite_cocycles[name].items():
            lam = tw.regular_rep_tensor(sigma)
            for s in range(sigma.group.order):
                assert np.array_equal(lam[s], regular_rep(sigma, s)), (name, kind, s)


def test_regular_rep_z2_worked_example():
    g = tw.cyclic(2)
    sigma = tw.validate_cocycle([[0, 0], [0, 1]], 2, g)
    U = regular_rep(sigma, 1)
    assert np.abs(U - np.array([[0, -1], [1, 0]])).max() < 1e-15
    assert np.abs(U @ U + np.eye(2)).max() < 1e-15


def test_commutation_with_left_translation(s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(4)
    f, h = rand_fn(g, rng), rand_fn(g, rng)
    for s in range(g.order):
        U = regular_rep(sigma, s)
        lhs = tw.twisted_convolve(tw.GroupFunction(g, U @ f.values), h, sigma)
        rhs = tw.GroupFunction(g, U @ tw.twisted_convolve(f, h, sigma).values)
        assert np.abs(lhs.values - rhs.values).max() < 1e-12


def test_lift_identity_and_laws(s3_sigma):
    g, sigma = s3_sigma
    assert np.abs(tw.lift(tw.delta(g, 0), sigma).matrix - np.eye(g.order)).max() < 1e-15
    rng = np.random.default_rng(6)
    f, h = rand_fn(g, rng), rand_fn(g, rng)
    prod = tw.lift(tw.twisted_convolve(f, h, sigma), sigma)
    assert np.abs(prod.matrix - tw.lift(f, sigma).matrix @ tw.lift(h, sigma).matrix).max() < 1e-12
    star = tw.lift(tw.twisted_involution(f, sigma), sigma)
    assert np.abs(star.matrix - tw.lift(f, sigma).matrix.conj().T).max() < 1e-12
    # one term per entry, so the scatter and the sum of the lambdas agree exactly
    lams = sum(c * regular_rep(sigma, s) for s, c in enumerate(f.values))
    assert np.array_equal(tw.lift_matrix(f.values, sigma), lams)


def test_lift_injectivity_column_zero(s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(7)
    f = rand_fn(g, rng)
    M = tw.lift(f, sigma).matrix
    # column at the identity is f itself, permuted with unit phases
    assert np.abs(np.abs(M[:, 0]) - np.abs(f.values)).max() < 1e-14
    assert np.abs(M).max() >= np.abs(f.values).max() - 1e-14


def test_similarity_gives_star_isomorphism():
    g = tw.dihedral(3)
    rng = np.random.default_rng(8)
    base = tw.trivial_cocycle(g, 6)
    sigma2, _ = tw.random_coboundary_twist(base, 6, rng)
    sigma1, xi = tw.random_coboundary_twist(sigma2, 6, rng)
    scale = xi.values
    f, h = rand_fn(g, rng), rand_fn(g, rng)
    lhs = tw.twisted_convolve(f, h, sigma1).values * scale
    rhs = tw.twisted_convolve(tw.GroupFunction(g, f.values * scale),
                              tw.GroupFunction(g, h.values * scale), sigma2).values
    assert np.abs(lhs - rhs).max() < 1e-12
    inv_lhs = tw.twisted_involution(tw.GroupFunction(g, f.values * scale), sigma2).values
    inv_rhs = tw.twisted_involution(f, sigma1).values * scale
    assert np.abs(inv_lhs - inv_rhs).max() < 1e-12


def test_central_extension_trivial_cocycle_is_direct_product():
    g = tw.symmetric(3)
    sigma = tw.trivial_cocycle(g, 3)
    ce = tw.central_extension(sigma)
    # central circle factor commutes with everything
    for k in range(3):
        z = ce.index(0, k)
        assert all(ce.ext.mul[z, x] == ce.ext.mul[x, z] for x in range(ce.ext.order))
    direct = tw.direct_product(g, tw.cyclic(3))
    orders_ext = sorted(tw.element_order(ce.ext, a) for a in range(ce.ext.order))
    orders_dir = sorted(tw.element_order(direct, a) for a in range(direct.order))
    assert orders_ext == orders_dir


def test_central_extension_z2_gives_z4():
    g = tw.cyclic(2)
    sigma = tw.validate_cocycle([[0, 0], [0, 1]], 2, g)
    ce = tw.central_extension(sigma)
    assert ce.ext.order == 4
    assert max(tw.element_order(ce.ext, a) for a in range(4)) == 4


def test_projection_embedding_round_trip(s3_sigma):
    g, sigma = s3_sigma
    ce = tw.central_extension(sigma)
    rng = np.random.default_rng(9)
    for _ in range(5):
        f = rand_fn(g, rng)
        back = ce.project(ce.embed(f))
        assert np.abs(back.values - f.values).max() < 1e-14 * max(1.0, f.norm(np.inf))


def test_embedding_intertwines_convolutions(s3_sigma):
    g, sigma = s3_sigma
    ce = tw.central_extension(sigma)
    rng = np.random.default_rng(10)
    f, h = rand_fn(g, rng), rand_fn(g, rng)
    lhs = ce.embed(tw.twisted_convolve(f, h, sigma))
    rhs = ce.convolve(ce.embed(f), ce.embed(h))
    assert np.abs(lhs.values - rhs.values).max() < 1e-12


def test_central_extension_of_a_non_cocycle_is_invalid():
    g = tw.cyclic(3)
    expo = np.zeros((3, 3), dtype=np.int64)
    expo[1, 1] = 1                      # fails the cocycle identity
    with pytest.raises(InvalidTable):
        tw.central_extension(tw.Cocycle(g, 2, expo))


def test_central_extension_of_a_twisted_s5_builds():
    g = tw.symmetric(5)
    sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4,
                                          np.random.default_rng(8))
    ce = tw.central_extension(sigma)       # validates a 480 x 480 table
    assert ce.ext.order == 480
    s, t = 7, 11
    assert ce.ext.mul[ce.index(s, 1), ce.index(t, 2)] == ce.index(
        g.mul[s, t], 3 + sigma.exponents[s, t])


def test_comultiply_identity_and_pairing():
    g = tw.cyclic(4)
    rng = np.random.default_rng(12)
    sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, rng)
    ident = tw.lift(tw.delta(g, 0), sigma)
    M = tw.comultiply(ident)
    assert np.abs(M - np.eye(16)).max() < 1e-14
    # pairing <Gamma(T), u x v> = <T, uv> for T = lambda(s) and random T
    for s in range(g.order):
        T = tw.lift(tw.delta(g, s), sigma)
        u, v = rand_fn(g, rng), rand_fn(g, rng)
        lhs = tw.comultiply_pair(tw.comultiply(T), u, v, sigma)
        assert abs(lhs - u.values[s] * v.values[s]) < 1e-12
    T = tw.lift(rand_fn(g, rng), sigma)
    u, v = rand_fn(g, rng), rand_fn(g, rng)
    lhs = tw.comultiply_pair(tw.comultiply(T), u, v, sigma)
    rhs = tw.pair_operator(T, tw.GroupFunction(g, u.values * v.values))
    assert abs(lhs - rhs) < 1e-12


def test_bullet_action_identity_and_coefficients(s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(13)
    u = rand_fn(g, rng)
    assert np.abs(tw.bullet_action(0, u, sigma).values - u.values).max() < 1e-15
    # coefficient identity: bullet of <lam(.) xi, xi> is <lam(.) xi, lam(s) xi>
    xi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    lam = tw.regular_rep_tensor(sigma)
    u = tw.GroupFunction(g, np.einsum("sij,j,i->s", lam, xi, np.conj(xi)))
    for s in range(g.order):
        out = tw.bullet_action(s, u, sigma)
        expect = np.einsum("tij,j,i->t", lam, xi, np.conj(lam[s] @ xi))
        assert np.abs(out.values - expect).max() < 1e-12


def test_bullet_dual_pairing(s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(14)
    for s in range(g.order):
        T = tw.lift(rand_fn(g, rng), sigma)
        u = rand_fn(g, rng)
        lhs = tw.pair_operator(T, tw.bullet_action(s, u, sigma))
        adj = regular_rep(sigma, s).conj().T @ T.matrix
        Tadj = tw.TwistedOperator.from_matrix(sigma, adj)
        rhs = tw.pair_operator(Tadj, u)
        assert abs(lhs - rhs) < 1e-12


def test_center_dimension_cases():
    z6 = tw.cyclic(6)
    assert tw.center_dimension(tw.trivial_cocycle(z6)) == 6
    s3 = tw.symmetric(3)
    assert tw.center_dimension(tw.trivial_cocycle(s3)) == 3
    g = tw.cyclic_product([3, 3])
    sigma = tw.bilinear_cocycle(g, [[0, 1], [0, 0]], m=3)
    assert tw.center_dimension(sigma) == 1
    sigma2 = tw.bilinear_cocycle(tw.cyclic_product([4, 4]), [[0, 2], [0, 0]], m=4)
    assert tw.center_dimension(sigma2) == 4


def test_twisted_operator_invariants(s3_sigma):
    g, sigma = s3_sigma
    rng = np.random.default_rng(15)
    f = rand_fn(g, rng)
    T = tw.lift(f, sigma)
    assert np.abs(T.coeffs - f.values).max() < 1e-12
    # off-span matrices are rejected
    bad = np.zeros((g.order, g.order), dtype=complex)
    bad[0, 1] = 1.0
    bad[0, 2] = 1.0
    with pytest.raises(MissingCoefficients):
        tw.TwistedOperator.from_matrix(sigma, bad)


def test_from_matrix_round_trip_comultiplies_as_the_lift(s3_sigma):
    # an operator read back from its matrix is the lift it came from, so
    # comultiply takes it as it takes the lift
    g, sigma = s3_sigma
    f = rand_fn(g, np.random.default_rng(18))
    T = tw.lift(f, sigma)
    back = tw.TwistedOperator.from_matrix(sigma, T.matrix)
    assert np.abs(back.coeffs - f.values).max() < 1e-12
    assert np.abs(back.matrix - T.matrix).max() < 1e-12
    assert np.abs(tw.comultiply(back) - tw.comultiply(T)).max() < 1e-12


def test_objects_built_on_a_cocycle_take_its_group(s3_sigma):
    g, sigma = s3_sigma
    assert tw.TwistedOperator(sigma, np.ones(g.order)).group is sigma.group
    ext = tw.central_extension(sigma)
    assert ext.base is sigma.group and ext.m == sigma.m


def _array_holders():
    g = tw.cyclic_product([2, 2])
    sigma = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    phi = tw.GroupFunction(g, np.arange(1.0, 5.0))
    pd = tw.autocorrelation_pd(phi, sigma)
    return [
        lambda: tw.GroupFunction(g, phi.values.copy()),
        lambda: tw.lift(phi, sigma),
        lambda: tw.normalize_cocycle(sigma)[1],
        lambda: tw.central_extension(sigma),
        lambda: tw.cb_multiplier_norm(phi, sigma, sigma).sdp,
        lambda: tw.cb_multiplier_norm(phi, sigma, sigma),
        lambda: tw.littlewood_T2_norm(phi),
        lambda: tw.fourier_stieltjes_norm(phi, sigma),
        lambda: tw.gns(pd, sigma),
    ]


def test_objects_holding_arrays_compare_by_identity():
    for build in _array_holders():
        a, b = build(), build()
        assert (a == b) is False and (a == a) is True, type(a)
        assert isinstance(hash(a), int)


def test_group_mismatch_raises(s3_sigma):
    g, sigma = s3_sigma
    other = tw.cyclic(6)
    rng = np.random.default_rng(16)
    with pytest.raises(GroupMismatch):
        tw.twisted_convolve(rand_fn(other, rng), rand_fn(g, rng), sigma)


def test_function_json_round_trip(tmp_path):
    g = tw.cyclic(3)
    rng = np.random.default_rng(17)
    f = rand_fn(g, rng)
    path = tmp_path / "f.json"
    tw.save_function(f, path)
    f2 = tw.load_function(path)
    assert f2.group == g
    assert np.abs(f2.values - f.values).max() == 0.0
