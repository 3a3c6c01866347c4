"""Norm pipelines: trace duality, multiplier SDP, Littlewood, cross-checks."""

import numpy as np
import pytest

import twista as tw


def rand_fn(group, rng):
    v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return tw.GroupFunction(group, v)


@pytest.fixture(scope="module")
def z3z3():
    g = tw.cyclic_product([3, 3])
    return g, tw.bilinear_cocycle(g, [[0, 1], [0, 0]])


def test_fs_norm_delta_e_is_one(z3z3):
    g, sigma = z3z3
    cert = tw.fourier_stieltjes_norm(tw.delta(g, 0), sigma)
    assert abs(cert.value - 1.0) < 1e-12
    assert np.abs(cert.dual_element.matrix - np.eye(g.order)).max() < 1e-12


def test_fs_norm_z2_closed_form():
    g = tw.cyclic(2)
    triv = tw.trivial_cocycle(g)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        cert = tw.fourier_stieltjes_norm(tw.GroupFunction(g, [a, b]), triv)
        expect = (abs(a + b) + abs(a - b)) / 2.0
        assert abs(cert.value - expect) < 1e-12


def test_fs_norm_of_pd_function_attains_at_identity(z3z3):
    g, sigma = z3z3
    rng = np.random.default_rng(1)
    for _ in range(5):
        phi = tw.autocorrelation_pd(rand_fn(g, rng), sigma)
        cert = tw.fourier_stieltjes_norm(phi, sigma)
        assert abs(cert.value - phi.values[0].real) < 1e-10


def test_fs_certificate_internals(z3z3):
    g, sigma = z3z3
    rng = np.random.default_rng(2)
    phi = rand_fn(g, rng)
    cert = tw.fourier_stieltjes_norm(phi, sigma)
    assert abs(cert.value - cert.singular_values.sum() / g.order) < 1e-12
    assert cert.pairing_check >= cert.value - 1e-8
    # dual element reproduces phi through the trace pairing
    lam = tw.regular_rep_tensor(sigma)
    for t in range(g.order):
        val = np.trace(lam[t] @ cert.dual_element.matrix) / g.order
        assert abs(val - phi.values[t]) < 1e-10


def test_fs_norm_homogeneity_and_triangle(z3z3):
    g, sigma = z3z3
    rng = np.random.default_rng(3)
    f1, f2 = rand_fn(g, rng), rand_fn(g, rng)
    v1 = tw.fourier_stieltjes_norm(f1, sigma).value
    v2 = tw.fourier_stieltjes_norm(f2, sigma).value
    s = tw.fourier_stieltjes_norm(tw.GroupFunction(g, f1.values + f2.values), sigma).value
    assert s <= v1 + v2 + 1e-10
    c = 2.5 - 1.5j
    vc = tw.fourier_stieltjes_norm(tw.GroupFunction(g, c * f1.values), sigma).value
    assert abs(vc - abs(c) * v1) < 1e-9


def test_schur_symbol_examples(z3z3):
    g, sigma = z3z3
    ones = tw.GroupFunction(g, np.ones(g.order))
    F = tw.schur_symbol(ones, sigma, sigma)
    assert np.abs(F - np.ones((g.order, g.order))).max() < 1e-14
    triv = tw.trivial_cocycle(g)
    F2 = tw.schur_symbol(tw.delta(g, 0), triv, triv)
    expect = (g.mul.T == 0).astype(float)
    assert np.abs(F2 - expect).max() < 1e-14
    F3 = tw.schur_symbol(ones, triv, sigma)
    assert np.abs(F3 - sigma.values.T).max() < 1e-14


def test_cb_norm_constant_one_is_one(z3z3):
    g, sigma = z3z3
    ones = tw.GroupFunction(g, np.ones(g.order))
    cert = tw.cb_multiplier_norm(ones, sigma, sigma)
    assert abs(cert.value - 1.0) <= 1e-6


def test_cb_norm_delta_on_z2():
    g = tw.cyclic(2)
    triv = tw.trivial_cocycle(g)
    cert = tw.cb_multiplier_norm(tw.delta(g, 0), triv, triv)
    assert abs(cert.value - 1.0) <= 1e-6


def test_cb_certificate_reconstruction(z3z3):
    g, sigma = z3z3
    rng = np.random.default_rng(4)
    phi = rand_fn(g, rng)
    triv = tw.trivial_cocycle(g)
    cert = tw.cb_multiplier_norm(phi, triv, sigma)
    F = tw.schur_symbol(phi, triv, sigma)
    rec = np.einsum("sk,tk->st", cert.xi, np.conj(cert.eta))
    assert np.abs(rec - F).max() <= 1e-8 * max(1.0, cert.value)
    mx = np.linalg.norm(cert.xi, axis=1).max()
    me = np.linalg.norm(cert.eta, axis=1).max()
    assert mx * me <= cert.value + cert.gap + 1e-9
    assert cert.dual_bound <= cert.value


def test_cb_norm_z2_closed_form():
    """On Z_2 the multiplier norm is the l1 norm of the character transform."""
    g = tw.cyclic(2)
    triv = tw.trivial_cocycle(g)
    rng = np.random.default_rng(21)
    for _ in range(5):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = tw.GroupFunction(g, [a, b])
        cert = tw.cb_multiplier_norm(phi, triv, triv)
        expect = (abs(a + b) + abs(a - b)) / 2.0
        assert abs(cert.value - expect) <= 1e-6
        assert cert.dual_bound >= expect - 1e-6


def test_amenable_equality_s3_trivial():
    g = tw.symmetric(3)
    triv = tw.trivial_cocycle(g)
    rng = np.random.default_rng(5)
    for _ in range(3):
        phi = rand_fn(g, rng)
        b = tw.fourier_stieltjes_norm(phi, triv).value
        m = tw.cb_multiplier_norm(phi, triv, triv).value
        assert abs(b - m) / b < 1e-4


def test_multiplier_apply_and_norm_inequality(z3z3):
    g, sigma = z3z3
    triv = tw.trivial_cocycle(g)
    ones = tw.GroupFunction(g, np.ones(g.order))
    rng = np.random.default_rng(6)
    psi = rand_fn(g, rng)
    out = tw.multiplier_apply(ones, psi, sigma, sigma)
    assert np.abs(out.values - psi.values).max() == 0.0
    phi = rand_fn(g, rng)
    psi_delta = tw.delta(g, 4)
    prod = tw.multiplier_apply(phi, psi_delta, triv, sigma)
    expect = np.zeros(g.order, dtype=complex)
    expect[4] = phi.values[4]
    assert np.abs(prod.values - expect).max() == 0.0
    # ||phi psi||_{A(sigma2)} <= ||phi||_cb ||psi||_{A(sigma1)}
    for _ in range(3):
        phi, psi = rand_fn(g, rng), rand_fn(g, rng)
        cb = tw.cb_multiplier_norm(phi, triv, sigma).value
        lhs = tw.fourier_stieltjes_norm(tw.multiplier_apply(phi, psi, triv, sigma),
                                        sigma).value
        rhs = cb * tw.fourier_stieltjes_norm(psi, triv).value
        assert lhs <= rhs + 1e-6


def test_sup_norm_lower_bound_for_cb(z3z3):
    g, sigma = z3z3
    triv = tw.trivial_cocycle(g)
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi = rand_fn(g, rng)
        cb = tw.cb_multiplier_norm(phi, triv, sigma).value
        assert np.abs(phi.values).max() <= cb + 1e-6


def test_cocycle_difference_collapse_is_bitwise(z3z3):
    g, sigma = z3z3
    rng = np.random.default_rng(8)
    twist, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 3), 3, rng)
    phi = rand_fn(g, rng)
    triv = tw.trivial_cocycle(g)
    diff = tw.cocycle_product(tw.cocycle_conjugate(twist), sigma)
    a = tw.cb_multiplier_norm(phi, twist, sigma)
    b = tw.cb_multiplier_norm(phi, triv, diff)
    assert a.value == b.value
    assert a.dual_bound == b.dual_bound


def test_cb_norm_stable_under_common_witness_perturbation(z3z3):
    """Twisting both cocycles by one witness preserves the difference cocycle;
    re-embedding at a doubled root order then perturbs only the float path."""
    g, sigma = z3z3
    rng = np.random.default_rng(9)
    triv = tw.trivial_cocycle(g, 3)
    phi = rand_fn(g, rng)
    base = tw.cb_multiplier_norm(phi, triv, sigma).value
    xi = tw.CoboundaryWitness(g, 3, np.concatenate([[0], rng.integers(0, 3, 8)]))
    s1 = tw.similarity_apply(triv, xi)
    s2 = tw.similarity_apply(sigma, xi)
    v = tw.cb_multiplier_norm(phi, s1, s2).value
    assert abs(v - base) <= 1e-5
    v2 = tw.cb_multiplier_norm(phi, s1.rescaled(6), s2.rescaled(12)).value
    assert abs(v2 - base) <= 1e-5


def test_littlewood_delta_and_l2_bound():
    g = tw.cyclic(4)
    cert = tw.littlewood_T2_norm(tw.delta(g, 0))
    assert abs(cert.value - 1.0) <= 1e-4
    rng = np.random.default_rng(10)
    for _ in range(5):
        phi = rand_fn(g, rng)
        cert = tw.littlewood_T2_norm(phi)
        assert cert.value <= phi.norm(2) + 1e-5
        assert np.abs(cert.psi1 + cert.psi2 - phi.values[g.mul]).max() < 1e-9


def test_littlewood_schur_action_domination():
    g = tw.cyclic(5)
    rng = np.random.default_rng(11)
    phi = rand_fn(g, rng)
    cert = tw.littlewood_T2_norm(phi)
    psi = phi.values[g.mul]
    for _ in range(20):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A /= np.linalg.svd(A, compute_uv=False)[0]
        assert tw.schur_action_norm(psi, A) <= cert.value + 1e-5


@pytest.mark.parametrize("name", ["Z4", "Z3xZ3", "S3", "D4", "S4", "zero"])
def test_littlewood_closed_form_matches_the_admm(name):
    g = {"Z4": tw.cyclic(4), "Z3xZ3": tw.cyclic_product([3, 3]),
         "S3": tw.symmetric(3), "D4": tw.dihedral(4), "S4": tw.symmetric(4),
         "zero": tw.symmetric(3)}[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    phi = tw.GroupFunction(g, np.zeros(g.order)) if name == "zero" else rand_fn(g, rng)
    f = phi.values[g.mul]
    cert = tw.littlewood_T2_norm(phi)
    admm = tw.t2_split(f, tol=1e-7)
    assert abs(cert.value - admm.value) <= 1e-6
    assert abs(cert.dual_bound - admm.dual_bound) <= 1e-6
    assert np.array_equal(cert.psi1 + cert.psi2, f)
    assert cert.iterations == 0 and not cert.budget_exhausted
    assert abs(cert.gap) <= 1e-12 * max(1.0, cert.value)
    assert abs(cert.value - phi.norm(2)) <= 1e-12 * max(1.0, cert.value)
    if name == "zero":
        assert cert.value == cert.dual_bound == 0.0
        return
    # the dual witness c = conj(f) / (n ||phi||_2) is feasible and attains the value
    c = f.conj() / (g.order * cert.value)
    assert np.linalg.norm(c, axis=1).sum() <= 1 + 1e-12
    assert np.linalg.norm(c, axis=0).sum() <= 1 + 1e-12
    assert abs(abs(np.sum(c * f)) - cert.dual_bound) <= 1e-12 * cert.value


def test_fs_norm_sandwiched_by_sup_and_l1(z3z3):
    g, sigma = z3z3
    rng = np.random.default_rng(14)
    for _ in range(10):
        phi = rand_fn(g, rng)
        v = tw.fourier_stieltjes_norm(phi, sigma).value
        assert phi.norm(np.inf) - 1e-10 <= v <= phi.norm(1) + 1e-10


def test_amplified_level_one_matches_scalar_norm(z3z3):
    g, sigma = z3z3
    rng = np.random.default_rng(15)
    phi = rand_fn(g, rng)
    block = phi.values[None, None, :]
    assert abs(tw.amplified_fs_norm(block, sigma)
               - tw.fourier_stieltjes_norm(phi, sigma).value) < 1e-12


def test_amplified_norm_corner_and_diagonal_laws(z3z3):
    g, sigma = z3z3
    rng = np.random.default_rng(16)
    phi, psi = rand_fn(g, rng), rand_fn(g, rng)
    vphi = tw.fourier_stieltjes_norm(phi, sigma).value
    vpsi = tw.fourier_stieltjes_norm(psi, sigma).value
    zero = np.zeros(g.order, dtype=complex)
    # corner embedding is isometric; diagonal blocks are additive, because
    # this is the predual (trace-side) amplification, not the max-law one
    corner = np.array([[zero, phi.values], [zero, zero]])
    assert abs(tw.amplified_fs_norm(corner, sigma) - vphi) < 1e-10
    diag = np.array([[phi.values, zero], [zero, psi.values]])
    assert abs(tw.amplified_fs_norm(diag, sigma) - (vphi + vpsi)) < 1e-10


def test_amplified_multiplier_action_levels(z3z3):
    g, sigma = z3z3
    triv = tw.trivial_cocycle(g)
    rng = np.random.default_rng(12)
    phi = rand_fn(g, rng)
    cb = tw.cb_multiplier_norm(phi, triv, sigma).value
    for level in (1, 2, 3):
        block = (rng.standard_normal((level, level, g.order))
                 + 1j * rng.standard_normal((level, level, g.order)))
        before = tw.amplified_fs_norm(block, triv)
        after = tw.amplified_fs_norm(block * phi.values[None, None, :], sigma)
        assert after <= (cb + 1e-6) * before + 1e-9


def test_amenability_report(z3z3):
    g, sigma = z3z3
    report = tw.amenability_report(g, sigma, n_samples=5, seed=3, tol=1e-6)
    assert len(report.samples) == 5
    assert report.max_rel_gap <= 1e-6
    assert report.inclusion_violations == 0
    # deterministic given the seed
    again = tw.amenability_report(g, sigma, n_samples=5, seed=3, tol=1e-6)
    assert [s.b_norm for s in report.samples] == [s.b_norm for s in again.samples]
    assert [s.cb_norm for s in report.samples] == [s.cb_norm for s in again.samples]


def test_amenability_closed_form_z2_delta():
    g = tw.cyclic(2)
    triv = tw.trivial_cocycle(g)
    phi = tw.delta(g, 0)
    b = tw.fourier_stieltjes_norm(phi, triv).value
    m = tw.cb_multiplier_norm(phi, triv, triv).value
    assert abs(b - 1.0) < 1e-12
    assert abs(m - 1.0) <= 1e-6


def test_amenability_report_empty():
    g = tw.cyclic(2)
    report = tw.amenability_report(g, tw.trivial_cocycle(g), n_samples=0, seed=0)
    assert report.samples == ()
    assert report.max_rel_gap == 0.0


def test_bullet_action_is_fs_isometry():
    g = tw.symmetric(3)
    rng = np.random.default_rng(13)
    sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, rng)
    for _ in range(5):
        u = rand_fn(g, rng)
        s = int(rng.integers(0, g.order))
        base = tw.fourier_stieltjes_norm(u, sigma).value
        moved = tw.fourier_stieltjes_norm(tw.bullet_action(s, u, sigma), sigma).value
        assert abs(base - moved) < 1e-8
