"""Norm pipelines: trace duality, multiplier SDP, Littlewood, cross-checks."""

import json

import numpy as np
import pytest

import twista as tw
from twista import algebra, littlewood, norms


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
    # gamma2 and the certificate share one convention, F = xi eta^H
    assert cert.xi is cert.sdp.xi and cert.eta is cert.sdp.eta
    assert np.abs(cert.xi @ cert.eta.conj().T - F).max() <= 1e-8 * max(1.0, cert.value)
    mx = np.linalg.norm(cert.xi, axis=1).max()
    me = np.linalg.norm(cert.eta, axis=1).max()
    assert mx * me <= cert.value + cert.gap + 1e-9
    assert cert.dual_bound <= cert.value


def test_cb_certificate_json_recertifies_its_dual_bound():
    # F = xi eta^H and the unit vectors u, v, all read back from the JSON,
    # give dual_bound as the trace norm of diag(u) F diag(v)
    g = tw.symmetric(3)
    rng = np.random.default_rng(4)
    sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, rng)
    cert = tw.cb_multiplier_norm(rand_fn(g, rng), tw.trivial_cocycle(g), sigma)
    doc = json.loads(json.dumps(norms.certificate_to_json(cert)))

    def complex_array(d):
        z = np.array(d["entries"])
        return (z[:, 0] + 1j * z[:, 1]).reshape(d["shape"])

    F = complex_array(doc["xi"]) @ complex_array(doc["eta"]).conj().T
    u, v = np.array(doc["dual_u"]), np.array(doc["dual_v"])
    bound = np.linalg.svd(u[:, None] * F * v[None, :], compute_uv=False).sum()
    assert abs(bound - doc["dual_bound"]) <= 1e-8 * doc["dual_bound"]
    assert doc["ill_conditioned"] is False


@pytest.mark.parametrize("kind", ["complex", "real", "empty"])
def test_certificate_json_entries_match_the_per_entry_form(kind):
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    z[0, 0], z[1, 1] = -0.0, complex(0.0, -0.0)
    a = {"complex": z.T, "real": z.real, "empty": np.zeros((0, 3))}[kind]
    cert = tw.T2Split(value=1.0, dual_bound=1.0, psi1=a, psi2=a, iterations=0)
    doc = norms.certificate_to_json(cert)
    per_entry = [[float(w.real), float(w.imag)] for w in np.asarray(a).reshape(-1)]
    assert doc["psi1"] == {"shape": list(a.shape), "entries": per_entry}
    assert json.dumps(doc["psi1"]["entries"]) == json.dumps(per_entry)
    # function files use the same encoder, so they keep their bytes, signed zeros included
    if a.size:
        f = tw.GroupFunction(tw.cyclic(a.size), a.reshape(-1))
        assert json.dumps(algebra.function_to_json(f)["values"]) == json.dumps(per_entry)


def test_fourier_stieltjes_json_writes_the_dual_element_as_coefficients():
    g = tw.symmetric(4)
    rng = np.random.default_rng(6)
    sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, rng)
    cert = tw.fourier_stieltjes_norm(rand_fn(g, rng), sigma)
    doc = json.loads(json.dumps(norms.certificate_to_json(cert)))
    Y = doc["dual_element"]
    assert Y["shape"] == [g.order] and len(Y["entries"]) == g.order
    c = np.array([complex(re, im) for re, im in Y["entries"]])
    assert np.array_equal(tw.lift_matrix(c, sigma), cert.dual_element.matrix)
    assert doc["value"] == cert.value and doc["pairing_check"] == cert.pairing_check
    assert doc["singular_values"] == list(cert.singular_values)
    assert "wall_time_ms" not in doc


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
        assert np.abs(cert.psi1[g.mul] + cert.psi2[g.mul] - phi.values[g.mul]).max() < 1e-9


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
    assert np.array_equal(cert.psi1[g.mul] + cert.psi2[g.mul], f)
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


@pytest.mark.parametrize("name", ["Z3xZ3", "S4", "Z4xZ4", "D4", "S5"])
def test_littlewood_closed_form_gap_is_never_negative(name):
    # without the rounding allowance in c, 183 of these 1000 functions (at
    # scale 1) gave a dual bound one rounding above the value
    g = {"Z3xZ3": tw.cyclic_product([3, 3]), "S4": tw.symmetric(4),
         "Z4xZ4": tw.cyclic_product([4, 4]), "D4": tw.dihedral(4),
         "S5": tw.symmetric(5)}[name]
    for seed in range(200):
        values = rand_fn(g, np.random.default_rng(seed)).values
        for scale in (1.0, 1e-8, 1e4):
            phi = tw.GroupFunction(g, scale * values)
            cert = tw.littlewood_T2_norm(phi)
            assert 0.0 <= cert.gap <= 1e-12 * cert.value, (seed, scale)
            f = phi.values[g.mul]
            c = littlewood._dual_feasible(f)
            assert np.linalg.norm(c, axis=1).sum() <= 1.0, (seed, scale)
            assert np.linalg.norm(c, axis=0).sum() <= 1.0, (seed, scale)
            assert abs(np.vdot(c, f)) <= cert.value, (seed, scale)


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
    report = tw.amenability_report(sigma, n_samples=5, seed=3, tol=1e-6)
    assert len(report.samples) == 5
    assert report.max_rel_gap <= 1e-6
    assert report.inclusion_violations == 0
    # deterministic given the seed
    again = tw.amenability_report(sigma, n_samples=5, seed=3, tol=1e-6)
    assert [s.b_norm for s in report.samples] == [s.b_norm for s in again.samples]
    assert [s.cb_norm for s in report.samples] == [s.cb_norm for s in again.samples]


def test_a_failed_step_is_recorded_and_the_batch_goes_on(z3z3, refuse_sdp_call):
    # the fifth step search is in the first sample's second iteration
    _, sigma = z3z3
    refuse_sdp_call("_psd_max_step", 5)
    report = tw.amenability_report(sigma, n_samples=2, seed=3)
    assert [s.status for s in report.samples] == ["solver_failure", "ok"]
    assert np.isfinite([report.samples[0].cb_norm, report.samples[0].sdp_gap]).all()


def test_a_weak_duality_failure_is_recorded_with_its_bracket(z3z3, inflate_dual_bound):
    # the first sample's second bound, inflated above the value, stops its
    # solve; the sample keeps the bracket of the iterate it stood on
    _, sigma = z3z3
    inflate_dual_bound(2)
    report = tw.amenability_report(sigma, n_samples=2, seed=3)
    assert [s.status for s in report.samples] == ["solver_failure", "ok"]
    assert np.isfinite([report.samples[0].cb_norm, report.samples[0].sdp_gap]).all()


def test_a_failure_without_an_iterate_is_recorded_with_no_bracket(z3z3, refuse_sdp_call):
    # a refused start point carries no partial: the sample's bracket is NaN
    _, sigma = z3z3
    refuse_sdp_call("zpotrf", 1)
    report = tw.amenability_report(sigma, n_samples=2, seed=3)
    assert [s.status for s in report.samples] == ["solver_failure", "ok"]
    assert np.isnan([report.samples[0].cb_norm, report.samples[0].sdp_gap]).all()


def test_amenability_report_refuses_a_group_above_the_gamma2_cap(monkeypatch):
    # refused before the first sample's Fourier-Stieltjes SVD, whatever the count
    def no_sample(*args):
        raise AssertionError("a sample was computed")

    monkeypatch.setattr(norms, "fourier_stieltjes_norm", no_sample)
    sigma = tw.trivial_cocycle(tw.cyclic(130))
    for n_samples in (0, 1):
        with pytest.raises(tw.UnsupportedSize, match="128"):
            tw.amenability_report(sigma, n_samples, seed=0)


def _bits(x) -> str:
    return float(x).hex()


def test_the_gap_is_the_width_of_every_bracket(z3z3, refuse_sdp_call):
    # gap is derived from value and dual_bound, never stored beside them
    g, sigma = z3z3
    rng = np.random.default_rng(8)
    phi = rand_fn(g, rng)
    closed = tw.cb_multiplier_norm(phi, tw.trivial_cocycle(g), sigma)
    refuse_sdp_call("_psd_max_step", 5)
    with pytest.raises(tw.SolverFailure) as failed:
        tw.cb_multiplier_norm(phi, tw.trivial_cocycle(g), sigma)
    partial = failed.value.partial
    brackets = [closed, closed.sdp, partial, norms.MultiplierCertificate.of(partial),
                tw.t2_split(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))),
                tw.littlewood_T2_norm(phi)]
    assert partial.ill_conditioned and partial.gap > 0
    for b in brackets:
        assert isinstance(b, littlewood.Bracket)
        assert _bits(b.gap) == _bits(b.value - b.dual_bound), b
    assert closed.gap <= 1e-6 and brackets[-2].gap <= 1e-5


def test_the_closure_rule_is_absolute_and_refuses_a_nan_width():
    assert littlewood.closes(2.0, 1.5, 0.5) and not littlewood.closes(2.0, 1.5, 0.25)
    assert littlewood.closes(1e8, 1e8 - 1e-7, 1e-6)
    assert not littlewood.closes(1e8, 1e8 - 1e-5, 1e-6)
    assert not littlewood.closes(np.nan, 1.0, 1.0)
    assert not littlewood.closes(np.inf, np.inf, 1.0)


def test_the_zero_split_allocates_its_own_zeros():
    psi = np.zeros((3, 4), dtype=complex)
    split = tw.t2_split(psi)
    assert (split.value, split.dual_bound, split.gap, split.iterations) == (0.0, 0.0, 0.0, 0)
    assert not split.budget_exhausted
    for a in (split.psi1, split.psi2):
        assert a.shape == psi.shape and not a.any() and not np.shares_memory(a, psi)
    assert not np.shares_memory(split.psi1, split.psi2)


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
    report = tw.amenability_report(tw.trivial_cocycle(g), n_samples=0, seed=0)
    assert report.samples == ()
    assert report.max_rel_gap == 0.0


def test_amenability_report_refuses_a_negative_sample_count():
    with pytest.raises(ValueError, match="nonnegative"):
        tw.amenability_report(tw.trivial_cocycle(tw.cyclic(2)), n_samples=-3, seed=0)


@pytest.mark.parametrize("tol", [np.nan, -1e-6])
def test_amenability_report_refuses_a_nan_or_negative_tolerance(tol):
    # an empty report too: it would carry the tolerance unchecked
    for n_samples in (0, 2):
        with pytest.raises(ValueError, match="tolerance"):
            tw.amenability_report(tw.trivial_cocycle(tw.cyclic(2)), n_samples, seed=0, tol=tol)


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
