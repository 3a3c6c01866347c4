"""Cocycle validation, constructions, similarity, and the coboundary decision."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import twista as tw
from twista.errors import CocycleViolation, NotCyclicProduct
from twista.smith import solve_mod

from oracles import coboundary_solution_full


def brute_force_identity(expo, m, g):
    n = g.order
    for s in range(n):
        for t in range(n):
            for r in range(n):
                lhs = (expo[s, t] + expo[g.mul[s, t], r]) % m
                rhs = (expo[s, g.mul[t, r]] + expo[t, r]) % m
                if lhs != rhs:
                    return False
    return True


def test_trivial_table_valid_on_every_suite_group(suite_groups):
    for g in suite_groups.values():
        c = tw.validate_cocycle(np.zeros((g.order, g.order), dtype=int), 1, g)
        assert c.is_trivial_table


def test_bilinear_z3z3_brute_force():
    g = tw.cyclic_product([3, 3])
    expo = np.zeros((9, 9), dtype=int)
    for s in range(9):
        for t in range(9):
            s1, s2 = divmod(s, 3)
            t1, t2 = divmod(t, 3)
            expo[s, t] = (s1 * t2) % 3
    c = tw.validate_cocycle(expo, 3, g)
    assert brute_force_identity(c.exponents, 3, g)
    built = tw.bilinear_cocycle(g, [[0, 1], [0, 0]], m=3)
    assert np.array_equal(built.exponents, expo)


def test_normalization_row_violation():
    g = tw.cyclic(2)
    table = [[1, 0], [0, 0]]
    with pytest.raises(CocycleViolation) as exc:
        tw.validate_cocycle(table, 2, g)
    assert any(v[0] == "normalization" for v in exc.value.violations)


def test_identity_violation_reports_triples():
    g = tw.cyclic(3)
    table = np.zeros((3, 3), dtype=int)
    table[1, 1] = 1
    with pytest.raises(CocycleViolation) as exc:
        tw.validate_cocycle(table, 2, g)
    assert any(v[0] == "identity" for v in exc.value.violations)


def test_bilinear_zero_matrix_is_trivial():
    g = tw.cyclic_product([2, 2])
    c = tw.bilinear_cocycle(g, [[0, 0], [0, 0]])
    assert c.is_trivial_table


def test_bilinear_z4z4_antisymmetric_pairing():
    g = tw.cyclic_product([4, 4])
    c = tw.bilinear_cocycle(g, [[0, 1], [-1, 0]], m=4)
    # sigma(s,t) conj(sigma(t,s)) = exp(2 pi i * 2(s1 t2 - s2 t1) / 4):
    # the antisymmetrized pairing doubles the off-diagonal entries
    for s in range(16):
        for t in range(16):
            s1, s2 = divmod(s, 4)
            t1, t2 = divmod(t, 4)
            val = c.values[s, t] * np.conj(c.values[t, s])
            expect = np.exp(2j * np.pi * 2 * (s1 * t2 - s2 * t1) / 4)
            assert abs(val - expect) < 1e-12


def test_bilinear_infers_only_a_cyclic_product_layout():
    # the layout check is infer_cyclic_orders' own
    for g in (tw.symmetric(3), tw.dihedral(4)):
        with pytest.raises(NotCyclicProduct):
            tw.bilinear_cocycle(g, [[1]])
    perm = np.array([0, 2, 1, 3, 4, 5, 6, 7])      # Z2 x Z4 with 1 and 2 swapped
    z2z4 = tw.cyclic_product([2, 4])
    relabelled = tw.from_table(np.argsort(perm)[z2z4.mul[np.ix_(perm, perm)]])
    assert not np.array_equal(relabelled.mul, z2z4.mul)
    with pytest.raises(NotCyclicProduct):
        tw.bilinear_cocycle(relabelled, [[0, 1], [0, 0]])


def test_bilinear_rejects_ill_defined_modulus():
    g = tw.cyclic_product([2, 4])
    with pytest.raises(CocycleViolation):
        tw.bilinear_cocycle(g, [[0, 1], [0, 0]], m=8)


@pytest.mark.parametrize("m", [0, -3])
def test_bilinear_refuses_a_nonpositive_modulus_before_reducing(m):
    # the modulus check comes first: "% 0" would warn before it was refused
    g = tw.cyclic_product([2, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CocycleViolation, match="root order must be positive"):
            tw.bilinear_cocycle(g, [[0, 1], [0, 0]], m=m)


def test_bilinear_mixed_orders_default_m():
    g = tw.cyclic_product([2, 4])
    c = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    assert c.m == 4
    assert brute_force_identity(c.exponents, c.m, g)


def test_normalize_already_normalized():
    g = tw.cyclic_product([3, 3])
    c = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    # this one already satisfies sigma(s, s^-1) = 1? not necessarily; use trivial
    triv = tw.trivial_cocycle(g, 3)
    sigma, xi = tw.normalize_cocycle(triv)
    assert sigma.m == 6
    assert np.array_equal(sigma.exponents, triv.rescaled(6).exponents)
    assert not xi.xi.any()


def test_normalize_z2_worked_example():
    g = tw.cyclic(2)
    tau = tw.validate_cocycle([[0, 0], [0, 1]], 2, g)  # sigma(1,1) = -1
    sigma, xi = tw.normalize_cocycle(tau)
    assert sigma.m == 4
    assert sigma.exponents[1, 1] == 0
    assert xi.m == 4 and xi.xi[1] == 1  # xi(1) = i in mu_4
    assert np.array_equal(tw.similarity_apply(sigma, xi).exponents,
                          tau.rescaled(4).exponents)


def test_normalize_bilinear_consequences():
    g = tw.cyclic_product([3, 3])
    c = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    sigma, _ = tw.normalize_cocycle(c)
    n = g.order
    idx = np.arange(n)
    assert not sigma.exponents[idx, g.inv].any()  # sigma(s, s^-1) = 1
    # sigma(s, t) = conj(sigma(t^-1, s^-1))
    lhs = sigma.exponents
    rhs = (-sigma.exponents[np.ix_(g.inv, g.inv)].T) % sigma.m
    assert np.array_equal(lhs, rhs)


def test_similarity_identity_witness():
    g = tw.cyclic(4)
    c = tw.trivial_cocycle(g, 4)
    xi = tw.CoboundaryWitness(g, 4, np.zeros(4, dtype=int))
    assert np.array_equal(tw.similarity_apply(c, xi).exponents, c.exponents)


def test_similarity_round_trip():
    rng = np.random.default_rng(2)
    g = tw.cyclic(4)
    c = tw.trivial_cocycle(g, 4)
    twisted, xi = tw.random_coboundary_twist(c, 4, rng)
    # applying the inverse witness restores the original
    back = tw.similarity_apply(twisted, xi.inverse())
    assert np.array_equal(back.exponents, c.rescaled(back.m).exponents)
    # and the twist is recognized as a coboundary of the trivial cocycle
    wit = tw.coboundary_test(twisted, c)
    assert wit is not None


def test_coboundary_test_identical_cocycles(suite_groups):
    g = suite_groups["S3"]
    c = tw.trivial_cocycle(g, 2)
    wit = tw.coboundary_test(c, c)
    assert wit is not None
    assert np.array_equal(tw.similarity_apply(c, wit).exponents, c.exponents)


def test_coboundary_test_rejects_a_wrong_witness(monkeypatch):
    c = tw.trivial_cocycle(tw.cyclic(3), 4)
    # z = xi(S) = (0, 1) on S = {0, 1} extends along the tree to xi = (0, 1, 2),
    # whose coboundary is 3 at (1, 2), so it does not relate c to c
    monkeypatch.setattr(tw.cocycles, "solve_mod",
                        lambda A, b, m: np.array([0, 1], dtype=np.int64))
    with pytest.raises(tw.CertificateError):
        tw.coboundary_test(c, c)


def test_z2z2_bilinear_not_a_coboundary_exhaustive():
    g = tw.cyclic_product([2, 2])
    c = tw.bilinear_cocycle(g, [[0, 1], [0, 0]], m=2)
    triv = tw.trivial_cocycle(g, 2)
    assert tw.coboundary_test(c, triv) is None
    # exhaustive oracle over all 2^4 candidate witnesses
    found = False
    for bits in itertools.product(range(2), repeat=4):
        if bits[0] != 0:
            continue
        xi = np.array(bits)
        cob = (xi[:, None] + xi[None, :] - xi[g.mul]) % 2
        if np.array_equal(cob, c.exponents):
            found = True
    assert not found


@pytest.mark.parametrize("kind,m", [("Z4", 2), ("Z4", 4), ("Z2^3", 2), ("D4", 2)])
def test_coboundary_decision_matches_exhaustive(kind, m):
    """Complete-decision check on small groups: SNF answer == brute force."""
    g = {"Z4": lambda: tw.cyclic(4),
         "Z2^3": lambda: tw.cyclic_product([2, 2, 2]),
         "D4": lambda: tw.dihedral(4)}[kind]()
    order = g.order
    rng = np.random.default_rng(order * 10 + m)
    triv = tw.trivial_cocycle(g, m)
    candidates = [triv]
    twisted, _ = tw.random_coboundary_twist(triv, m, rng)
    candidates.append(twisted)
    if order == 4:
        candidates.append(tw.bilinear_cocycle(g, [[1]], m=4))
    for c1 in candidates:
        for c2 in candidates:
            a, b = tw.unify_root_orders(c1, c2)
            L = a.m
            wit = tw.coboundary_test(a, b)
            d = (a.exponents - b.exponents) % L
            exists = False
            for combo in itertools.product(range(L), repeat=g.order - 1):
                xi = np.array((0,) + combo)
                cob = (xi[:, None] + xi[None, :] - xi[g.mul]) % L
                if np.array_equal(cob, d):
                    exists = True
                    break
            assert (wit is not None) == exists


def test_inverse_pair_symmetry_exact(suite_groups, suite_cocycles):
    """sigma(s, s^-1) = sigma(s^-1, s) holds exactly in exponent arithmetic."""
    for name, g in suite_groups.items():
        for sigma in suite_cocycles[name].values():
            idx = np.arange(g.order)
            assert np.array_equal(sigma.exponents[idx, g.inv],
                                  sigma.exponents[g.inv, idx])


def test_similarity_between_nontrivial_cocycles():
    g = tw.cyclic_product([3, 3])
    base = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    rng = np.random.default_rng(31)
    twisted, _ = tw.random_coboundary_twist(base, 6, rng)
    wit = tw.coboundary_test(twisted, base)
    assert wit is not None
    a, _ = tw.unify_root_orders(twisted, base)
    assert np.array_equal(tw.similarity_apply(base, wit).exponents, a.exponents)
    # and a genuinely different bilinear class stays separated
    other = tw.bilinear_cocycle(g, [[0, 2], [0, 0]])
    assert tw.coboundary_test(other, base) is None


def test_cocycle_product_and_conjugate():
    g = tw.cyclic_product([3, 3])
    c = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    assert tw.cocycle_product(c, tw.cocycle_conjugate(c)).is_trivial_table
    assert np.array_equal(tw.cocycle_product(tw.trivial_cocycle(g), c).exponents,
                          c.exponents)
    cA = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    cB = tw.bilinear_cocycle(g, [[1, 0], [2, 1]])
    cAB = tw.bilinear_cocycle(g, [[1, 1], [2, 1]])
    assert np.array_equal(tw.cocycle_product(cA, cB).exponents, cAB.exponents)


_SMALL_BUILDERS = {
    "Z4": lambda: tw.cyclic(4),
    "Z2xZ2": lambda: tw.cyclic_product([2, 2]),
    "S3": lambda: tw.symmetric(3),
}


@given(st.sampled_from(sorted(_SMALL_BUILDERS)), st.integers(0, 10**6))
def test_operations_preserve_validity(name, seed):
    g = _SMALL_BUILDERS[name]()
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    c, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, m), m, rng)
    assert not tw.cocycles.cocycle_violations(c.exponents, c.m, g)
    sigma, _ = tw.normalize_cocycle(c)
    assert not tw.cocycles.cocycle_violations(sigma.exponents, sigma.m, g)
    prod = tw.cocycle_product(c, tw.cocycle_conjugate(sigma))
    assert not tw.cocycles.cocycle_violations(prod.exponents, prod.m, g)


def test_cocycle_json_round_trip(tmp_path):
    g = tw.cyclic_product([3, 3])
    c = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    path = tmp_path / "c.json"
    tw.save_cocycle(c, path)
    c2 = tw.load_cocycle(path)
    assert c2.m == c.m
    assert np.array_equal(c2.exponents, c.exponents)
    assert c2.group == g


def test_coboundary_test_refuses_a_non_cocycle(monkeypatch):
    table = np.zeros((3, 3), dtype=np.int64)
    table[1, 1] = 1                     # fails the cocycle identity at (1, 1, 2)
    bad = tw.Cocycle(tw.cyclic(3), 2, table)

    def no_solve(A, b, m):
        raise AssertionError("the system must not be solved for a non-cocycle")

    monkeypatch.setattr(tw.cocycles, "solve_mod", no_solve)
    for c1, c2 in ((bad, tw.trivial_cocycle(bad.group, 2)),
                   (tw.trivial_cocycle(bad.group, 4), bad)):
        with pytest.raises(CocycleViolation) as exc:
            tw.coboundary_test(c1, c2)
        assert exc.value.violations
        assert all(kind == "identity" for kind, _ in exc.value.violations)


def test_coboundary_system_on_s5_has_at_most_log_n_row_blocks(monkeypatch):
    g = tw.symmetric(5)
    shapes = []

    def spy(A, b, m):
        shapes.append(np.shape(A))
        return solve_mod(A, b, m)

    monkeypatch.setattr(tw.cocycles, "solve_mod", spy)
    twisted, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4,
                                            np.random.default_rng(5))
    assert tw.coboundary_test(twisted, tw.trivial_cocycle(g)) is not None
    n = g.order
    (rows, cols), = shapes
    assert rows <= (int(np.log2(n)) + 1) * n   # 7 * 120 = 840
    assert cols <= int(np.log2(n)) + 1         # the unknowns are xi(S)


_PERTURB_BUILDERS = dict(_SMALL_BUILDERS, D4=lambda: tw.dihedral(4),
                         Z3xZ3=lambda: tw.cyclic_product([3, 3]))


@given(st.sampled_from(sorted(_PERTURB_BUILDERS)), st.integers(0, 10**6))
def test_generator_identity_check_matches_brute_force(name, seed):
    """Perturbed normalized tables: a violation exists iff one is reported on S x G x G."""
    g = _PERTURB_BUILDERS[name]()
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    c, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, m), m, rng)
    expo = c.exponents.copy()
    for _ in range(int(rng.integers(0, 3))):   # rows and columns 0 stay normalized
        s, t = rng.integers(1, g.order, 2)
        expo[s, t] = rng.integers(0, m)
    found = tw.cocycles.cocycle_violations(expo, m, g)
    assert (not found) == brute_force_identity(expo, m, g)
    for kind, (s, t, r) in found:
        assert kind == "identity"
        assert ((expo[s, t] + expo[g.mul[s, t], r] - expo[s, g.mul[t, r]] - expo[t, r])
                % m)


@pytest.mark.parametrize("name", ["S3", "D4", "Z3xZ3"])
@pytest.mark.parametrize("where", ["row", "column"])
def test_a_table_broken_only_in_row_or_column_zero_reports_normalization(name, where):
    """The identity check skips s = e; a defect there shows as a normalization row."""
    g = _PERTURB_BUILDERS[name]()
    c, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, np.random.default_rng(3))
    expo = tw.normalize_cocycle(c)[0].exponents.copy()
    m = 8
    cell = (0, g.order - 1) if where == "row" else (g.order - 1, 0)
    expo[cell] = 5
    assert not brute_force_identity(expo, m, g)
    assert tw.cocycles.cocycle_violations(expo, m, g) == [("normalization", cell)]


def test_witness_rescaled_at_its_own_order_is_itself():
    g = tw.cyclic(4)
    xi = tw.CoboundaryWitness(g, 4, [0, 1, 2, 3])
    assert xi.rescaled(4) is xi
    assert np.array_equal(xi.rescaled(8).xi, [0, 2, 4, 6])


def test_generating_set_runs_once_per_group(monkeypatch):
    calls = []
    real = tw.groups.generating_set
    monkeypatch.setattr(tw.groups, "generating_set",
                        lambda mul: calls.append(1) or real(mul))
    g = tw.cyclic_product([8, 8])
    c = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
    rng = np.random.default_rng(0)
    for _ in range(10):
        twisted, _ = tw.random_coboundary_twist(c, 4, rng)
        tw.validate_cocycle(twisted.exponents, twisted.m, g)
        tw.normalize_cocycle(twisted)
        assert tw.coboundary_test(twisted, c) is not None
    assert len(calls) == 1


def _z2_5():
    g = tw.cyclic_product([2] * 5)
    return g, np.arange(g.order) % 2               # the last coordinate


def _relabelled_s4():
    # an isomorphic copy with every label but the identity's moved, so the
    # generating set and the breadth-first order differ from symmetric(4)
    g = tw.symmetric(4)
    p = np.concatenate([[0], 1 + np.random.default_rng(7).permutation(g.order - 1)])
    q = np.argsort(p)
    parity = np.array([sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
                       for perm in itertools.permutations(range(4))])
    return tw.from_table(p[g.mul[np.ix_(q, q)]]), parity[q]


@pytest.mark.parametrize("m", [4, 6, 12, 36])
@pytest.mark.parametrize("build", [_z2_5, _relabelled_s4], ids=["Z2^5", "S4-relabelled"])
def test_coboundary_decision_matches_the_full_system(build, m):
    """The |S|-unknown decision agrees with the n^2 x n system at the same modulus."""
    g, x = build()
    rng = np.random.default_rng(m)
    # k x(s) x(t) for a homomorphism x onto Z2 is a cocycle; at even m it is
    # a coboundary over mu_m exactly when k is even
    carries = [tw.validate_cocycle(k * np.outer(x, x), m, g) for k in (0, 1, 2, 3)]
    if g.order == 32:
        carries.append(tw.bilinear_cocycle(g, np.triu(np.ones((5, 5), int), 1),
                                           m=2).rescaled(m))
    answers = set()
    for c1 in carries:
        twisted, _ = tw.random_coboundary_twist(c1, m, rng)
        for c2 in carries:
            xi = tw.coboundary_test(twisted, c2)
            assert (xi is None) == (coboundary_solution_full(twisted, c2) is None)
            answers.add(xi is None)
    assert answers == {True, False}


def _peak_in_n2_doubles(fn, n):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8 * n * n)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def z6_cubed():
    g = tw.cyclic_product([6, 6, 6])
    c = tw.bilinear_cocycle(g, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    twisted, _ = tw.random_coboundary_twist(c, 4, np.random.default_rng(0))
    return g, c, twisted


def test_identity_check_works_in_n2_memory(z6_cubed):
    g, _, twisted = z6_cubed
    table = twisted.exponents.copy()
    assert _peak_in_n2_doubles(lambda: tw.validate_cocycle(table, twisted.m, g),
                               g.order) < 4


def test_coboundary_test_works_in_n2_memory(z6_cubed):
    g, c, twisted = z6_cubed
    for c1, c2 in [(twisted, c), (c, tw.trivial_cocycle(g, 4))]:
        assert _peak_in_n2_doubles(lambda: tw.coboundary_test(c1, c2), g.order) < 8


def test_root_orders_past_2_61_are_refused_before_their_arithmetic():
    # the exact layer's largest exponent sum has four terms below m
    from twista import cocycles
    g = tw.cyclic(2)
    edge = tw.validate_cocycle([[0, 0], [0, 1 << 60]], 1 << 61, g)
    assert edge.m == cocycles.MAX_ROOT_ORDER == 1 << 61
    with pytest.raises(tw.UnsupportedSize, match="root order"):
        tw.validate_cocycle([[0, 0], [0, 1 << 61]], 1 << 62, g)
    with pytest.raises(tw.UnsupportedSize, match="root order"):
        tw.normalize_cocycle(edge)              # doubles m to 2^62
    a = tw.validate_cocycle([[0, 0], [0, 1 << 39]], 1 << 40, g)
    b = tw.trivial_cocycle(g, (1 << 40) + 1)
    for call in (lambda: tw.coboundary_test(a, b), lambda: tw.cocycle_product(a, b),
                 lambda: a.rescaled(1 << 62), lambda: tw.unify_root_orders(a, b)):
        with pytest.raises(tw.UnsupportedSize, match="root order"):
            call()
    for build in (lambda: tw.trivial_cocycle(g, 1 << 62),
                  lambda: tw.CoboundaryWitness(g, 1 << 62, [0, 1])):
        with pytest.raises(tw.UnsupportedSize, match="root order"):
            build()
    with pytest.raises(CocycleViolation, match="positive"):
        tw.validate_cocycle([[0, 0], [0, 0]], 0, g)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 120, 1009, 65537, 1000003])
def test_direct_phases_equal_the_table_bitwise(m):
    from twista.cocycles import roots_of_unity
    table = roots_of_unity(m)
    rng = np.random.default_rng(m)
    for k in (rng.integers(0, m, (3, 5)), rng.integers(0, m, 2 * m), np.array([m - 1])):
        assert np.array_equal(roots_of_unity(m, k).view(float), table[k].view(float))


def test_phases_of_a_large_root_order_build_no_table():
    # a 2^22-entry table would take 64 MiB; two exponents are evaluated directly
    m = 1 << 22
    g = tw.cyclic(2)
    sigma = tw.validate_cocycle([[0, 0], [0, m // 2 + 1]], m, g)
    phi = tw.GroupFunction(g, np.array([1.0, 0.5j]))
    tracemalloc.start()
    try:
        values = sigma.values
        cert = tw.fourier_stieltjes_norm(phi, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    e = sigma.exponents
    assert np.array_equal(values.view(float), np.exp(2j * np.pi * e / m).view(float))
    assert cert.value > 0
