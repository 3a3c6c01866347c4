"""The generating-set coboundary decision and the sigma-regular class count
against the full-table routes they replaced (see oracles.py)."""

import numpy as np
import pytest

import twista as tw
from oracles import center_dimension_svd, coboundary_solution_full


def dihedral_carry_cocycle(n: int) -> tw.Cocycle:
    """Sign cocycle of the projective representation r -> diag(z, 1/z), z^n = -1.

    Element f*n + a is s^f r^a; the sign is the carry of the rotation
    exponent past n.  Cohomologically nontrivial for even n.
    """
    g = tw.dihedral(n)
    f, a = np.divmod(np.arange(2 * n), n)
    rot = np.where(f[None, :] == 1, -a[:, None], a[:, None]) + a[None, :]
    return tw.validate_cocycle(np.floor_divide(rot, n) % 2, 2, g)


def twist(c, m, seed):
    return tw.random_coboundary_twist(c, m, np.random.default_rng(seed))[0]


def quantum_torus(q, p):
    return tw.bilinear_cocycle(tw.cyclic_product([q, q]), [[0, p], [0, 0]],
                               orders=[q, q], m=q)


def family_pairs():
    """(label, c1, c2) over D20, twisted S4 and the quantum tori Z_q^2, q <= 8."""
    d20 = tw.dihedral(20)
    carry = dihedral_carry_cocycle(20)
    yield "D20 carry / trivial", carry, tw.trivial_cocycle(d20, 2)
    yield "D20 carry / trivial mu4", carry.rescaled(4), tw.trivial_cocycle(d20, 4)
    yield "D20 twist6(carry) ~ carry", twist(carry, 6, 1), carry
    yield "D20 twist6 ~ trivial", twist(tw.trivial_cocycle(d20), 6, 2), tw.trivial_cocycle(d20)
    s4 = tw.symmetric(4)
    s4_twist = twist(tw.trivial_cocycle(s4, 4), 4, 3)
    yield "S4 twist4 ~ trivial", s4_twist, tw.trivial_cocycle(s4)
    yield "S4 normalized ~ twist12", tw.normalize_cocycle(s4_twist)[0], twist(s4_twist, 12, 4)
    for q in range(2, 9):
        for p in range(q):
            c = quantum_torus(q, p)
            yield f"Z{q}^2 p={p} / trivial", c, tw.trivial_cocycle(c.group, q)
            yield f"Z{q}^2 p={p} ~ twist", twist(c, 2 * q, 10 * q + p), c


FAMILY = list(family_pairs())


def assert_same_decision(c1, c2):
    xi = tw.coboundary_test(c1, c2)
    assert (xi is None) == (coboundary_solution_full(c1, c2) is None)
    if xi is not None:   # the witness holds on the full table
        L = xi.m
        assert np.array_equal(tw.similarity_apply(c2, xi).exponents,
                              c1.rescaled(L).exponents)


@pytest.mark.parametrize("label,c1,c2", FAMILY, ids=[f[0] for f in FAMILY])
def test_coboundary_decision_matches_the_full_system(label, c1, c2):
    assert_same_decision(c1, c2)


@pytest.mark.parametrize("label,c1,c2", FAMILY, ids=[f[0] for f in FAMILY])
def test_center_dimension_matches_the_commutator_svd(label, c1, c2):
    for c in (c1, c2):
        assert tw.center_dimension(c) == center_dimension_svd(c)


def test_suite_cocycles_against_both_oracles(suite_cocycles):
    for cocycles in suite_cocycles.values():
        for c1 in cocycles.values():
            assert tw.center_dimension(c1) == center_dimension_svd(c1)
            for c2 in cocycles.values():
                assert_same_decision(c1, c2)


def test_quantum_torus_center_dimension_is_gcd_squared():
    # the antisymmetrised pairing has kernel of order gcd(p, q)^2
    for q in range(2, 9):
        for p in range(q):
            gcd = np.gcd(p, q)
            assert tw.center_dimension(quantum_torus(q, p)) == gcd * gcd


def test_dihedral_carry_cocycle_is_the_nontrivial_class():
    sigma = dihedral_carry_cocycle(20)
    # 2-dimensional projective irreducibles only: 40 = 10 * 2^2
    assert tw.center_dimension(sigma) == 10
    assert tw.center_dimension(tw.trivial_cocycle(sigma.group)) == 13
    # not even over mu_{2|G|} = mu_80, where any T-valued witness can be taken
    assert tw.coboundary_test(sigma.rescaled(80), tw.trivial_cocycle(sigma.group, 80)) is None
