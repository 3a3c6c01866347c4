"""Exact integer linear algebra: SNF invariants and the mod-m solver."""

import itertools
import signal
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

import twista as tw
from oracles import echelon_carry_full
from twista import smith
from twista.errors import CertificateError
from twista.smith import smith_normal_form, solve_mod


def invertible_mod(M, m) -> bool:
    # exact determinant by elimination over the rationals
    M = [[Fraction(int(x)) for x in row] for row in M]
    det = Fraction(1)
    for k in range(len(M)):
        p = next((i for i in range(k, len(M)) if M[i][k]), None)
        if p is None:
            return False
        M[k], M[p] = M[p], M[k]
        det *= M[k][k] if p == k else -M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return gcd(int(det), m) == 1


def diagonal_form_holds(A, m, d, U, V) -> bool:
    rows, cols = A.shape
    D = np.zeros((rows, cols), dtype=np.int64)
    D[np.arange(len(d)), np.arange(len(d))] = d
    return (np.array_equal(U @ A @ V % m, D % m)
            and invertible_mod(U, m) and invertible_mod(V, m))


@pytest.mark.parametrize("seed", range(6))
def test_snf_invariants_random(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 7, 2)
    m = int(rng.choice([12, 30, 36, 720]))
    A = rng.integers(-4, 5, (rows, cols))
    d, U, V = smith_normal_form(A, m)
    assert len(d) == min(rows, cols)
    assert ((0 <= d) & (d < m)).all()
    assert diagonal_form_holds(A, m, d, U, V)


def test_snf_known_case():
    # over Z the Smith form is diag(2, 2, 156); mod 312 the cokernel has
    # order prod gcd(d_i, 312), whatever diagonal the reduction reaches
    A = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    d, U, V = smith_normal_form(A, 312)
    assert diagonal_form_holds(A, 312, d, U, V)
    assert np.prod(np.gcd(d, 312)) == 2 * 2 * 156


@pytest.mark.parametrize("m", [2, 3, 4, 6, 12])
def test_solve_mod_matches_brute_force(m):
    rng = np.random.default_rng(m)
    for _ in range(30):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        A = rng.integers(-3, 4, (rows, cols))
        b = rng.integers(0, m, rows)
        x = solve_mod(A, b, m)
        exists = any(
            not ((A @ np.array(cand) - b) % m).any()
            for cand in itertools.product(range(m), repeat=cols)
        )
        assert (x is not None) == exists
        if x is not None:
            assert not ((A @ x - b) % m).any()


def test_solve_mod_composite_modulus_needs_snf():
    # 2x = 2 (mod 4) is solvable although 2 is not invertible mod 4
    x = solve_mod([[2]], [2], 4)
    assert x is not None and (2 * x[0]) % 4 == 2
    # 2x = 1 (mod 4) is not
    assert solve_mod([[2]], [1], 4) is None


def test_solve_mod_overdetermined_consistency():
    A = np.array([[1, 1], [1, 1], [2, 2]])
    assert solve_mod(A, [1, 1, 2], 5) is not None
    assert solve_mod(A, [1, 2, 2], 5) is None


def test_solve_mod_trivial_modulus():
    x = solve_mod([[3, 1]], [2], 1)
    assert x is not None and not x.any()


@given(st.integers(2, 720), st.integers(0, 10**6))
def test_solve_mod_roundtrip_property(m, seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 13)), int(rng.integers(1, 11))
    A = rng.integers(-5, 6, (rows, cols))
    x0 = rng.integers(0, m, cols)
    b = (A @ x0) % m
    x = solve_mod(A, b, m)
    assert x is not None
    assert not ((A @ x - b) % m).any()


def test_solve_mod_regression_system_finishes():
    # the Smith form over Z let the entries of this system grow without bound;
    # mod m they stay below m
    A = np.array([[0, 0, 6, 5, 0, 0, 1, 0], [-6, 0, 0, 2, -5, -4, -3, 0],
                  [-6, 0, 0, 0, 0, 3, 0, 0], [4, -1, -2, 0, 0, 0, 4, 0],
                  [6, -6, 0, 0, 3, 2, 3, -1], [0, 0, 0, -4, 0, 0, -4, 0],
                  [-6, 0, 0, 0, 0, -6, 0, 0]])
    b = A @ np.arange(1, 9) % 720

    def overtime(signum, frame):
        raise TimeoutError("solve_mod ran past its 10 s bound")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.alarm(10)
    try:
        x = solve_mod(A, b, 720)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert x is not None and not ((A @ x - b) % 720).any()


def test_solve_mod_residual_check_raises(monkeypatch):
    real = smith.smith_normal_form

    def wrong_v(A, m):
        d, U, V = real(A, m)
        V = V.copy()
        V[0, 0] = (V[0, 0] + 1) % m
        return d, U, V

    monkeypatch.setattr(smith, "smith_normal_form", wrong_v)
    with pytest.raises(CertificateError):
        solve_mod([[1, 0], [0, 1]], [1, 1], 5)


def _same_reduction(A, b, m):
    got = smith._echelon_carry(A, b, m)
    want = echelon_carry_full(A, b, m)
    return all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", range(4))
def test_echelon_skipping_zero_rows_is_bit_identical(seed):
    # rows with a zero in the pivot column have quotient 0, so leaving them
    # alone must give the same (R, c, extra) as updating every row below
    rng = np.random.default_rng(seed)
    for _ in range(60):
        m = int(rng.choice([4, 6, 12, 24, 30, 36, 60, 120, 360, 720]))
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 25))
        A = rng.integers(-6, 7, (rows, cols)) * (rng.random((rows, cols)) < rng.random())
        b = rng.integers(0, m, rows)
        assert _same_reduction(A, b, m)


def test_echelon_on_the_s5_coboundary_system_is_bit_identical(monkeypatch):
    systems = []

    def spy(A, b, m):
        systems.append((A, b, m))
        return solve_mod(A, b, m)

    monkeypatch.setattr(tw.cocycles, "solve_mod", spy)
    g = tw.symmetric(5)
    twisted, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 6), 6,
                                            np.random.default_rng(11))
    assert tw.coboundary_test(twisted, tw.trivial_cocycle(g)) is not None
    (A, b, m), = systems
    assert A.shape == (600, 5)
    assert _same_reduction(A, b, m)
