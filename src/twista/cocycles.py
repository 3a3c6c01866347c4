"""2-cocycles on finite groups, stored as integer exponents over m-th roots of unity.

Storing exponents instead of floating phases makes the cocycle identity,
similarity, and the coboundary decision exact integer arithmetic.
Continuous-phase cocycles (irrational angles) are approximated by rational
root-of-unity cocycles at a caller-chosen root order m.

The exact layer has one table type, exp(2 pi i k / m) for int64 exponents k
reduced into [0, m): a Cocycle is an n x n such table and a
CoboundaryWitness an n-vector, whose xi is its exponents.  A common root
order is formed only by unify_root_orders, and the coboundary
delta x(s, t) = x(s) + x(t) - x(st) only by _coboundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from pathlib import Path
from typing import Optional

import numpy as np

from . import groups as grp
from .errors import CertificateError, CocycleViolation, UnsupportedSize
from .groups import FiniteGroup
from .smith import solve_mod


# the largest exponent sum the exact layer forms has four terms below m, so
# m <= 2^61 keeps every int64 sum exact
MAX_ROOT_ORDER = 1 << 61


def root_order(m) -> int:
    """m as an int, refused before any arithmetic modulo m unless a whole number in [1, 2^61].

    A whole number of any size reaches the size bound, so m = 2^64 is
    unsupported rather than malformed; 2.5, "4" and None are malformed.
    """
    try:
        whole = int(m) == m
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"root order must be an integer, got {m!r}")
    m = int(m)
    if m < 1:
        raise CocycleViolation("root order must be positive")
    if m > MAX_ROOT_ORDER:
        raise UnsupportedSize(f"root order {m} exceeds 2^61, the int64 bound of exact cocycles")
    return m


def roots_of_unity(m: int, k=None) -> np.ndarray:
    """exp(2 pi i k / m) for exponents k, range(m) by default: every phase is computed here.

    Fewer exponents than m are evaluated directly, so a large m builds no
    m-entry table; otherwise the table is built and indexed.  Both routes give
    the same floats.
    """
    if k is not None and np.size(k) < m:
        return np.exp(2j * np.pi * k / m)
    table = np.exp(2j * np.pi * np.arange(m) / m)
    return table if k is None else table[k]


@dataclass(frozen=True, eq=False)
class _RootPowers:
    """Table of phases exp(2*pi*i * exponents / m), the exponents int64 in [0, m), read-only."""

    group: FiniteGroup
    m: int
    exponents: np.ndarray

    def __post_init__(self):
        expo = np.ascontiguousarray(self.exponents, dtype=np.int64) % root_order(self.m)
        object.__setattr__(self, "exponents", expo)
        self.exponents.setflags(write=False)

    @cached_property
    def values(self) -> np.ndarray:
        """Complex table of the phases, of the exponents' shape."""
        return roots_of_unity(self.m, self.exponents)

    def rescaled(self, new_m: int):
        """The same type and phases over new_m-th roots (a multiple of m, at most 2^61)."""
        if root_order(new_m) % self.m:
            raise ValueError("new root order must be a multiple of the old one")
        if new_m == self.m:
            return self
        return type(self)(self.group, new_m, self.exponents * (new_m // self.m))


class Cocycle(_RootPowers):
    """Unimodular 2-cocycle: value(s, t) = exp(2*pi*i * exponents[s, t] / m)."""

    @property
    def is_trivial_table(self) -> bool:
        """Pointwise equal to 1 (stronger than cohomological triviality)."""
        return not self.exponents.any()


class CoboundaryWitness(_RootPowers):
    """Unimodular function xi with xi(e) = 1: xi(s) = exp(2*pi*i * xi[s] / m)."""

    def __post_init__(self):
        super().__post_init__()
        if self.xi[0] != 0:
            raise ValueError("witness must satisfy xi(e) = 1")

    @property
    def xi(self) -> np.ndarray:
        """The exponents of xi over m-th roots."""
        return self.exponents

    def inverse(self) -> "CoboundaryWitness":
        return CoboundaryWitness(self.group, self.m, -self.xi)


def _coboundary(x, mul, rows=slice(None)):
    """delta x(s, t) = x(s) + x(t) - x(st) for s in rows, all t, unreduced.

    x is indexed by group elements on its first axis; further axes (the
    generator coordinates of _tree_coordinates) are carried along.
    """
    return x[rows, None] + x[None] - x[mul[rows]]


def cocycle_violations(table, m: int, group: FiniteGroup):
    """List up to 10 violations of the cocycle identity or normalization.

    The identity is checked on S x G x G for a generating set S: its defect
    F = delta e has delta F = 0, so F(sb, c, d) = F(b, c, d) once F vanishes
    on S.  S[0] = 0 is the identity, and it is skipped: once the
    normalization rows pass, F(0, t, r) = e(0, t) - e(0, tr) = 0.
    Violations are reported as real (s, t, r) triples.
    """
    expo = np.asarray(table, dtype=np.int64)
    n = group.order
    if expo.shape != (n, n):
        return [("shape", expo.shape)]
    e = expo % m
    mul = group.mul
    out = [("normalization", (int(s), 0)) for s in np.flatnonzero(e[:, 0])]
    out += [("normalization", (0, int(t))) for t in np.flatnonzero(e[0, :])]
    if out:
        return out[:10]
    # one generator at a time, so the work arrays stay n x n
    for s in group.generators[1:]:
        defect = e[mul[s]]                           # sigma(st, r)
        defect += e[s, :, None]                      # sigma(s, t)
        defect -= e[s][mul]                          # sigma(s, tr)
        defect -= e                                  # sigma(t, r)
        defect %= m
        out += [("identity", (int(s), int(t), int(r)))
                for t, r in np.argwhere(defect)[:10 - len(out)]]
        if len(out) >= 10:
            break
    return out


def validate_cocycle(table, m: int, group: FiniteGroup) -> Cocycle:
    """Return the Cocycle when valid, else raise CocycleViolation with witnesses.

    The entries pass groups.integer_entries, so 1.5 is refused, not read as 1.
    """
    m = root_order(m)
    expo = grp.integer_entries(table)
    bad = [("non-integer entries",)] if expo is None else cocycle_violations(expo, m, group)
    if bad:
        raise CocycleViolation(f"{len(bad)} violation(s), first: {bad[0]}", bad)
    return Cocycle(group, m, expo)


def trivial_cocycle(group: FiniteGroup, m: int = 1) -> Cocycle:
    return Cocycle(group, m, np.zeros((group.order, group.order), dtype=np.int64))


def bilinear_cocycle(group: FiniteGroup, A, m: Optional[int] = None) -> Cocycle:
    """sigma_A(s, t) = exp(2*pi*i <s, A t> / m) on a product of cyclic groups.

    The factor orders q are read off the table by infer_cyclic_orders, which
    raises NotCyclicProduct unless it is the mixed-radix layout of
    cyclic_product; A is k x k for the k factors it finds.  The table fixes
    every factor but those of order 1, which it does not count.
    With m omitted, m = lcm(q) and the pairing is scaled by
    (m/q_i)(m/q_j) per entry, which is always well defined.  With m given,
    the plain integer pairing is used and well-definedness is checked
    (requires q_i * A_ij = 0 = q_j * A_ij mod m).
    """
    orders = grp.infer_cyclic_orders(group)
    q = np.array(orders, dtype=np.int64)
    A = np.asarray(A, dtype=np.int64)
    if A.shape != (len(q), len(q)):
        raise ValueError(f"A must be {len(q)}x{len(q)}")

    L = lcm(*orders)
    if m is None:
        m = L
        B = A * np.outer(L // q, L // q)
    else:
        m = root_order(m)
        B = A
        bad = np.argwhere((A * q[:, None]) % m | (A * q[None, :]) % m)
        if bad.size:
            i, j = bad[0]
            raise CocycleViolation(
                f"pairing entry A[{i},{j}] is not well defined modulo m={m}")

    # digits of each element, last factor fastest
    digits = np.stack(np.unravel_index(np.arange(group.order), orders), axis=1)
    return validate_cocycle(np.einsum("si,ij,tj->st", digits, B, digits), m, group)


def unify_root_orders(*tables: _RootPowers):
    """Rescale cocycles and witnesses to their common lcm root order."""
    L = lcm(*(t.m for t in tables))
    return tuple(t.rescaled(L) for t in tables)


def cocycle_product(c1: Cocycle, c2: Cocycle) -> Cocycle:
    grp.same_group(c1, c2)
    a, b = unify_root_orders(c1, c2)
    return Cocycle(a.group, a.m, a.exponents + b.exponents)


def cocycle_conjugate(c: Cocycle) -> Cocycle:
    return Cocycle(c.group, c.m, -c.exponents)


def similarity_apply(c: Cocycle, xi: CoboundaryWitness) -> Cocycle:
    """Multiply by the coboundary of xi: out(s,t) = xi(s) xi(t) / xi(st) * c(s,t)."""
    grp.same_group(c, xi)
    c, xi = unify_root_orders(c, xi)
    return Cocycle(c.group, c.m, c.exponents + _coboundary(xi.xi, c.group.mul))


def normalize_cocycle(tau: Cocycle):
    """Similar cocycle with sigma(s, s^-1) = 1, via exact half-exponents.

    The root order doubles so the square roots in the normalization formula
    become integer exponents.  Returns (sigma, xi) where xi certifies the
    similarity in the direction similarity_apply(sigma, xi) == tau (embedded
    at root order 2m).
    """
    g = tau.group
    tau2 = tau.rescaled(2 * tau.m)
    r = tau.exponents[np.arange(g.order), g.inv]  # exponent of tau(s, s^-1), over m
    sigma = Cocycle(g, tau2.m, tau2.exponents - _coboundary(r, g.mul))
    xi = CoboundaryWitness(g, tau2.m, r)
    # self-check: the witness certifies the similarity and the normalization rows hold
    if sigma.exponents[np.arange(g.order), g.inv].any():
        raise CertificateError("normalized cocycle has sigma(s, s^-1) != 1")
    if not np.array_equal(similarity_apply(sigma, xi).exponents, tau2.exponents):
        raise CertificateError("normalization witness does not certify the similarity")
    return sigma, xi


def _tree_coordinates(group: FiniteGroup, d, L: int):
    """(a, b) with xi(g) = a[g] . xi(S) + b[g] (mod L) for every solution xi.

    Sweeps the group's cached Cayley tree level by level: each new g = s_j t
    takes the equation of its tree edge, xi(g) = xi(s_j) + xi(t) - d(s_j, t),
    so b[g] = b[t] - d(s_j, t); a depends on the group alone.
    """
    a, levels = group.cayley_tree
    S = group.generators
    b = np.zeros(group.order, dtype=np.int64)
    for g, j, t in levels:
        b[g] = (b[t] - d[S[j], t]) % L
    return a, b


def coboundary_test(c1: Cocycle, c2: Cocycle) -> Optional[CoboundaryWitness]:
    """Exact similarity decision: xi with c1 = (coboundary of xi) * c2, or None.

    Solves xi(s) + xi(t) - xi(st) = d(s, t) mod m by a diagonal form of the
    coboundary operator over Z/mZ; complete for all moduli, composite ones
    included.
    Only the rows with s in a generating set S enter the system, |S| * n rows
    instead of n^2: once d = c1 / c2 is checked to be a normalized cocycle,
    d' = d - delta xi vanishing on S x G gives d'(sb, c) = d'(b, c), so d' = 0.
    The unknowns are z = xi(S), |S| of them instead of n.  A spanning tree of
    the left Cayley graph writes xi = a z + b, because each tree edge is one
    of the rows; every solution xi is therefore fixed by z, and substituting
    xi = a z + b into the |S| * n rows (where the tree edges become 0 = 0 and
    the row for s = e forces xi(e) = 0) loses no solution and adds none.
    """
    group = grp.same_group(c1, c2)
    c1, c2 = unify_root_orders(c1, c2)
    L = c1.m
    d = c1.exponents - c2.exponents
    d %= L
    bad = cocycle_violations(d, L, group)
    if bad:
        raise CocycleViolation(f"c1 / c2 is not a normalized cocycle, first: {bad[0]}", bad)
    S = group.generators
    a, b = _tree_coordinates(group, d, L)
    A = _coboundary(a, group.mul, S).reshape(-1, len(S))
    z = solve_mod(A, (d[S] - _coboundary(b, group.mul, S)).ravel(), L)
    if z is None:
        return None
    # each term is below L^2, so the sum stays inside solve_mod's int64 bound
    xi = CoboundaryWitness(group, L, (a % L) @ z + b)
    if not np.array_equal(similarity_apply(c2, xi).exponents, c1.exponents):
        raise CertificateError("coboundary witness does not map c2 onto c1")
    return xi


def random_coboundary_twist(c: Cocycle, m: int, rng) -> tuple[Cocycle, CoboundaryWitness]:
    """Twist c by a random coboundary with exponents over m-th roots."""
    xi_exp = rng.integers(0, m, c.group.order)
    xi_exp[0] = 0
    xi = CoboundaryWitness(c.group, m, xi_exp)
    return similarity_apply(c, xi), xi


def cocycle_to_json(c: Cocycle) -> dict:
    return {"m": c.m, "exponents": c.exponents.tolist(),
            "group": grp.group_to_json(c.group)}


def cocycle_from_json(doc: dict, group: Optional[FiniteGroup] = None,
                      base_dir: Optional[Path] = None) -> Cocycle:
    group = grp.file_group(doc, group, base_dir)
    table = grp.integer_entries(doc.get("exponents"))
    if table is None:
        raise ValueError("cocycle exponents must be a table of integers")
    return validate_cocycle(table, doc.get("m"), group)


def save_cocycle(c: Cocycle, path) -> None:
    Path(path).write_text(json.dumps(cocycle_to_json(c)))


def load_cocycle(path, group: Optional[FiniteGroup] = None) -> Cocycle:
    p = Path(path)
    return cocycle_from_json(json.loads(p.read_text()), group, base_dir=p.parent)
