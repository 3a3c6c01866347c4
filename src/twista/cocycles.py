"""2-cocycles on finite groups, stored as integer exponents over m-th roots of unity.

Storing exponents instead of floating phases makes the cocycle identity,
similarity, and the coboundary decision exact integer arithmetic.
Continuous-phase cocycles (irrational angles) are approximated by rational
root-of-unity cocycles at a caller-chosen root order m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import groups as grp
from .errors import CertificateError, CocycleViolation, NotCyclicProduct
from .groups import FiniteGroup
from .smith import solve_mod


@dataclass(frozen=True, eq=False)
class Cocycle:
    """Unimodular 2-cocycle: value(s, t) = exp(2*pi*i * exponents[s, t] / m)."""

    group: FiniteGroup
    m: int
    exponents: np.ndarray

    def __post_init__(self):
        expo = np.ascontiguousarray(self.exponents, dtype=np.int64) % self.m
        object.__setattr__(self, "exponents", expo)
        self.exponents.setflags(write=False)

    @cached_property
    def values(self) -> np.ndarray:
        """Complex table of cocycle values, |G| x |G|."""
        w = np.exp(2j * np.pi * np.arange(self.m) / self.m)
        return w[self.exponents]

    @property
    def is_trivial_table(self) -> bool:
        """Pointwise equal to 1 (stronger than cohomological triviality)."""
        return not self.exponents.any()

    def rescaled(self, new_m: int) -> "Cocycle":
        """Embed into a larger compatible root order (new_m multiple of m)."""
        if new_m % self.m:
            raise ValueError("new root order must be a multiple of the old one")
        k = new_m // self.m
        return Cocycle(self.group, new_m, self.exponents * k)


@dataclass(frozen=True)
class CoboundaryWitness:
    """Unimodular function xi with xi(e) = 1, as exponents over m-th roots."""

    group: FiniteGroup
    m: int
    xi: np.ndarray

    def __post_init__(self):
        xi = np.ascontiguousarray(self.xi, dtype=np.int64) % self.m
        object.__setattr__(self, "xi", xi)
        self.xi.setflags(write=False)
        if self.xi[0] != 0:
            raise ValueError("witness must satisfy xi(e) = 1")

    @cached_property
    def values(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.xi / self.m)

    def rescaled(self, new_m: int) -> "CoboundaryWitness":
        if new_m % self.m:
            raise ValueError("new root order must be a multiple of the old one")
        return CoboundaryWitness(self.group, new_m, self.xi * (new_m // self.m))

    def inverse(self) -> "CoboundaryWitness":
        return CoboundaryWitness(self.group, self.m, (-self.xi) % self.m)


def cocycle_violations(table, m: int, group: FiniteGroup, limit: int = 10):
    """List up to `limit` violations of the cocycle identity or normalization.

    The identity is checked on S x G x G for a generating set S: its defect
    F = delta e has delta F = 0, so F(sb, c, d) = F(b, c, d) once F vanishes
    on S.  Violations are reported as real (s, t, r) triples.
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
        return out[:limit]
    S = grp.generating_set(mul)
    lhs = (e[S, :, None] + e[mul[S], :]) % m         # sigma(s,t) sigma(st,r)
    rhs = (e[S][:, mul] + e[None, :, :]) % m         # sigma(s,tr) sigma(t,r)
    return [("identity", (int(S[i]), int(t), int(r)))
            for i, t, r in np.argwhere(lhs != rhs)[:limit]]


def validate_cocycle(table, m: int, group: FiniteGroup) -> Cocycle:
    """Return the Cocycle when valid, else raise CocycleViolation with witnesses."""
    if m < 1:
        raise CocycleViolation("root order must be positive")
    bad = cocycle_violations(table, m, group)
    if bad:
        raise CocycleViolation(f"{len(bad)} violation(s), first: {bad[0]}", bad)
    return Cocycle(group, int(m), np.asarray(table, dtype=np.int64))


def trivial_cocycle(group: FiniteGroup, m: int = 1) -> Cocycle:
    return Cocycle(group, m, np.zeros((group.order, group.order), dtype=np.int64))


def bilinear_cocycle(group: FiniteGroup, A, orders: Optional[Sequence[int]] = None,
                     m: Optional[int] = None) -> Cocycle:
    """sigma_A(s, t) = exp(2*pi*i <s, A t> / m) on a product of cyclic groups.

    With m omitted, m = lcm(orders) and the pairing is scaled by
    (m/q_i)(m/q_j) per entry, which is always well defined.  With m given,
    the plain integer pairing is used and well-definedness is checked
    (requires q_i * A_ij = 0 = q_j * A_ij mod m).
    """
    if orders is None:
        orders = grp.infer_cyclic_orders(group)
    orders = [int(q) for q in orders]
    if int(np.prod(orders)) != group.order:
        raise NotCyclicProduct("declared factor orders do not match the group order")
    if not np.array_equal(grp.cyclic_product(orders).mul, group.mul):
        raise NotCyclicProduct("group is not the mixed-radix product of the declared factors")
    k = len(orders)
    A = np.asarray(A, dtype=np.int64)
    if A.shape != (k, k):
        raise ValueError(f"A must be {k}x{k}")

    L = lcm(*orders)
    if m is None:
        m = L
        scale = np.array([[ (L // qi) * (L // qj) for qj in orders] for qi in orders],
                         dtype=np.int64)
        B = A * scale
    else:
        m = int(m)
        B = A
        for i, qi in enumerate(orders):
            for j, qj in enumerate(orders):
                if (A[i, j] * qi) % m or (A[i, j] * qj) % m:
                    raise CocycleViolation(
                        f"pairing entry A[{i},{j}] is not well defined modulo m={m}")

    # digit decomposition, last factor fastest
    digits = np.empty((group.order, k), dtype=np.int64)
    idx = np.arange(group.order)
    for pos in range(k - 1, -1, -1):
        digits[:, pos] = idx % orders[pos]
        idx = idx // orders[pos]
    expo = np.einsum("si,ij,tj->st", digits, B, digits) % m
    return validate_cocycle(expo, m, group)


def unify_root_orders(*cocycles: Cocycle):
    """Rescale cocycles to their common lcm root order."""
    L = lcm(*(c.m for c in cocycles))
    return tuple(c.rescaled(L) for c in cocycles)


def cocycle_product(c1: Cocycle, c2: Cocycle) -> Cocycle:
    grp.same_group(c1, c2)
    a, b = unify_root_orders(c1, c2)
    return Cocycle(a.group, a.m, (a.exponents + b.exponents) % a.m)


def cocycle_conjugate(c: Cocycle) -> Cocycle:
    return Cocycle(c.group, c.m, (-c.exponents) % c.m)


def similarity_apply(c: Cocycle, xi: CoboundaryWitness) -> Cocycle:
    """Multiply by the coboundary of xi: out(s,t) = xi(s) xi(t) / xi(st) * c(s,t)."""
    grp.same_group(c, xi)
    L = lcm(c.m, xi.m)
    e = c.rescaled(L).exponents
    x = xi.rescaled(L).xi
    mul = c.group.mul
    out = (e + x[:, None] + x[None, :] - x[mul]) % L
    return Cocycle(c.group, L, out)


def normalize_cocycle(tau: Cocycle):
    """Similar cocycle with sigma(s, s^-1) = 1, via exact half-exponents.

    The root order doubles so the square roots in the normalization formula
    become integer exponents.  Returns (sigma, xi) where xi certifies the
    similarity in the direction similarity_apply(sigma, xi) == tau (embedded
    at root order 2m).
    """
    g = tau.group
    m2 = 2 * tau.m
    e2 = (2 * tau.exponents) % m2
    r = tau.exponents[np.arange(g.order), g.inv]  # exponent of tau(s, s^-1), over m
    mul = g.mul
    expo = (e2 + r[mul] - r[:, None] - r[None, :]) % m2
    sigma = Cocycle(g, m2, expo)
    xi = CoboundaryWitness(g, m2, r % m2)
    # self-check: the witness certifies the similarity and the normalization rows hold
    if sigma.exponents[np.arange(g.order), g.inv].any():
        raise CertificateError("normalized cocycle has sigma(s, s^-1) != 1")
    if not np.array_equal(similarity_apply(sigma, xi).exponents, e2):
        raise CertificateError("normalization witness does not certify the similarity")
    return sigma, xi


def coboundary_test(c1: Cocycle, c2: Cocycle) -> Optional[CoboundaryWitness]:
    """Exact similarity decision: xi with c1 = (coboundary of xi) * c2, or None.

    Solves xi(s) + xi(t) - xi(st) = d(s, t) mod m by a diagonal form of the
    coboundary operator over Z/mZ; complete for all moduli, composite ones
    included.
    Only the rows with s in a generating set S enter the system, |S| * n rows
    instead of n^2: once d = c1 / c2 is checked to be a normalized cocycle,
    d' = d - delta xi vanishing on S x G gives d'(sb, c) = d'(b, c), so d' = 0.
    """
    group = grp.same_group(c1, c2)
    L = lcm(c1.m, c2.m)
    e1 = c1.rescaled(L).exponents
    d = (e1 - c2.rescaled(L).exponents) % L
    bad = cocycle_violations(d, L, group)
    if bad:
        raise CocycleViolation(f"c1 / c2 is not a normalized cocycle, first: {bad[0]}", bad)
    n = group.order
    s, t = grp.generating_set(group.mul)[:, None], np.arange(n)
    eye = np.eye(n, dtype=np.int64)
    A = (eye[s] + eye[t] - eye[group.mul[s, t]]).reshape(-1, n)
    x = solve_mod(A, d[s, t].ravel(), L)
    if x is None:
        return None
    xi = CoboundaryWitness(group, L, x)
    if not np.array_equal(similarity_apply(c2, xi).exponents, e1):
        raise CertificateError("coboundary witness does not map c2 onto c1")
    return xi


def random_coboundary_twist(c: Cocycle, m: int, rng) -> tuple[Cocycle, CoboundaryWitness]:
    """Twist c by a random coboundary with exponents over m-th roots."""
    xi_exp = rng.integers(0, m, c.group.order)
    xi_exp[0] = 0
    xi = CoboundaryWitness(c.group, m, xi_exp)
    return similarity_apply(c, xi), xi


def cocycle_to_json(c: Cocycle, inline_group: bool = True) -> dict:
    doc = {"m": c.m, "exponents": c.exponents.tolist()}
    if inline_group:
        doc["group"] = grp.group_to_json(c.group)
    return doc


def cocycle_from_json(doc: dict, group: Optional[FiniteGroup] = None,
                      base_dir: Optional[Path] = None) -> Cocycle:
    if group is None:
        group = grp.file_group(doc, base_dir)
        if group is None:
            raise CocycleViolation("cocycle file lacks a group and none was supplied")
    return validate_cocycle(doc["exponents"], int(doc["m"]), group)


def save_cocycle(c: Cocycle, path) -> None:
    Path(path).write_text(json.dumps(cocycle_to_json(c)))


def load_cocycle(path, group: Optional[FiniteGroup] = None) -> Cocycle:
    p = Path(path)
    return cocycle_from_json(json.loads(p.read_text()), group, base_dir=p.parent)
