"""Twisted convolution algebra of a finite group: C[G, sigma] acting on l2(G).

Haar measure is counting measure (weight 1 per point), so the duality
pairing <lambda_sigma(s), phi> = phi(s) holds with plain sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import groups as grp
from .cocycles import Cocycle, roots_of_unity
from .errors import GroupMismatch, MissingCoefficients
from .groups import FiniteGroup, same_group

SPAN_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """Complex-valued function on a finite group; values[s] = f(s)."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.shape != (self.group.order,):
            raise ValueError(f"expected {self.group.order} values, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("function values must be finite")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    def norm(self, p) -> float:
        if p == np.inf:
            return float(np.abs(self.values).max())
        return float(np.sum(np.abs(self.values) ** p) ** (1.0 / p))


def delta(group: FiniteGroup, s: int) -> GroupFunction:
    v = np.zeros(group.order, dtype=complex)
    v[s] = 1.0
    return GroupFunction(group, v)


def twisted_convolve(f: GroupFunction, g: GroupFunction, sigma: Cocycle) -> GroupFunction:
    """(f *_sigma g)(s) = sum_t f(t) sigma(t, t^-1 s) g(t^-1 s)."""
    G = same_group(f, g, sigma)
    tinv_s = G.mul[G.inv]                       # [t, s] = t^-1 s
    phase = sigma.values[np.arange(G.order)[:, None], tinv_s]
    out = f.values @ (phase * g.values[tinv_s])
    return GroupFunction(G, out)


def twisted_involution(f: GroupFunction, sigma: Cocycle) -> GroupFunction:
    """f*(s) = conj(sigma(s, s^-1)) conj(f(s^-1)); involutive."""
    G = same_group(f, sigma)
    idx = np.arange(G.order)
    phase = np.conj(sigma.values[idx, G.inv])
    return GroupFunction(G, phase * np.conj(f.values[G.inv]))


def regular_rep_tensor(sigma: Cocycle) -> np.ndarray:
    """lambda_sigma(s) for every s, stacked along axis 0: the lift of each delta_s."""
    return lift_matrix(np.eye(sigma.group.order, dtype=complex), sigma)


def lift_matrix(coeffs: np.ndarray, sigma: Cocycle) -> np.ndarray:
    """sum_s coeffs[..., s] lambda_sigma(s) as dense matrices, over leading axes."""
    G = sigma.group
    n = G.order
    out = np.zeros(coeffs.shape[:-1] + (n, n), dtype=complex)
    # each column of the table is a permutation: the n^2 (su, u) are distinct
    out[..., G.mul, np.arange(n)] = coeffs[..., :, None] * sigma.values
    return out


def operator_coefficients(matrix: np.ndarray, sigma: Cocycle) -> np.ndarray:
    """Recover c with matrix = sum c_s lambda_sigma(s), via c_s = tau(M lam(s)^H).

    tau is the normalized matrix trace; exact on the span of the lambdas.
    """
    G = sigma.group
    n = G.order
    cols = np.arange(n)
    # tr(M lam(s)^H) = sum_u M[s u, u] conj(sigma(s, u))
    gathered = matrix[G.mul, cols[None, :]]
    return (gathered * np.conj(sigma.values)).sum(axis=1) / n


@dataclass(frozen=True, eq=False)
class TwistedOperator:
    """sum_s coeffs[s] lambda_sigma(s), an element of VN(G, sigma).

    The operator is held by its cocycle and its coefficients alone: its
    group is the cocycle's, and ``matrix`` is lifted from the coefficients
    on first use and kept.  A matrix enters only through from_matrix, which
    checks that it lies on the span of the lambdas.
    """

    cocycle: Cocycle
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    @property
    def group(self) -> FiniteGroup:
        return self.cocycle.group

    @cached_property
    def matrix(self) -> np.ndarray:
        m = lift_matrix(self.coeffs, self.cocycle)
        m.setflags(write=False)
        return m

    @classmethod
    def from_matrix(cls, cocycle: Cocycle, matrix) -> "TwistedOperator":
        """The operator of a matrix on the span; MissingCoefficients off it."""
        m = np.asarray(matrix, dtype=complex)
        c = operator_coefficients(m, cocycle)
        resid = np.abs(lift_matrix(c, cocycle) - m).max()
        if resid > SPAN_RESIDUAL_TOL * max(1.0, np.abs(m).max()):
            raise MissingCoefficients(
                f"matrix is off the span of the twisted translations by {resid:.2e}")
        return cls(cocycle, c)


def lift(f: GroupFunction, sigma: Cocycle) -> TwistedOperator:
    """Lift of f: the operator sum_s f(s) lambda_sigma(s)."""
    same_group(f, sigma)
    return TwistedOperator(sigma, f.values)


def pair_operator(T: TwistedOperator, phi: GroupFunction) -> complex:
    """Duality pairing <T, phi> = sum_s c_s phi(s)."""
    same_group(T, phi)
    return complex(np.sum(T.coeffs * phi.values))


def bullet_action(s: int, u: GroupFunction, sigma: Cocycle) -> GroupFunction:
    """(lambda_sigma(s) . u)(t) = conj(sigma(s, s^-1 t)) u(s^-1 t)."""
    G = same_group(u, sigma)
    sinv_t = G.mul[G.inv[s]]
    return GroupFunction(G, np.conj(sigma.values[s, sinv_t]) * u.values[sinv_t])


@dataclass(frozen=True, eq=False)
class CentralExtension:
    """G_sigma = G x mu_m with (s,j)(t,k) = (st, j + k + exp[s,t]).

    Held by sigma and the extension's group: the base group G and the root
    order m are sigma's.  Element (s, k) has index s*m + k; Haar weight is
    1 on G and 1/m per circle point, so project(embed(f)) = f and embed
    intertwines twisted convolution downstairs with convolution upstairs.
    """

    sigma: Cocycle
    ext: FiniteGroup

    @property
    def base(self) -> FiniteGroup:
        return self.sigma.group

    @property
    def m(self) -> int:
        return self.sigma.m

    def index(self, s: int, k: int) -> int:
        return s * self.m + int(k % self.m)

    @property
    def roots(self) -> np.ndarray:
        return roots_of_unity(self.m)

    def embed(self, f: GroupFunction) -> GroupFunction:
        """j(f)(s, z) = conj(z) f(s)."""
        same_group(f, self.sigma)
        vals = (f.values[:, None] * np.conj(self.roots)[None, :]).reshape(-1)
        return GroupFunction(self.ext, vals)

    def project(self, F: GroupFunction) -> GroupFunction:
        """(P F)(s) = (1/m) sum_k F(s, k) z_k."""
        if F.group != self.ext:
            raise GroupMismatch("function does not live on the extension")
        vals = (F.values.reshape(self.base.order, self.m) * self.roots[None, :])
        return GroupFunction(self.base, vals.sum(axis=1) / self.m)

    def convolve(self, F: GroupFunction, H: GroupFunction) -> GroupFunction:
        """Convolution on G_sigma with the weighted Haar measure (1/m per circle point)."""
        if F.group != self.ext or H.group != self.ext:
            raise GroupMismatch("functions do not live on the extension")
        yinv_x = self.ext.mul[self.ext.inv]
        out = (F.values / self.m) @ H.values[yinv_x]
        return GroupFunction(self.ext, out)


def central_extension(sigma: Cocycle) -> CentralExtension:
    base = sigma.group
    m = sigma.m
    n = base.order
    size = n * m
    s = np.arange(size) // m
    k = np.arange(size) % m
    mul = (base.mul[np.ix_(s, s)] * m
           + (k[:, None] + k[None, :] + sigma.exponents[np.ix_(s, s)]) % m)
    return CentralExtension(sigma, grp.from_table(mul))


def comultiply(T: TwistedOperator) -> np.ndarray:
    """Matrix of lambda_sigma(s) -> lambda_sigma(s) (x) lambda(s) applied to T.

    Column (u, v) holds c_s sigma(s, u) at row (su, sv) for every s, and is
    zero elsewhere; distinct s give distinct rows, so one assignment writes
    all n^3 nonzero entries.
    """
    G = T.group
    n = G.order
    u = np.arange(n)
    out = np.zeros((n * n, n * n), dtype=complex)
    out[G.mul[:, :, None] * n + G.mul[:, None, :], u[:, None] * n + u] = (
        T.coeffs[:, None, None] * T.cocycle.values[:, :, None])
    return out


def tensor_coefficients(M: np.ndarray, sigma: Cocycle) -> np.ndarray:
    """c[s, t] with M = sum c_{s,t} lambda_sigma(s) (x) lambda(t).

    c[s, t] = sum_{u,v} conj(sigma(s, u)) M[(su, tv), (u, v)] / n^2; the sum
    over v does not involve s, so it is taken first: R[t, a, u] is the sum
    over v of M[(a, tv), (u, v)].
    """
    G = sigma.group
    n = G.order
    u = np.arange(n)
    R = M.reshape(n, n, n, n).transpose(1, 3, 0, 2)[G.mul, u].sum(axis=1)
    return np.einsum("su,tsu->st", np.conj(sigma.values), R[:, G.mul, u]) / (n * n)


def comultiply_pair(M: np.ndarray, u: GroupFunction, v: GroupFunction,
                    sigma: Cocycle) -> complex:
    """<M, u (x) v> = sum_{s,t} c_{s,t} u(s) v(t), coefficients from the trace."""
    c = tensor_coefficients(M, sigma)
    return complex(np.einsum("st,s,t->", c, u.values, v.values))


def center_dimension(sigma: Cocycle) -> int:
    """Dimension of the center of span{lambda_sigma(s)}.

    Counts the conjugacy classes of sigma-regular elements: s with
    sigma(s, t) = sigma(t, s) for every t commuting with s.  Equals the number
    of irreducible sigma-representations (Karpilovsky); exact integer work.
    """
    G = sigma.group
    mul, e = G.mul, sigma.exponents
    regular = ~((mul == mul.T) & (e != e.T)).any(axis=1)
    class_of = mul[mul, G.inv[:, None]].min(axis=0)   # min over t of t s t^-1
    return len(np.unique(class_of[regular]))


def complex_entries(a) -> list:
    """The entries of a, flattened in C order, as [re, im] float pairs."""
    return np.asarray(a, complex).reshape(-1, 1).view(float).tolist()


def function_to_json(f: GroupFunction) -> dict:
    return {"values": complex_entries(f.values), "group": grp.group_to_json(f.group)}


def function_from_json(doc: dict, group: Optional[FiniteGroup] = None,
                       base_dir: Optional[Path] = None) -> GroupFunction:
    group = grp.file_group(doc, group, base_dir)
    try:
        vals = np.array([complex(re, im) for re, im in doc["values"]])
    except TypeError as exc:
        raise ValueError(f"function values must be [re, im] number pairs: {exc}") from None
    return GroupFunction(group, vals)


def save_function(f: GroupFunction, path) -> None:
    Path(path).write_text(json.dumps(function_to_json(f)))


def load_function(path, group: Optional[FiniteGroup] = None) -> GroupFunction:
    p = Path(path)
    return function_from_json(json.loads(p.read_text()), group, base_dir=p.parent)
