"""Finite groups as Cayley tables with 0-based indices; identity is index 0."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import GroupMismatch, InvalidTable, NotCyclicProduct, UnsupportedSize

SYMMETRIC_CAP = 5


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group given by its multiplication table.

    ``mul[a, b]`` is the index of the product, ``inv[a]`` the inverse, and
    index 0 is always the identity.  Elements are plain integers in
    ``range(order)``.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "mul", np.ascontiguousarray(self.mul, dtype=np.int64))
        object.__setattr__(self, "inv", np.ascontiguousarray(self.inv, dtype=np.int64))
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def label(self, a: int) -> str:
        if self.labels is not None:
            return str(self.labels[a])
        return str(a)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.mul, other.mul)

    def __hash__(self):
        return hash((self.order, self.mul.tobytes()))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    def __bool__(self):
        return self.ok


def validate_table(mul) -> ValidationReport:
    """Check the group axioms for a square table; report up to 10 violations.

    Total function: malformed input yields a report, never an exception.
    """
    mul = np.asarray(mul)
    violations = []
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        return ValidationReport(False, ((f"table shape {mul.shape} is not square",),))
    n = mul.shape[0]
    if n == 0:
        return ValidationReport(False, (("empty table",),))
    if not np.issubdtype(mul.dtype, np.integer):
        try:
            as_int = mul.astype(np.int64)
        except (TypeError, ValueError):
            return ValidationReport(False, (("non-integer entries",),))
        if not np.array_equal(as_int, mul):
            return ValidationReport(False, (("non-integer entries",),))
        mul = as_int
    if mul.min() < 0 or mul.max() >= n:
        return ValidationReport(False, ((f"entries outside [0, {n})",),))

    rng_n = np.arange(n)
    if not np.array_equal(mul[0], rng_n):
        violations.append(("identity", "row 0 is not the identity row"))
    if not np.array_equal(mul[:, 0], rng_n):
        violations.append(("identity", "column 0 is not the identity column"))

    # two-sided inverses: exactly one zero in row a, at b with mul[b, a] = 0 too
    zeros = mul == 0
    first = np.argmax(zeros, axis=1)
    lacking = (zeros.sum(axis=1) != 1) | (mul[first, rng_n] != 0)
    violations += [("inverse", f"element {a} lacks a two-sided inverse")
                   for a in np.flatnonzero(lacking)]
    if len(violations) >= 10:
        return ValidationReport(False, tuple(violations[:10]))

    # Light's test: the elements g with (ag)c = a(gc) for all a, c form a
    # submagma, so checking g in a generating set covers every triple
    for g in generating_set(mul):
        bad = np.argwhere(mul[mul[:, g]] != mul[:, mul[g]])
        violations += [("associativity", (int(a), int(g), int(c)))
                       for a, c in bad[:10 - len(violations)]]
        if len(violations) >= 10:
            break
    return ValidationReport(not violations, tuple(violations))


def generating_set(mul) -> np.ndarray:
    """Greedy generators of a square table, index 0 first.

    Adds the smallest element not yet reached, then closes the reached set
    under right multiplication by the generators.  The closure assumes no
    identity, so the set generates any table as a magma; on a group it has
    at most floor(log2 n) + 1 elements.
    """
    mul = np.asarray(mul)
    reached = np.zeros(len(mul), dtype=bool)
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.append(np.flatnonzero(reached), gens[-1])
        while frontier.size:
            reached[frontier] = True
            products = mul[np.ix_(frontier, gens)].ravel()
            frontier = np.unique(products[~reached[products]])
    return np.array(gens, dtype=np.int64)


def _inverse_table(mul: np.ndarray) -> np.ndarray:
    """inv[a] = the b with mul[a, b] = 0, for a table that passed validate_table."""
    return np.argmax(mul == 0, axis=1)


def from_table(mul, labels=None) -> FiniteGroup:
    report = validate_table(mul)
    if not report.ok:
        raise InvalidTable(f"invalid Cayley table: {report.violations}")
    mul = np.asarray(mul, dtype=np.int64)
    return FiniteGroup(order=mul.shape[0], mul=mul, inv=_inverse_table(mul),
                       labels=tuple(labels) if labels is not None else None)


def same_group(*objs) -> FiniteGroup:
    """The common group of objects carrying a .group; raises GroupMismatch otherwise."""
    g0 = objs[0].group
    for o in objs[1:]:
        if o.group is not g0 and o.group != g0:
            raise GroupMismatch("operands live on different groups")
    return g0


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidTable("cyclic order must be positive")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    inv = (-idx) % n
    return FiniteGroup(order=n, mul=mul, inv=inv,
                       labels=tuple(str(k) for k in range(n)))


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with index (a, b) -> a * |G2| + b."""
    n1, n2 = g1.order, g2.order
    a = np.arange(n1 * n2) // n2
    b = np.arange(n1 * n2) % n2
    mul = g1.mul[np.ix_(a, a)] * n2 + g2.mul[np.ix_(b, b)]
    inv = g1.inv[a] * n2 + g2.inv[b]
    labels = tuple(f"({g1.label(int(x))},{g2.label(int(y))})" for x, y in zip(a, b))
    return FiniteGroup(order=n1 * n2, mul=mul, inv=inv, labels=labels)


def cyclic_product(orders: Sequence[int]) -> FiniteGroup:
    """Z_{q1} x ... x Z_{qk} with mixed-radix indexing, last factor fastest."""
    if not orders:
        raise InvalidTable("need at least one cyclic factor")
    g = cyclic(int(orders[0]))
    for q in orders[1:]:
        g = direct_product(g, cyclic(int(q)))
    return g


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element f*n + a means s^f r^a."""
    if n < 1:
        raise InvalidTable("dihedral parameter must be positive")
    size = 2 * n
    f, a = np.divmod(np.arange(size), n)
    # row (f, a) times column (g, b) is (f ^ g, (-a if g else a) + b)
    rot = np.where(f[None, :] == 1, -a[:, None], a[:, None])
    mul = (f[:, None] ^ f[None, :]) * n + (rot + a[None, :]) % n
    labels = tuple((f"s^{f}r^{a}" if f else f"r^{a}") for f in (0, 1) for a in range(n))
    return FiniteGroup(order=size, mul=mul, inv=_inverse_table(mul), labels=labels)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group S_n for n <= 5; permutations in lexicographic order."""
    if n < 1:
        raise InvalidTable("symmetric parameter must be positive")
    if n > SYMMETRIC_CAP:
        raise UnsupportedSize(f"symmetric({n}) exceeds the cap n <= {SYMMETRIC_CAP}")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    mul = np.empty((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            # composition p after q: x -> p[q[x]]
            mul[i, j] = index[tuple(p[q[x]] for x in range(n))]
    labels = tuple("".join(map(str, p)) for p in perms)
    return FiniteGroup(order=size, mul=mul, inv=_inverse_table(mul), labels=labels)


def build_group(kind: str, **kwargs) -> FiniteGroup:
    """Dispatch constructor used by the CLI.

    kind: cyclic(n) | product(g1, g2) | cyclic_product(orders) |
          dihedral(n) | symmetric(n) | from_table(table)
    """
    kind = kind.replace("-", "_")
    if kind == "cyclic":
        return cyclic(int(kwargs["n"]))
    if kind == "product":
        return direct_product(kwargs["g1"], kwargs["g2"])
    if kind == "cyclic_product":
        return cyclic_product(kwargs["orders"])
    if kind == "dihedral":
        return dihedral(int(kwargs["n"]))
    if kind == "symmetric":
        return symmetric(int(kwargs["n"]))
    if kind == "from_table":
        return from_table(kwargs["table"], kwargs.get("labels"))
    raise ValueError(f"unknown group kind {kind!r}")


def element_order(group: FiniteGroup, a: int) -> int:
    """Smallest k >= 1 with a^k = e."""
    x = int(a)
    k = 1
    while x != 0:
        x = int(group.mul[x, a])
        k += 1
    return k


def group_to_json(group: FiniteGroup) -> dict:
    doc = {"order": group.order, "mul": group.mul.tolist()}
    if group.labels is not None:
        doc["labels"] = list(group.labels)
    return doc


def group_from_json(doc: dict) -> FiniteGroup:
    mul = doc["mul"]
    labels = doc.get("labels")
    g = from_table(mul, labels)
    if g.order != int(doc.get("order", g.order)):
        raise InvalidTable("declared order does not match table size")
    return g


def save_group(group: FiniteGroup, path) -> None:
    Path(path).write_text(json.dumps(group_to_json(group)))


def load_group(path) -> FiniteGroup:
    return group_from_json(json.loads(Path(path).read_text()))


def file_group(doc: dict, base_dir: Optional[Path] = None) -> Optional[FiniteGroup]:
    """The group a file's "group" entry names, or None when it has none.

    The entry is either an inline group document or a path, taken relative to
    base_dir (the directory of the file) unless absolute.
    """
    entry = doc.get("group")
    if entry is None:
        return None
    if isinstance(entry, str):
        return load_group(Path(base_dir or ".") / entry)
    return group_from_json(entry)


def infer_cyclic_orders(group: FiniteGroup) -> list[int]:
    """Recover factor orders of a mixed-radix cyclic product, last factor fastest.

    Raises NotCyclicProduct when the table does not match the layout produced
    by cyclic_product().
    """
    if group.order == 1:
        return [1]
    orders: list[int] = []
    stride = 1
    while stride < group.order:
        q = element_order(group, stride)
        orders.append(q)
        stride *= q
    if stride != group.order:
        raise NotCyclicProduct("strides do not exhaust the group")
    orders.reverse()
    expected = cyclic_product(orders)
    if not np.array_equal(expected.mul, group.mul):
        raise NotCyclicProduct("table is not the mixed-radix product of cyclic groups")
    return orders
