"""Finite groups as Cayley tables with 0-based indices; identity is index 0."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import GroupMismatch, InvalidTable, NotCyclicProduct, UnsupportedSize

SYMMETRIC_CAP = 5


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group held by its multiplication table alone.

    ``mul[a, b]`` is the index of the product and index 0 is always the
    identity.  ``order`` and ``inv`` are read from the table: ``inv[a]`` is
    the b with ``mul[a, b] = 0``.  Elements are plain integers in
    ``range(order)``.  from_table checks the group axioms; the constructor
    trusts its table.
    """

    mul: np.ndarray
    labels: Optional[tuple] = None
    order: int = field(init=False)
    inv: np.ndarray = field(init=False)

    def __post_init__(self):
        mul = np.ascontiguousarray(self.mul, dtype=np.int64)
        inv = np.argmax(mul == 0, axis=1)
        mul.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "order", len(mul))
        object.__setattr__(self, "inv", inv)

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

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

    @cached_property
    def generators(self) -> np.ndarray:
        """generating_set(mul), read-only: the identity first."""
        gens = generating_set(self.mul)
        gens.setflags(write=False)
        return gens

    @cached_property
    def cayley_tree(self) -> tuple:
        """(a, levels): a spanning tree of the left Cayley graph of the generators.

        Walks breadth-first from the generators S, one level per numpy step.
        Level arrays (g, j, t) say that each new g is S[j] t, with t on the
        level before; a[g] counts the generators on g's tree path, so a
        function xi with xi(st) = xi(s) + xi(t) - d(s, t) on the tree edges
        is a[g] . xi(S) + b[g], where b is swept over the levels in order.
        """
        mul, S = self.mul, self.generators
        k = len(S)
        a = np.zeros((self.order, k), dtype=np.int64)
        a[S, np.arange(k)] = 1
        seen = np.zeros(self.order, dtype=bool)
        seen[S] = True
        levels = []
        frontier = S
        while frontier.size:
            g = mul[S[:, None], frontier].ravel()        # s_j t, j-major
            fresh = np.flatnonzero(~seen[g])
            g, first = np.unique(g[fresh], return_index=True)
            j, i = np.divmod(fresh[first], frontier.size)
            t = frontier[i]
            a[g] = a[t]
            a[g, j] += 1
            seen[g] = True
            levels.append((g, j, t))
            frontier = g
        for arr in (a, *(x for level in levels for x in level)):
            arr.setflags(write=False)
        return a, tuple(levels)


def validate_table(mul) -> list:
    """Check the group axioms for a square table; list up to 10 violations.

    Total function: malformed input yields violations, never an exception.
    The list is empty exactly when the table is a group's.
    """
    try:
        mul = np.asarray(mul)
    except ValueError:
        return [("table rows differ in length",)]
    violations = []
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        return [(f"table shape {mul.shape} is not square",)]
    n = mul.shape[0]
    if n == 0:
        return [("empty table",)]
    mul = integer_entries(mul)
    if mul is None:
        return [("non-integer entries",)]
    if mul.min() < 0 or mul.max() >= n:
        return [(f"entries outside [0, {n})",)]

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
        return violations[:10]

    # Light's test: the elements g with (ag)c = a(gc) for all a, c form a
    # submagma, so checking g in a generating set covers every triple
    for g in generating_set(mul):
        bad = np.argwhere(mul[mul[:, g]] != mul[:, mul[g]])
        violations += [("associativity", (int(a), int(g), int(c)))
                       for a, c in bad[:10 - len(violations)]]
        if len(violations) >= 10:
            break
    return violations


def integer_entries(x) -> Optional[np.ndarray]:
    """x as an int64 array when every entry is an integer, else None.

    A whole float such as 2.0 counts; 2.9, null, strings and integers past
    int64 do not.  The one integrality rule of the file loaders: Cayley
    table entries, the declared group order, cocycle m and exponents.
    """
    a = np.asarray(x)
    try:
        with np.errstate(invalid="ignore"):
            as_int = a.astype(np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if np.array_equal(as_int, a) else None


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


def from_table(mul, labels=None) -> FiniteGroup:
    violations = validate_table(mul)
    if violations:
        raise InvalidTable(f"invalid Cayley table: {violations}", violations)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != len(mul):
            raise ValueError(f"{len(labels)} labels for a group of order {len(mul)}")
    return FiniteGroup(mul, labels)


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
    return FiniteGroup(mul, tuple(str(k) for k in range(n)))


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with index (a, b) -> a * |G2| + b."""
    n1, n2 = g1.order, g2.order
    a = np.arange(n1 * n2) // n2
    b = np.arange(n1 * n2) % n2
    mul = g1.mul[np.ix_(a, a)] * n2 + g2.mul[np.ix_(b, b)]
    labels = tuple(f"({g1.label(int(x))},{g2.label(int(y))})" for x, y in zip(a, b))
    return FiniteGroup(mul, labels)


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
    return FiniteGroup(mul, labels)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group S_n for n <= 5; permutations in lexicographic order."""
    if n < 1:
        raise InvalidTable("symmetric parameter must be positive")
    if n > SYMMETRIC_CAP:
        raise UnsupportedSize(f"symmetric({n}) exceeds the cap n <= {SYMMETRIC_CAP}")
    perms = np.array(list(itertools.permutations(range(n))))
    # p after q is x -> p[q[x]], row (i, j) of perms[:, perms]; the base-n
    # codes of the permutations increase in lexicographic order
    powers = n ** np.arange(n - 1, -1, -1)
    mul = np.searchsorted(perms @ powers, perms[:, perms] @ powers)
    labels = tuple("".join(map(str, p)) for p in perms)
    return FiniteGroup(mul, labels)


# the kinds of `twista group build`: each constructor and the name of its
# one parameter, which is also the command's flag for it
KINDS = {"cyclic": (cyclic, "n"), "dihedral": (dihedral, "n"),
         "symmetric": (symmetric, "n"),
         "cyclic-product": (cyclic_product, "orders"),
         "product": (lambda pair: direct_product(*pair), "inputs")}


def build_group(kind: str, param) -> FiniteGroup:
    """The group of a KINDS kind from its one parameter.

    cyclic, dihedral and symmetric take n; cyclic-product takes the factor
    orders; product takes a pair of groups.
    """
    return KINDS[kind][0](param)


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
    """The group of a document: ValueError on a wrongly typed entry,
    InvalidTable on a table that is no group or a declared order it lacks."""
    if not isinstance(doc, dict) or "mul" not in doc:
        raise ValueError('a group document must be a JSON object with a "mul" table')
    try:
        g = from_table(doc["mul"], doc.get("labels"))
    except TypeError as exc:
        raise ValueError(f"group labels must be a list: {exc}") from None
    order = integer_entries(doc.get("order", g.order))
    if order is None or order.ndim:
        raise ValueError("group order must be an integer")
    if order != g.order:
        raise InvalidTable("declared order does not match table size",
                           [("order", f"declared {order}, table has {g.order}")])
    return g


def save_group(group: FiniteGroup, path) -> None:
    Path(path).write_text(json.dumps(group_to_json(group)))


def load_group(path) -> FiniteGroup:
    return group_from_json(json.loads(Path(path).read_text()))


def file_group(doc: dict, group: Optional[FiniteGroup] = None,
               base_dir: Optional[Path] = None) -> FiniteGroup:
    """The group of a file: its "group" entry, or the group supplied for it.

    The entry is either an inline group document or a path, taken relative to
    base_dir (the directory of the file) unless absolute; the group file a
    path names is read by load_group.  When a group is supplied and the file
    has an entry too, the entry's table must equal group.mul, else
    GroupMismatch; an inline table is compared raw, not validated again.
    """
    if not isinstance(doc, dict):
        raise ValueError("a function or cocycle document must be a JSON object")
    entry = doc.get("group")
    if isinstance(entry, str):
        entry = load_group(Path(base_dir or ".") / entry)
    if group is None:
        if entry is None:
            raise ValueError("the file lacks a group and none was supplied")
        return entry if isinstance(entry, FiniteGroup) else group_from_json(entry)
    if entry is not None:
        table = entry.get("mul") if isinstance(entry, dict) else getattr(entry, "mul", None)
        if not np.array_equal(table, group.mul):
            raise GroupMismatch("the file's group table differs from the supplied group")
    return group


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
