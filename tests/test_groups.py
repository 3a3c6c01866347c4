"""Group construction, validation, and element arithmetic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import twista as tw
from oracles import (associativity_fails, cyclic_inverse, dihedral_inverse,
                     extension_inverse, magma_closure, product_inverse,
                     symmetric_inverse, symmetric_table, tree_coordinates)
from twista.errors import InvalidTable, UnsupportedSize


def test_trivial_group():
    g = tw.cyclic(1)
    assert g.order == 1
    assert g.multiply(0, 0) == 0


def test_klein_four_every_nonidentity_has_order_two():
    g = tw.direct_product(tw.cyclic(2), tw.cyclic(2))
    assert g.order == 4
    assert all(tw.element_order(g, a) == 2 for a in range(1, 4))


def test_s3_order_count_brute_force():
    g = tw.symmetric(3)
    assert g.order == 6
    # brute-force order count straight off the table
    orders = []
    for a in range(6):
        x, k = a, 1
        while x != 0:
            x = int(g.mul[x, a])
            k += 1
        orders.append(k)
    assert orders.count(3) == 2
    assert orders.count(2) == 3
    assert orders.count(1) == 1


def test_validate_z3_ok():
    g = tw.cyclic(3)
    assert tw.validate_table(g.mul) == []


def test_validate_swapped_entry_reports_violation():
    mul = tw.cyclic(3).mul.copy()
    mul[1, 1], mul[1, 2] = mul[1, 2], mul[1, 1]
    assert tw.validate_table(mul)


def test_validate_product_table_full_scan():
    g = tw.cyclic_product([2, 2])
    assert tw.validate_table(g.mul) == []
    # independent triple scan
    n = g.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert g.mul[g.mul[a, b], c] == g.mul[a, g.mul[b, c]]


def test_validate_is_total_on_garbage():
    assert tw.validate_table([[0, 1], [1, 1]])
    assert tw.validate_table([[0, 1, 2]])
    assert tw.validate_table([["x", "y"], ["y", "x"]])
    assert tw.validate_table([[0, 1], [1]]) == [("table rows differ in length",)]


def test_element_orders():
    assert tw.element_order(tw.cyclic(5), 0) == 1
    assert tw.element_order(tw.cyclic(5), 1) == 5
    s3 = tw.symmetric(3)
    transpositions = [a for a in range(6) if tw.element_order(s3, a) == 2]
    assert len(transpositions) == 3


def test_symmetric_cap():
    with pytest.raises(UnsupportedSize):
        tw.symmetric(6)


def test_from_table_rejects_bad_identity():
    with pytest.raises(InvalidTable):
        tw.from_table([[1, 0], [0, 1]])


def test_dihedral_structure():
    d4 = tw.dihedral(4)
    assert d4.order == 8
    assert not d4.is_abelian
    # all flips s r^a have order 2
    assert all(tw.element_order(d4, 4 + a) == 2 for a in range(4))


@pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "Z3xZ3", "D4", "S3", "S4"])
def test_inverse_antihomomorphism(name, suite_groups):
    g = suite_groups[name]
    ab = g.mul
    assert np.array_equal(g.inv[ab], g.mul[np.ix_(g.inv, g.inv)].T)


@pytest.mark.parametrize("name", ["Z4", "D4", "S3", "S4"])
def test_latin_square_rows_and_columns(name, suite_groups):
    g = suite_groups[name]
    full = set(range(g.order))
    for a in range(g.order):
        assert set(g.mul[a].tolist()) == full
        assert set(g.mul[:, a].tolist()) == full


def test_product_order_and_componentwise_inverse():
    g1, g2 = tw.symmetric(3), tw.cyclic(4)
    g = tw.direct_product(g1, g2)
    assert g.order == 24
    for a1 in range(g1.order):
        for a2 in range(g2.order):
            idx = a1 * 4 + a2
            assert g.inv[idx] == g1.inv[a1] * 4 + g2.inv[a2]


@given(st.integers(min_value=1, max_value=12), st.data())
def test_cyclic_inverse_law(n, data):
    g = tw.cyclic(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert g.inv[g.mul[a, b]] == g.mul[g.inv[b], g.inv[a]]


def test_symmetric_five_at_the_size_cap():
    g = tw.symmetric(5)
    assert g.order == 120
    assert tw.validate_table(g.mul) == []
    orders = [tw.element_order(g, a) for a in range(120)]
    assert max(orders) == 6 and orders.count(5) == 24


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_matches_the_product_by_product_table(n):
    g = tw.symmetric(n)
    expect = symmetric_table(n)
    assert g.mul.dtype == expect.dtype and np.array_equal(g.mul, expect)


@pytest.mark.parametrize("doc", [{"order": 2.9, "mul": [[0, 1], [1, 0]]},
                                 {"order": None, "mul": [[0, 1], [1, 0]]},
                                 {"order": [2], "mul": [[0, 1], [1, 0]]},
                                 {"order": 2, "mul": [[0, 1], [1, 0]], "labels": 5},
                                 {"order": 2, "mul": [[0, 1], [1, 0]], "labels": ["e"]},
                                 [[0, 1], [1, 0]]])
def test_group_from_json_refuses_wrongly_typed_entries(doc):
    with pytest.raises(ValueError):
        tw.groups.group_from_json(doc)


def test_group_from_json_refuses_a_declared_order_the_table_lacks():
    with pytest.raises(InvalidTable) as exc:
        tw.groups.group_from_json({"order": 5, "mul": tw.cyclic(3).mul.tolist()})
    assert exc.value.violations == [("order", "declared 5, table has 3")]
    assert tw.groups.group_from_json({"order": 3.0, "mul": tw.cyclic(3).mul.tolist()}) \
        == tw.cyclic(3)


def test_json_round_trip(tmp_path):
    g = tw.dihedral(3)
    path = tmp_path / "d3.json"
    tw.save_group(g, path)
    g2 = tw.load_group(path)
    assert g2 == g
    assert g2.labels == g.labels


def test_loader_rejects_corrupted_file(tmp_path):
    import json

    g = tw.cyclic(3)
    doc = tw.groups.group_to_json(g)
    doc["mul"][1][1] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidTable):
        tw.load_group(path)


def test_infer_cyclic_orders():
    assert tw.groups.infer_cyclic_orders(tw.cyclic_product([2, 3, 4])) == [2, 3, 4]
    with pytest.raises(tw.NotCyclicProduct):
        tw.groups.infer_cyclic_orders(tw.symmetric(3))


@pytest.mark.parametrize("orders", [[2, 2], [3, 3], [2, 4], [4, 8], [2, 2, 2],
                                    [5, 5], [11, 11], [6], [2, 3]])
def test_infer_cyclic_orders_reads_back_each_product(orders):
    # bilinear_cocycle takes its factor orders from here alone
    assert tw.groups.infer_cyclic_orders(tw.cyclic_product(orders)) == orders


def test_generating_set_reaches_every_suite_group(suite_groups):
    extra = {"D20": tw.dihedral(20), "S5": tw.symmetric(5),
             "Z11xZ11": tw.cyclic_product([11, 11]), "Z10^3": tw.cyclic_product([10, 10, 10])}
    for name, g in {**suite_groups, **extra}.items():
        gens = tw.groups.generating_set(g.mul)
        assert gens[0] == 0 and list(gens) == sorted(gens), name
        assert len(gens) <= int(np.log2(g.order)) + 1, name
        assert magma_closure(g.mul, gens).all(), name


def _relabelled_s4():
    g = tw.symmetric(4)
    p = np.concatenate([[0], 1 + np.random.default_rng(7).permutation(g.order - 1)])
    q = np.argsort(p)
    return tw.from_table(p[g.mul[np.ix_(q, q)]])


def _cache_groups(suite_groups):
    return {**suite_groups, "D20": tw.dihedral(20), "S5": tw.symmetric(5),
            "Z11xZ11": tw.cyclic_product([11, 11]), "Z2^5": tw.cyclic_product([2] * 5),
            "S4-relabelled": _relabelled_s4()}


def test_generators_are_the_generating_set_and_read_only(suite_groups):
    for name, g in _cache_groups(suite_groups).items():
        assert np.array_equal(g.generators, tw.groups.generating_set(g.mul)), name
        assert g.generators is g.generators, name
        with pytest.raises(ValueError):
            g.generators[0] = 1
        with pytest.raises(AttributeError):
            g.generators = np.arange(2)


def test_cayley_tree_reproduces_the_per_call_walk(suite_groups):
    rng = np.random.default_rng(0)
    for name, g in _cache_groups(suite_groups).items():
        L = 12
        d = rng.integers(0, L, (g.order, g.order))
        a_old, b_old = tree_coordinates(g.mul, g.generators, d, L)
        a, b = tw.cocycles._tree_coordinates(g, d, L)
        assert a is g.cayley_tree[0], name
        assert np.array_equal(a, a_old) and np.array_equal(b, b_old), name
        assert not a.flags.writeable, name
        # every element but the generators is reached by exactly one tree edge
        reached = np.concatenate([level[0] for level in g.cayley_tree[1]])
        assert sorted(np.concatenate([g.generators, reached])) == list(range(g.order)), name
        for level in g.cayley_tree[1]:
            new, j, t = level
            assert np.array_equal(g.mul[g.generators[j], t], new), name


def test_validate_table_memory_stays_quadratic():
    mul = tw.cyclic_product([10, 10, 10]).mul
    tracemalloc.start()
    try:
        violations = tw.validate_table(mul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    assert peak < 128 * 2**20      # the n^3 triple scan needed about 16 GB


_TABLE_BUILDERS = {
    "Z5": lambda: tw.cyclic(5),
    "Z7": lambda: tw.cyclic(7),
    "Z2xZ2": lambda: tw.cyclic_product([2, 2]),
    "S3": lambda: tw.symmetric(3),
    "D4": lambda: tw.dihedral(4),
    "Z3xZ3": lambda: tw.cyclic_product([3, 3]),
    "S4": lambda: tw.symmetric(4),
}


def _distorted_table(mul, kind, rng):
    """A group table perturbed, relabelled, or turned into a Latin square or loop."""
    n = len(mul)
    if kind == "perturbed":             # identity row and column kept
        mul = mul.copy()
        for _ in range(int(rng.integers(1, 4))):
            s, t = rng.integers(1, n, 2)
            mul[s, t] = rng.integers(0, n)
        return mul
    if kind == "relabelled":            # an isomorphic copy, identity moved off 0
        p = rng.permutation(n)
        q = np.argsort(p)
        return p[mul[np.ix_(q, q)]]
    alpha, beta, gamma = (rng.permutation(n) for _ in range(3))
    latin = gamma[mul[np.ix_(alpha, beta)]]
    # swap x and y in a 2 x 2 subsquare [[x, y], [y, x]] when the rows r1, r2
    # have one: the square stays Latin but is, in general, no group's isotope
    where = np.argsort(latin, axis=1)       # where[r, x] = column of x in row r
    r1, r2 = rng.choice(n, 2, replace=False)
    f = where[r1][latin[r2]]                # row r1 holds latin[r2, c] at f[c]
    cols = np.flatnonzero((f[f] == np.arange(n)) & (f != np.arange(n)))
    if cols.size:
        c1 = rng.choice(cols)
        c2 = f[c1]
        rows = [r1, r2, r1, r2]
        latin[rows, [c1, c2, c2, c1]] = latin[rows, [c2, c1, c1, c2]]
    if kind == "latin":
        return latin
    latin = latin[:, np.argsort(latin[0])]          # row 0 becomes the identity row
    return latin[np.argsort(latin[:, 0])]           # then column 0 too: a loop


@given(st.sampled_from(sorted(_TABLE_BUILDERS)),
       st.sampled_from(["perturbed", "relabelled", "latin", "loop"]),
       st.integers(0, 10**6))
def test_light_test_matches_the_full_associativity_scan(name, kind, seed):
    mul = _distorted_table(_TABLE_BUILDERS[name]().mul, kind, np.random.default_rng(seed))
    assert magma_closure(mul, tw.groups.generating_set(mul)).all()
    violations = tw.validate_table(mul)
    triples = [v[1] for v in violations if v[0] == "associativity"]
    if len(violations) - len(triples) < 10:   # the scan ran
        assert bool(triples) == associativity_fails(mul)
    for a, b, c in triples:
        assert mul[mul[a, b], c] != mul[a, mul[b, c]]


def _s5_extension():
    s5 = tw.symmetric(5)
    sigma = tw.random_coboundary_twist(tw.trivial_cocycle(s5), 4, np.random.default_rng(0))[0]
    return tw.central_extension(sigma).ext, extension_inverse(sigma)


_INVERSE_CASES = {
    **{f"Z{n}": lambda n=n: (tw.cyclic(n), cyclic_inverse(n)) for n in range(1, 13)},
    **{f"D{n}": lambda n=n: (tw.dihedral(n), dihedral_inverse(n)) for n in range(1, 9)},
    **{f"S{n}": lambda n=n: (tw.symmetric(n), symmetric_inverse(n)) for n in range(1, 6)},
    "Z11xZ11": lambda: (tw.cyclic_product([11, 11]),
                        product_inverse(tw.cyclic(11), tw.cyclic(11))),
    "Z2xZ2xZ2": lambda: (tw.cyclic_product([2, 2, 2]),
                         product_inverse(tw.cyclic_product([2, 2]), tw.cyclic(2))),
    "S5 x mu4": _s5_extension,
}


@pytest.mark.parametrize("name", sorted(_INVERSE_CASES))
def test_a_group_reads_its_order_and_inverses_off_its_table(name):
    g, inv = _INVERSE_CASES[name]()
    assert type(g.order) is int and g.order == len(g.mul)
    assert g.inv.dtype == np.int64 and not g.inv.flags.writeable
    assert np.array_equal(g.inv, inv)


def test_a_product_of_loaded_groups_inverts_factor_by_factor(tmp_path):
    tw.save_group(tw.dihedral(3), tmp_path / "a.json")
    tw.save_group(tw.cyclic(4), tmp_path / "b.json")
    g1, g2 = tw.load_group(tmp_path / "a.json"), tw.load_group(tmp_path / "b.json")
    g = tw.direct_product(g1, g2)
    assert g.order == 24 and np.array_equal(g.inv, product_inverse(g1, g2))
