"""Tests of the benchmark's own code: tail rule, self time, seeds, wrappers."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import twista  # noqa: E402
from twista import cocycles, groups, norms, sdp  # noqa: E402

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_tail_leaves_exactly_ten_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0, 100)
    # ties count as beyond: sorted [0, 1, 2, 3, 4, 5, 5, 5, 5, 6, 7, 100]
    value, pct, count = stats.tail([5.0] * 3 + list(range(8)) + [100.0])
    assert (value, count) == (1, 12) and pct == pytest.approx(100 * 2 / 12)


def test_tail_needs_more_than_ten_values():
    assert stats.tail(range(11)) == (0, 100 / 11, 11)
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_tail_is_order_independent():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=57).tolist()
    shuffled = list(rng.permutation(values))
    assert stats.tail(values) == stats.tail(shuffled)
    assert sum(1 for v in values if v > stats.tail(values)[0]) == 10


def _span(i, start, end, parent=None, name="x.y"):
    return spans.Span(id=i, name=name, start=start, end=end, parent=parent)


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(1, 4), (3, 6), (8, 10)]) == 7
    assert spans.union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_union_of_overlapping_children():
    parent = _span(0, 0.0, 10.0)
    kids = [_span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0), _span(3, 8.0, 12.0, 0)]
    grandchild = _span(4, 1.5, 2.0, 1)
    st = spans.self_times([parent, *kids, grandchild])
    assert st[0] == pytest.approx(10 - (5 + 2))      # [1, 6] and [8, 10] covered
    assert st[1] == pytest.approx(3 - 0.5)
    assert st[3] == pytest.approx(4)                   # child time is not clipped
    assert st[4] == pytest.approx(0.5)


def test_total_counts_nested_repeats_once():
    outer = _span(0, 0.0, 4.0, name="groups.build")
    inner = _span(1, 1.0, 2.0, 0, name="groups.build")
    other = _span(2, 5.0, 6.0, name="groups.build")
    s = spans.Summary([outer, inner, other])
    assert s.total_ms("groups.build") == pytest.approx(5000.0)
    assert s.self_ms("groups.build") == pytest.approx(5000.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]

    def inputs(seed, sub):
        return make(seed, tmp_path / sub).inputs()

    first, again, other = inputs(7, "a"), inputs(7, "b"), inputs(8, "c")
    assert first and first == again
    assert first.keys() == other.keys() and first != other


def _bindings():
    return {"sdp.gamma2": sdp.gamma2, "norms.gamma2": norms.gamma2,
            "twista.gamma2": twista.gamma2, "sdp.cholesky": sdp.cholesky,
            "gram": vars(sdp._Hermitian)["gram_congruence"],
            "cocycles.solve_mod": cocycles.solve_mod,
            "groups.cyclic_product": groups.cyclic_product}


def test_patch_wraps_every_binding_and_restores_them():
    before = _bindings()
    recorder = spans.Recorder()
    patch = spans.Patch(recorder).install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["sdp.gamma2"] is during["norms.gamma2"] is during["twista.gamma2"]
    finally:
        patch.restore()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert patch.installed == 0


def test_wrapped_calls_record_spans_and_change_no_result():
    g = groups.cyclic_product([3, 3])
    sigma = cocycles.bilinear_cocycle(g, [[0, 1], [0, 0]])
    rng = np.random.default_rng(3)
    phi = twista.GroupFunction(g, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    plain = norms.cb_multiplier_norm(phi, cocycles.trivial_cocycle(g), sigma)

    recorder = spans.Recorder()
    with spans.Patch(recorder):
        traced = norms.cb_multiplier_norm(phi, cocycles.trivial_cocycle(g), sigma)
        with pytest.raises(twista.TwistaError):
            cocycles.coboundary_test(sigma, cocycles.trivial_cocycle(groups.cyclic(9)))
    assert (traced.value, traced.gap, traced.dual_bound) == (plain.value, plain.gap,
                                                            plain.dual_bound)
    assert np.array_equal(traced.xi, plain.xi)

    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    cb, = by_name["norms.cb"]
    solve, = by_name["sdp.gamma2"]
    assert solve.parent == cb.id
    assert solve.attrs["n"] == 9 and solve.attrs["closed"]
    assert solve.attrs["iterations"] == plain.sdp.iterations
    assert all(c.parent == solve.id for c in by_name["sdp.cholesky"])
    assert len(by_name["sdp.schur_assembly"]) == 3 * (solve.attrs["iterations"] - 1)
    failed, = by_name["cocycles.coboundary"]
    assert failed.error == "GroupMismatch" and failed.end >= failed.start
    assert all(s.end >= s.start for s in recorder.spans)


def test_paused_recorder_records_nothing():
    recorder = spans.Recorder()
    with spans.Patch(recorder):
        with recorder.pause():
            groups.cyclic_product([2, 2])
        assert recorder.spans == []
        groups.cyclic_product([2, 2])
    assert {s.name for s in recorder.spans} == {"groups.build"}
