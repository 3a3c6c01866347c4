"""Shared fixtures: the standard group/cocycle suite and a startup identity check."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import settings

import twista as tw

settings.register_profile("ci", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("ci")


GROUP_BUILDERS = {
    "Z4": lambda: tw.cyclic(4),
    "Z2xZ2": lambda: tw.cyclic_product([2, 2]),
    "Z3xZ3": lambda: tw.cyclic_product([3, 3]),
    "D4": lambda: tw.dihedral(4),
    "S3": lambda: tw.symmetric(3),
    "S4": lambda: tw.symmetric(4),
}

BILINEAR_DATA = {
    "Z4": [[1]],
    "Z2xZ2": [[0, 1], [0, 0]],
    "Z3xZ3": [[0, 1], [0, 0]],
}


@pytest.fixture(scope="session")
def suite_groups():
    return {name: build() for name, build in GROUP_BUILDERS.items()}


def cocycles_for(name: str, group: tw.FiniteGroup) -> dict:
    """Per-group cocycle set: trivial, bilinear where applicable, and a
    normalized random coboundary twist (plus the raw twist)."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    out = {"trivial": tw.trivial_cocycle(group)}
    if name in BILINEAR_DATA:
        out["bilinear"] = tw.bilinear_cocycle(group, BILINEAR_DATA[name])
    twist, _ = tw.random_coboundary_twist(tw.trivial_cocycle(group, 4), 4, rng)
    out["twist"] = twist
    out["twist_normalized"] = tw.normalize_cocycle(twist)[0]
    return out


@pytest.fixture(scope="session")
def suite_cocycles(suite_groups):
    return {name: cocycles_for(name, g) for name, g in suite_groups.items()}


@pytest.fixture(scope="session", autouse=True)
def _verify_trace_duality_identity(suite_groups):
    """tau(lam(t) lam(s)) = sigma(t, s) [ts = e]: the identity behind the
    coefficient formula of the trace-duality norm, re-verified at startup."""
    for name in ("Z3xZ3", "S3"):
        g = suite_groups[name]
        if name == "Z3xZ3":
            sigma = tw.bilinear_cocycle(g, [[0, 1], [0, 0]])
        else:
            rng = np.random.default_rng(7)
            sigma, _ = tw.random_coboundary_twist(tw.trivial_cocycle(g, 4), 4, rng)
        lam = tw.regular_rep_tensor(sigma)
        n = g.order
        for t in range(n):
            for s in range(n):
                val = np.trace(lam[t] @ lam[s]) / n
                expect = sigma.values[t, s] if g.mul[t, s] == 0 else 0.0
                assert abs(val - expect) < 1e-12


@pytest.fixture()
def refuse_sdp_call(monkeypatch):
    """refuse(name, at) makes call number at of sdp.<name> raise LinAlgError, as
    a LAPACK refusal does, and returns the list the calls are counted in."""
    from twista import sdp

    def refuse(name, at):
        real, calls = getattr(sdp, name), []

        def refusing(*args, **kwargs):
            calls.append(args[0].shape)
            if len(calls) == at:
                raise np.linalg.LinAlgError("forced")
            return real(*args, **kwargs)
        monkeypatch.setattr(sdp, name, refusing)
        return calls
    return refuse


@pytest.fixture()
def inflate_dual_bound(monkeypatch):
    """inflate(at) makes call number at of sdp._dual_trace_bound return ten
    times its bound, above the value, as a faulty bound would."""
    from twista import sdp

    def inflate(at):
        real, calls = sdp._dual_trace_bound, []

        def inflated(F, Zp):
            calls.append(F.shape)
            bound, u, v = real(F, Zp)
            return (10 * bound if len(calls) == at else bound), u, v
        monkeypatch.setattr(sdp, "_dual_trace_bound", inflated)
    return inflate
