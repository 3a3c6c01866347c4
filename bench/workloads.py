"""The benchmark's three workloads: seeded inputs, requests and output checks.

A workload is a fixed cycle of request slots.  Setup draws VARIANTS inputs
per slot from the seed (writing the JSON files the CLI reads, and keeping
the arrays that library calls take in ``arrays``), and cycle c uses variant
c % VARIANTS, so the program only ever sees generated inputs.
Each request is one call into the program: an in-process ``twista.cli.main``
command or one public library routine.  Modules are referenced as
``module.function`` at call time so that span wrappers, when installed, see
every call.

Request latency varies with input size by 100x inside a workload, and the
tail is read at the 11th-largest latency, so each cycle is weighted so that
the median and the tail rank fall inside one size class, not on a border
between two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from twista import algebra, cli, cocycles, groups, norms
from truth import TRUTH

VARIANTS = 6
REPORT_GAP = 1e-4        # amenability threshold, as in the acceptance criteria
CB_FS_AGREE = 1e-4       # relative agreement of cb and Fourier-Stieltjes values
T2_TOL = 1e-5            # littlewood default tolerance
CB_TOL = 1e-6            # multiplier default tolerance


@dataclass
class Request:
    kind: str                        # the schedule slot, e.g. "report S4"
    call: Callable[[], object]       # the timed program call
    inspect: Callable[[object], tuple]   # untimed: returns (digest, problems)
    cli: bool = False                # one CLI certificate command
    t2: bool = False                 # one general-matrix littlewood_norm call


class Workload:
    """Seeded inputs laid out as a weighted cycle of request slots."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.slots: list[list[Request]] = []      # [slot][variant]
        self.arrays: dict[str, np.ndarray] = {}   # inputs of library calls
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int) -> list[Request]:
        return [variants[c % VARIANTS] for variants in self.slots]

    def warm_up(self) -> None:
        """One cheap request, so lazy imports and BLAS threads are up."""
        request = self.slots[self.warm_slot][0]
        request.inspect(request.call())

    def inputs(self) -> dict[str, bytes]:
        """Every generated input as bytes: the files, then the in-memory arrays."""
        files = {str(p.relative_to(self.dir)): p.read_bytes()
                 for p in sorted(self.dir.rglob("*")) if p.is_file()}
        return files | {k: a.tobytes() for k, a in self.arrays.items()}

    def _keep(self, name: str, array: np.ndarray) -> np.ndarray:
        self.arrays[name] = array
        return array


def _cli(argv) -> Callable[[], int]:
    def call() -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    return call


def _json(path):
    return json.loads(Path(path).read_text())


def _phi(group, rng) -> algebra.GroupFunction:
    n = group.order
    return algebra.GroupFunction(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a))           # no copy when contiguous
    return h.hexdigest()


def _normalisation_problems(tau_expo, tau_m, sigma_expo, sigma_m, xi, group) -> list:
    """sigma(s, s^-1) = 1, and sigma times the coboundary of xi is tau at order 2m."""
    out = []
    n = group.order
    if sigma_m != 2 * tau_m:
        out.append(f"normalised root order {sigma_m} != 2 * {tau_m}")
        return out
    if sigma_expo[np.arange(n), group.inv].any():
        out.append("normalised cocycle has sigma(s, s^-1) != 1")
    x = np.asarray(xi, dtype=np.int64)
    back = (sigma_expo + x[:, None] + x[None, :] - x[group.mul]) % sigma_m
    if not np.array_equal(back, (2 * np.asarray(tau_expo)) % sigma_m):
        out.append("normalisation witness does not map back to the input cocycle")
    return out


# --- amenability --------------------------------------------------------------

class Amenability(Workload):
    """`twista report amenability`, one (group, cocycle) pair per request.

    Request cost is the IPM: ~0.2 s at n = 16, ~1.5 s at n = 24/25 and
    ~4 s at n = 32 on 2 cores.  Each cycle is 1 x n=32, 4 x n=24/25 and
    8 x n=16 single-sample reports, so the median falls among the n = 16
    requests and the tail rank among the n = 24/25 ones.
    """

    name = "amenability"
    SAMPLES = 1
    CYCLE = ("Z4xZ8", "Z4xZ4", "S4", "Z4xZ4", "Z5xZ5", "Z4xZ4", "Z4xZ4",
             "S4", "Z4xZ4", "Z5xZ5", "Z4xZ4", "Z4xZ4", "Z4xZ4")
    warm_slot = 1

    def build(self) -> None:
        rng = self.rng
        pairs = {}
        for name, orders in (("Z4xZ4", [4, 4]), ("Z5xZ5", [5, 5]), ("Z4xZ8", [4, 8])):
            g = groups.cyclic_product(orders)
            pairs[name] = (g, cocycles.bilinear_cocycle(g, [[0, 1], [0, 0]]))
        s4 = groups.symmetric(4)
        twist, _ = cocycles.random_coboundary_twist(cocycles.trivial_cocycle(s4), 4, rng)
        pairs["S4"] = (s4, cocycles.normalize_cocycle(twist)[0])
        files = {}
        for name, (g, sigma) in pairs.items():
            gpath = self.dir / f"{name}.group.json"
            groups.save_group(g, gpath)
            spath = self.dir / f"{name}.sigma.json"
            cocycles.save_cocycle(sigma, spath)
            files[name] = (str(gpath), str(spath))
        for i, name in enumerate(self.CYCLE):
            gpath, spath = files[name]
            variants = []
            for v in range(VARIANTS):
                out = self.dir / f"report{i}.json"
                argv = ["report", "amenability", "--group", gpath, "--sigma", spath,
                        "--samples", str(self.SAMPLES),
                        "--seed", str(int(rng.integers(2 ** 31))),
                        "-o", str(out), "--csv", str(self.dir / f"report{i}.csv")]
                variants.append(Request(f"report {name}", _cli(argv),
                                        self._inspector(out, pairs[name][0].order),
                                        cli=True))
            self.slots.append(variants)

    def _inspector(self, out: Path, order: int):
        samples = self.SAMPLES

        def inspect(code):
            problems = [] if code == 0 else [f"exit code {code}"]
            if code != 0:
                return (code,), problems
            doc = _json(out)
            if doc["group_order"] != order or len(doc["samples"]) != samples:
                problems.append("report covers the wrong group or sample count")
            if not doc["max_rel_gap"] <= REPORT_GAP:
                problems.append(f"max_rel_gap {doc['max_rel_gap']:.3e} > {REPORT_GAP}")
            if doc["inclusion_violations"]:
                problems.append(f"{doc['inclusion_violations']} inclusion violations")
            bad = [s["sample_id"] for s in doc["samples"] if s["status"] != "ok"]
            if bad:
                problems.append(f"samples {bad} not ok")
            digest = (doc["max_rel_gap"],) + tuple(
                (s["b_norm"], s["cb_norm"], s["rel_gap"], s["sdp_gap"], s["status"])
                for s in doc["samples"])
            return digest, problems
        return inspect


# --- classify -----------------------------------------------------------------

class Classify(Workload):
    """Exact cocycle classification through the library, one pair per request.

    A request validates both exponent tables into cocycles, normalises both,
    decides similarity with coboundary_test and takes both center
    dimensions.  S5 and Z11xZ11 cost ~2.5 s each (the Smith/echelon
    reduction of an n^2 x n system); Z8xZ8 ~0.2 s; D20 and Z6xZ6 ~30 ms.
    One cycle holds one S5 and one Z11xZ11 pair, so the tail rank falls
    among the Z8xZ8 pairs, and enough small pairs to put the median there too.
    """

    name = "classify"
    HEAVY = ("S5 twist4 ~ trivial", "Z11xZ11 bilinear / trivial")
    CYCLE = ((HEAVY, 1), (("Z8xZ8 bilinear ~ twist4",), 6), (("D20 trivial ~ twist6",), 3),
             (("Z8xZ8 bilinear ~ twist12",), 6), (("Z6xZ6 bilinear ~ twist12",), 4),
             (("Z8xZ8 bilinear / twist6 of trivial",), 6),
             (("Z6xZ6 bilinear / trivial",), 4))
    warm_slot = 7

    def build(self) -> None:
        bil = [[0, 1], [0, 0]]
        z8 = groups.cyclic_product([8, 8])
        z6 = groups.cyclic_product([6, 6])
        z11 = groups.cyclic_product([11, 11])
        d20 = groups.dihedral(20)
        s5 = groups.symmetric(5)
        b8 = cocycles.bilinear_cocycle(z8, bil)
        b6 = cocycles.bilinear_cocycle(z6, bil)
        b11 = cocycles.bilinear_cocycle(z11, bil)
        triv = cocycles.trivial_cocycle

        def twist(c, m):
            return lambda rng: cocycles.random_coboundary_twist(c, m, rng)[0]

        def fixed(c):
            return lambda rng: c

        makers = {
            "Z8xZ8 bilinear ~ twist4": (fixed(b8), twist(b8, 4)),
            "Z8xZ8 bilinear ~ twist12": (fixed(b8), twist(b8, 12)),
            "Z8xZ8 bilinear / twist6 of trivial": (fixed(b8), twist(triv(z8), 6)),
            "D20 trivial ~ twist6": (fixed(triv(d20)), twist(triv(d20), 6)),
            "Z6xZ6 bilinear ~ twist12": (fixed(b6), twist(b6, 12)),
            "Z6xZ6 bilinear / trivial": (fixed(b6), fixed(triv(z6))),
            "S5 twist4 ~ trivial": (twist(triv(s5), 4), fixed(triv(s5))),
            "Z11xZ11 bilinear / trivial": (fixed(b11), fixed(triv(z11))),
        }
        for kinds, repeats in self.CYCLE:
            for _ in range(repeats):
                variants = []
                for v in range(VARIANTS):
                    kind = kinds[v % len(kinds)]          # heavy pairs alternate
                    make_a, make_b = makers[kind]
                    a, b = make_a(self.rng), make_b(self.rng)
                    tables = [(c.exponents.copy(), c.m) for c in (a, b)]
                    for side, (table, _) in zip("ab", tables):
                        self._keep(f"pair{len(self.slots)}_{v}{side}", table)
                    variants.append(Request(kind, self._caller(a.group, tables),
                                            self._inspector(kind)))
                self.slots.append(variants)

    @staticmethod
    def _caller(group, tables):
        (ta, ma), (tb, mb) = tables

        def call():
            a = cocycles.validate_cocycle(ta, ma, group)
            b = cocycles.validate_cocycle(tb, mb, group)
            na = cocycles.normalize_cocycle(a)
            nb = cocycles.normalize_cocycle(b)
            xi = cocycles.coboundary_test(a, b)
            return (a, b, na, nb, xi, algebra.center_dimension(a),
                    algebra.center_dimension(b))
        return call

    @staticmethod
    def _inspector(kind):
        truth = TRUTH[kind]

        def inspect(out):
            a, b, (na, xa), (nb, xb), xi, da, db = out
            problems = []
            if (xi is not None) != truth.similar:
                problems.append(f"decided similar={xi is not None}, truth {truth.similar}")
            if xi is not None:
                lhs = cocycles.similarity_apply(b, xi)
                if not np.array_equal(lhs.exponents, a.rescaled(lhs.m).exponents):
                    problems.append("witness does not map the second cocycle to the first")
            if (da, db) != truth.center:
                problems.append(f"center dimensions {(da, db)} != {truth.center}")
            for tau, (sigma, x) in ((a, (na, xa)), (b, (nb, xb))):
                problems += _normalisation_problems(tau.exponents, tau.m, sigma.exponents,
                                                    sigma.m, x.xi, tau.group)
            digest = (xi is not None, da, db,
                      None if xi is None else (xi.m, _sha(xi.xi)),
                      _sha(na.exponents, xa.xi, nb.exponents, xb.xi))
            return digest, problems
        return inspect


# --- certify ------------------------------------------------------------------

class Certify(Workload):
    """Certificates through the CLI and the general-matrix library routines.

    CLI `norm fourier`, `norm littlewood` and `cocycle normalize` on JSON
    files at |G| = 64, 120, 121 (every loader re-validates its group and
    cocycle); `norm multiplier` at n <= 9, each followed by `norm fourier`
    on the same files as a cross-check; littlewood_norm on seeded general
    complex matrices (hundreds to thousands of ADMM iterations, against one
    check interval on group symbols); comultiply of a lifted operator.
    """

    name = "certify"
    BIG = ("Z8xZ8", "S5", "Z11xZ11")
    SMALL = ("Z3xZ3", "D4", "S3")
    T2_SIZES = (16, 24, 32)
    warm_slot = 0

    def build(self) -> None:
        rng = self.rng
        bil = [[0, 1], [0, 0]]
        made = {"Z8xZ8": groups.cyclic_product([8, 8]), "S5": groups.symmetric(5),
                "Z11xZ11": groups.cyclic_product([11, 11]),
                "Z3xZ3": groups.cyclic_product([3, 3]), "D4": groups.dihedral(4),
                "S3": groups.symmetric(3), "S4": groups.symmetric(4),
                "Z4xZ8": groups.cyclic_product([4, 8])}
        sigmas = {}
        for name in self.BIG + self.SMALL:
            g = made[name]
            if name.startswith("Z"):
                sigmas[name] = cocycles.bilinear_cocycle(g, bil)
            else:
                sigmas[name] = cocycles.random_coboundary_twist(
                    cocycles.trivial_cocycle(g), 12, rng)[0]
            cocycles.save_cocycle(sigmas[name], self.dir / f"{name}.sigma.json")

        def phi_file(name, v):
            path = self.dir / f"{name}.phi{len(self.slots)}_{v}.json"
            if not path.exists():
                algebra.save_function(_phi(made[name], rng), path)
            return str(path)

        def add(make):
            self.slots.append([make(v) for v in range(VARIANTS)])

        # small cross-checked pairs first: the warm-up slot is cheap
        for name in self.SMALL:
            sig = str(self.dir / f"{name}.sigma.json")
            cb = self.dir / f"{name}.cb.json"
            fs = self.dir / f"{name}.fs.json"
            for _ in range(6):
                phis = [phi_file(name, v) for v in range(VARIANTS)]
                add(lambda v, name=name, sig=sig, cb=cb, phis=phis: Request(
                    f"multiplier {name}",
                    _cli(["norm", "multiplier", "--phi", phis[v], "--sigma1",
                          "trivial", "--sigma2", sig, "-o", str(cb)]),
                    self._multiplier(cb), cli=True))
                add(lambda v, name=name, sig=sig, cb=cb, fs=fs, phis=phis: Request(
                    f"fourier {name}",
                    _cli(["norm", "fourier", "--phi", phis[v], "--sigma", sig,
                          "-o", str(fs)]),
                    self._fourier(fs, cb), cli=True))
        for name in self.BIG:
            sig = str(self.dir / f"{name}.sigma.json")
            g = made[name]
            fs, t2, nm = (self.dir / f"{name}.{k}.json" for k in ("fs", "t2", "norm"))
            add(lambda v, name=name, sig=sig, fs=fs: Request(
                f"fourier {name}",
                _cli(["norm", "fourier", "--phi", phi_file(name, v), "--sigma", sig,
                      "-o", str(fs)]),
                self._fourier(fs, None), cli=True))
            add(lambda v, name=name, t2=t2: Request(
                f"littlewood {name}",
                _cli(["norm", "littlewood", "--phi", phi_file(name, v), "-o", str(t2)]),
                self._littlewood(t2), cli=True))
            add(lambda v, name=name, sig=sig, nm=nm, g=g: Request(
                f"normalize {name}",
                _cli(["cocycle", "normalize", "--in", sig, "-o", str(nm)]),
                self._normalize(nm, sigmas[name], g), cli=True))
        for _ in range(3):
            for n in self.T2_SIZES:
                add(lambda v, n=n: self._t2_request(
                    self._keep(f"t2_{len(self.slots)}_{v}",
                               rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))))
        for name, repeats in (("S4", 1), ("Z4xZ8", 3)):
            g = made[name]
            sigma = cocycles.random_coboundary_twist(cocycles.trivial_cocycle(g), 4, rng)[0]
            self._keep(f"{name}.comultiply_sigma", sigma.exponents)
            for _ in range(repeats):
                add(lambda v, g=g, sigma=sigma: self._comultiply_request(
                    _phi(g, rng), sigma, f"comultiply_{len(self.slots)}_{v}"))

    # requests built from in-memory inputs ---------------------------------------

    @staticmethod
    def _t2_request(psi):
        n = psi.shape[0]

        def inspect(cert):
            problems = []
            if not cert.gap <= T2_TOL:
                problems.append(f"t2 gap {cert.gap:.3e} > {T2_TOL}")
            scale = float(np.abs(psi).max())
            if np.abs(cert.psi1 + cert.psi2 - psi).max() > 1e-12 * scale:
                problems.append("t2 split does not sum to the input")
            split = (np.sqrt((np.abs(cert.psi1) ** 2).sum(axis=1)).max()
                     + np.sqrt((np.abs(cert.psi2) ** 2).sum(axis=0)).max())
            if split > cert.value * (1 + 1e-9):
                problems.append("t2 value below the norm of its own split")
            return (cert.value, cert.dual_bound, cert.gap), problems
        return Request(f"t2 n={n}", lambda: norms.littlewood_norm(psi), inspect, t2=True)

    def _comultiply_request(self, phi, sigma, key):
        self._keep(key, phi.values)
        G = phi.group
        n = G.order

        def call():
            return algebra.comultiply(algebra.lift(phi, sigma))

        def inspect(M):
            # column (u, v) holds phi(s) sigma(s, u) at row (su, sv), for each s,
            # and nothing else; checked on those n^3 entries without an n^4
            # temporary, since checks run in the process whose memory is measured
            s = np.arange(n)[:, None, None]
            u = np.arange(n)[None, :, None]
            v = np.arange(n)[None, None, :]
            rows = (G.mul[s, u] * n + G.mul[s, v]).ravel()
            cols = np.broadcast_to(u * n + v, (n, n, n)).ravel()
            want = np.broadcast_to(phi.values[:, None, None] * sigma.values[:, :, None],
                                   (n, n, n)).ravel()
            got = M[rows, cols]
            err = float(np.abs(got - want).max())
            problems = [] if err <= 1e-12 * float(np.abs(want).max()) else [
                f"comultiply entries off by {err:.2e}"]
            stray = np.count_nonzero(M) - np.count_nonzero(got)
            if stray:
                problems.append(f"comultiply has {stray} nonzero entries off the pattern")
            return (_sha(M),), problems
        return Request(f"comultiply |G|={n}", call, inspect)

    # checks of CLI outputs -------------------------------------------------------

    @staticmethod
    def _multiplier(out):
        def inspect(code):
            if code != 0:
                return (code,), [f"exit code {code}"]
            doc = _json(out)
            problems = []
            if not doc["gap"] <= CB_TOL:
                problems.append(f"cb gap {doc['gap']:.3e} > {CB_TOL}")
            if not doc["dual_bound"] <= doc["value"]:
                problems.append("cb dual bound above the value")
            return (doc["value"], doc["dual_bound"], doc["gap"]), problems
        return inspect

    @staticmethod
    def _fourier(out, cb_out):
        def inspect(code):
            if code != 0:
                return (code,), [f"exit code {code}"]
            doc = _json(out)
            value = doc["value"]
            problems = []
            if not doc["pairing_check"] >= value - 1e-8 * max(1.0, value):
                problems.append("Fourier-Stieltjes pairing below the value")
            if not math.isclose(sum(doc["singular_values"]) / len(doc["singular_values"]),
                                value, rel_tol=1e-12):
                problems.append("value is not the normalised trace norm")
            if cb_out is not None:
                cb = _json(cb_out)["value"]
                if not abs(cb - value) <= CB_FS_AGREE * value:
                    problems.append(f"cb {cb:.10g} and FS {value:.10g} disagree")
            return (value, doc["pairing_check"]), problems
        return inspect

    @staticmethod
    def _littlewood(out):
        def inspect(code):
            if code != 0:
                return (code,), [f"exit code {code}"]
            doc = _json(out)
            problems = []
            if not doc["gap"] <= T2_TOL:
                problems.append(f"t2 gap {doc['gap']:.3e} > {T2_TOL}")
            return (doc["value"], doc["dual_bound"], doc["gap"]), problems
        return inspect

    @staticmethod
    def _normalize(out, tau, group):
        def inspect(code):
            if code != 0:
                return (code,), [f"exit code {code}"]
            doc = _json(out)
            sigma = np.array(doc["exponents"], dtype=np.int64)
            xi = np.array(doc["witness"]["xi"], dtype=np.int64)
            problems = _normalisation_problems(tau.exponents, tau.m, sigma, doc["m"],
                                               xi, group)
            return (doc["m"], _sha(sigma, xi)), problems
        return inspect


WORKLOADS = {w.name: w for w in (Amenability, Classify, Certify)}
