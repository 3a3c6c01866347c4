"""Command line interface: group/cocycle files, norm certificates, reports.

Exit codes: 0 ok, 2 validation failure, 3 I/O error, 4 unsupported size,
5 solver failure (partial certificate still written), 6 oracle gap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import algebra, cocycles, groups, norms
from .errors import (CertificateError, CocycleViolation, InvalidTable,
                     NotCyclicProduct, SolverFailure, TwistaError,
                     UnsupportedSize)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_UNSUPPORTED = 4
EXIT_SOLVER = 5
EXIT_GAP = 6


def _write_json(path, doc) -> None:
    if path is None:
        print(json.dumps(doc, indent=1))
    else:
        Path(path).write_text(json.dumps(doc))


def _load_cocycle_arg(arg, group=None) -> cocycles.Cocycle:
    """A cocycle file path, or the literal "trivial"."""
    if arg == "trivial":
        if group is None:
            raise ValueError("--group is required with a trivial cocycle")
        return cocycles.trivial_cocycle(group)
    return cocycles.load_cocycle(arg, group)


# the flag that carries the one parameter of each `group build --kind`
_BUILD_FLAG = {"cyclic": "n", "dihedral": "n", "symmetric": "n",
               "cyclic-product": "orders", "product": "inputs"}


def cmd_group(args) -> int:
    if args.action == "build":
        flag = _BUILD_FLAG[args.kind]
        value = getattr(args, flag)
        if value is None:
            raise ValueError(f"--kind {args.kind} requires --{flag}")
        if flag == "orders":
            params = {"orders": [int(q) for q in value.split(",")]}
        elif flag == "inputs":
            params = dict(zip(("g1", "g2"), map(groups.load_group, value)))
        else:
            params = {"n": value}
        g = groups.build_group(args.kind, **params)
        groups.save_group(g, args.output)
        print(f"wrote group of order {g.order} to {args.output}")
        return EXIT_OK
    if args.action == "validate":
        doc = json.loads(Path(args.input).read_text())
        report = groups.validate_table(np.asarray(doc["mul"]))
        out = {"ok": report.ok,
               "violations": [list(map(str, v)) for v in report.violations]}
        _write_json(args.output, out)
        return EXIT_OK if report.ok else EXIT_VALIDATION
    raise AssertionError(args.action)


def cmd_cocycle(args) -> int:
    group = groups.load_group(args.group) if args.group else None
    if args.action == "validate":
        doc = json.loads(Path(args.input).read_text())
        try:
            c = cocycles.cocycle_from_json(doc, group, base_dir=Path(args.input).parent)
        except CocycleViolation as exc:
            _write_json(args.output, {"ok": False,
                                      "violations": [list(map(str, v))
                                                     for v in exc.violations]})
            return EXIT_VALIDATION
        _write_json(args.output, {"ok": True, "m": c.m})
        return EXIT_OK
    if args.action == "bilinear":
        if group is None:
            raise ValueError("--group is required")
        entries = [int(x) for x in args.A.split(",")]
        k = math.isqrt(len(entries))
        if k * k != len(entries):
            raise ValueError("--A must list k*k row-major integer entries")
        A = np.array(entries).reshape(k, k)
        orders = [int(q) for q in args.orders.split(",")] if args.orders else None
        c = cocycles.bilinear_cocycle(group, A, orders=orders, m=args.m)
        cocycles.save_cocycle(c, args.output)
        print(f"wrote bilinear cocycle with m={c.m} to {args.output}")
        return EXIT_OK
    if args.action == "normalize":
        c = _load_cocycle_arg(args.input, group)
        sigma, xi = cocycles.normalize_cocycle(c)
        doc = cocycles.cocycle_to_json(sigma)
        doc["witness"] = {"m": xi.m, "xi": xi.xi.tolist()}
        _write_json(args.output, doc)
        return EXIT_OK
    if args.action == "compare":
        a = _load_cocycle_arg(args.a, group)
        b = _load_cocycle_arg(args.b, a.group)
        xi = cocycles.coboundary_test(a, b)
        if xi is None:
            print("not similar")
            _write_json(args.output, {"similar": False})
        else:
            print(f"similar via xi={xi.xi.tolist()} over mu_{xi.m}")
            _write_json(args.output, {"similar": True, "m": xi.m,
                                      "xi": xi.xi.tolist()})
        return EXIT_OK
    raise AssertionError(args.action)


def cmd_norm(args) -> int:
    group = groups.load_group(args.group) if args.group else None
    phi = algebra.load_function(args.phi, group)
    group = phi.group
    t0 = time.perf_counter()
    if args.kind == "fourier":
        sigma = _load_cocycle_arg(args.sigma, group)
        cert = norms.fourier_stieltjes_norm(phi, sigma)
    elif args.kind == "multiplier":
        s1 = _load_cocycle_arg(args.sigma1, group)
        s2 = _load_cocycle_arg(args.sigma2, group)
        try:
            cert = norms.cb_multiplier_norm(phi, s1, s2, tol=args.tol)
        except SolverFailure as exc:
            ms = (time.perf_counter() - t0) * 1e3
            part = exc.partial
            doc = {"norm": "cb-multiplier", "status": "solver_failure",
                   "value": getattr(part, "value", None),
                   "gap": getattr(part, "gap", None), "wall_time_ms": ms}
            _write_json(args.output, doc)
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
    elif args.kind == "littlewood":
        cert = norms.littlewood_T2_norm(phi)
    else:
        raise AssertionError(args.kind)
    ms = (time.perf_counter() - t0) * 1e3
    doc = norms.certificate_to_json(cert, wall_time_ms=ms)
    _write_json(args.output, doc)
    print(f"value = {cert.value:.12g}")
    return EXIT_OK


def cmd_report_amenability(args) -> int:
    group = groups.load_group(args.group)
    sigma = _load_cocycle_arg(args.sigma, group)
    report = norms.amenability_report(group, sigma, n_samples=args.samples,
                                      seed=args.seed, tol=args.tol)
    doc = report.to_json()
    doc["threshold"] = args.threshold
    _write_json(args.output, doc)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(norms.CSV_COLUMNS)
            for s in report.samples:
                writer.writerow([getattr(s, col) for col in norms.CSV_COLUMNS])
    failed = [s for s in report.samples if s.status != "ok"]
    if failed:
        print(f"{len(failed)} sample(s) hit solver failures", file=sys.stderr)
        return EXIT_SOLVER
    print(f"max relative gap {report.max_rel_gap:.3e} over {args.samples} samples")
    if report.max_rel_gap > args.threshold or report.inclusion_violations:
        print("oracle gap exceeded", file=sys.stderr)
        return EXIT_GAP
    return EXIT_OK


def cmd_demo_quantum_torus(args) -> int:
    q, p = args.q, args.p
    if q < 2 or not (0 <= p < q):
        raise ValueError("need q >= 2 and 0 <= p < q")
    group = groups.cyclic_product([q, q])
    A = np.array([[0, p], [0, 0]], dtype=np.int64)
    sigma = cocycles.bilinear_cocycle(group, A, orders=[q, q], m=q)
    dim = group.order
    cdim = algebra.center_dimension(sigma)
    d = math.gcd(p, q)
    print(f"rational rotation algebra at angle {p}/{q}: twisted algebra of Z_{q}^2")
    print(f"algebra dimension {dim}, center dimension {cdim}")
    if d == 1:
        if cdim != 1:
            raise CertificateError(f"coprime angle {p}/{q} gave center dimension {cdim}")
        print(f"center is trivial: algebra isomorphic to M_{q} (full {q}x{q} matrices)")
    elif p == 0:
        print(f"trivial angle: commutative algebra of dimension {dim}")
    else:
        print(f"gcd(p, q) = {d} > 1: center dimension {cdim} > 1")

    rng = np.random.default_rng(args.seed)
    vals = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = algebra.GroupFunction(group, vals)
    b = norms.fourier_stieltjes_norm(phi, sigma).value
    cb = norms.cb_multiplier_norm(phi, cocycles.trivial_cocycle(group), sigma).value
    print(f"sample Fourier-Stieltjes norm {b:.8f}")
    print(f"sample cb multiplier norm    {cb:.8f} (relative gap {abs(b-cb)/b:.2e})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twista",
                                 description="Twisted group algebra workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="build or validate group files")
    gsub = g.add_subparsers(dest="action", required=True)
    gb = gsub.add_parser("build")
    gb.add_argument("--kind", required=True,
                    choices=["cyclic", "dihedral", "symmetric",
                             "cyclic-product", "product"])
    gb.add_argument("--n", type=int)
    gb.add_argument("--orders")
    gb.add_argument("--inputs", nargs=2)
    gb.add_argument("-o", "--output", required=True)
    gb.set_defaults(func=cmd_group)
    gv = gsub.add_parser("validate")
    gv.add_argument("--in", dest="input", required=True)
    gv.add_argument("-o", "--output")
    gv.set_defaults(func=cmd_group)

    c = sub.add_parser("cocycle", help="cocycle construction and comparison")
    csub = c.add_subparsers(dest="action", required=True)
    cv = csub.add_parser("validate")
    cv.add_argument("--in", dest="input", required=True)
    cv.add_argument("--group")
    cv.add_argument("-o", "--output")
    cv.set_defaults(func=cmd_cocycle)
    cb = csub.add_parser("bilinear")
    cb.add_argument("--group", required=True)
    cb.add_argument("--A", required=True, help="row-major integer entries")
    cb.add_argument("--orders")
    cb.add_argument("--m", type=int)
    cb.add_argument("-o", "--output", required=True)
    cb.set_defaults(func=cmd_cocycle)
    cn = csub.add_parser("normalize")
    cn.add_argument("--in", dest="input", required=True)
    cn.add_argument("--group")
    cn.add_argument("-o", "--output")
    cn.set_defaults(func=cmd_cocycle)
    cc = csub.add_parser("compare")
    cc.add_argument("--a", required=True)
    cc.add_argument("--b", required=True)
    cc.add_argument("--group")
    cc.add_argument("-o", "--output")
    cc.set_defaults(func=cmd_cocycle)

    n = sub.add_parser("norm", help="norm certificates")
    nsub = n.add_subparsers(dest="kind", required=True)
    nf = nsub.add_parser("fourier")
    nf.add_argument("--phi", required=True)
    nf.add_argument("--sigma", required=True)
    nf.add_argument("--group")
    nf.add_argument("-o", "--output")
    nf.set_defaults(func=cmd_norm)
    nm = nsub.add_parser("multiplier")
    nm.add_argument("--phi", required=True)
    nm.add_argument("--sigma1", required=True)
    nm.add_argument("--sigma2", required=True)
    nm.add_argument("--group")
    nm.add_argument("--tol", type=float, default=1e-6)
    nm.add_argument("-o", "--output")
    nm.set_defaults(func=cmd_norm)
    nl = nsub.add_parser("littlewood")
    nl.add_argument("--phi", required=True)
    nl.add_argument("--group")
    nl.add_argument("-o", "--output")
    nl.set_defaults(func=cmd_norm)

    r = sub.add_parser("report", help="batch cross-validation reports")
    rsub = r.add_subparsers(dest="kind", required=True)
    ra = rsub.add_parser("amenability")
    ra.add_argument("--group", required=True)
    ra.add_argument("--sigma", required=True)
    ra.add_argument("--samples", type=int, default=20)
    ra.add_argument("--seed", type=int, default=0)
    ra.add_argument("--tol", type=float, default=1e-6)
    ra.add_argument("--threshold", type=float, default=1e-4)
    ra.add_argument("-o", "--output")
    ra.add_argument("--csv")
    ra.set_defaults(func=cmd_report_amenability)

    d = sub.add_parser("demo", help="worked examples")
    dsub = d.add_subparsers(dest="kind", required=True)
    dq = dsub.add_parser("quantum-torus")
    dq.add_argument("--q", type=int, required=True)
    dq.add_argument("--p", type=int, required=True)
    dq.add_argument("--seed", type=int, default=0)
    dq.set_defaults(func=cmd_demo_quantum_torus)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except UnsupportedSize as exc:
        print(f"unsupported size: {exc}", file=sys.stderr)
        code = EXIT_UNSUPPORTED
    except (InvalidTable, CocycleViolation, NotCyclicProduct) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except (TwistaError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
