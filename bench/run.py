"""twista benchmark: one seeded, closed-loop, single-client workload per run.

    python3 bench/run.py --workload amenability|classify|certify \
        --seed N --seconds S --trace 0|1

Runs from the root of a checkout; imports the package from ``src/``.  The
client sends each request only after the previous one returned, and runs
whole cycles of the workload until the program has been busy for
``--seconds`` (and at least MIN_CYCLES cycles).  Every output is checked;
the last line of stdout is a JSON object with the metrics, and the exit code
is non-zero when any check fails.

``setup_s`` is the time from the start of this script to its first timed
request: import, seeded input generation and one warm-up request.  It is
measured in this process and in SETUP_PROCESSES - 1 fresh ones started with
``--setup-only`` after the timed phase, and the median is reported, so
one-off costs (imports, first-call caches) are in every sample.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
package's modules (bench/spans.py), reports per-layer metrics, then restores
the modules, re-runs the first cycle untraced and requires every result to
be bit-identical to the traced one.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 5
MIN_CYCLES = 3               # the tail rank needs three cycles, see workloads.py
WALL_CAP_S = 120.0           # stop starting requests after this, to exit in time


def _import_package():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import twista  # noqa: F401
    except ImportError as exc:
        print(f"cannot import twista from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)


def _blas_threads() -> dict:
    """OpenBLAS thread counts of the numpy and scipy builds, as loaded."""
    import numpy
    import scipy
    out = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    getattr(lib, fn).restype = ctypes.c_int
                    out[mod.__name__] = getattr(lib, fn)()
                    break
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": _blas_threads(),
            "TWISTA_THREADS": os.environ.get("TWISTA_THREADS", "unset"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(), "seed": seed}


def drive(workload, seconds, recorder=None):
    """Closed loop over whole cycles; returns the per-request records."""
    from spans import REQUEST
    records = []
    busy = 0.0
    wall0 = time.perf_counter()
    c = 0
    while busy < seconds or c < MIN_CYCLES:
        for request in workload.cycle(c):
            if time.perf_counter() - wall0 > WALL_CAP_S:
                return records, busy
            span = recorder.open(REQUEST, kind=request.kind) if recorder else None
            t0 = time.perf_counter()
            result, error = _call(request)
            latency = time.perf_counter() - t0
            if span is not None:
                recorder.close(span, error=error and "exception")
            busy += latency
            records.append(_inspect(request, result, error, latency, c, recorder))
            del result                   # free this output before the next request runs
        c += 1
    return records, busy


def _call(request):
    try:
        return request.call(), None
    except Exception:                    # a failed request is counted, not fatal
        return None, traceback.format_exc(limit=3)


def _inspect(request, result, error, latency, cycle, recorder):
    record = {"kind": request.kind, "latency": latency, "cycle": cycle,
              "cli": request.cli, "t2": request.t2, "digest": None, "problems": []}
    if error is not None:
        record["problems"] = [error.strip().splitlines()[-1]]
        return record
    try:
        with recorder.pause() if recorder is not None else contextlib.nullcontext():
            record["digest"], record["problems"] = request.inspect(result)
    except Exception:
        record["problems"] = ["check raised: " + traceback.format_exc(limit=2).strip()]
    return record


def end_to_end(records, busy, setup_s) -> dict:
    import stats
    lat = [r["latency"] * 1e3 for r in records]
    tail_ms, tail_pct, count = stats.tail(lat)
    return {"setup_s": (setup_s, "s"),
            "ops_per_s": (len(records) / busy, "1/s"),
            "op_p50_ms": (statistics.median(lat), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            }, {"tail_percentile": tail_pct, "requests": count}


def workload_only(records) -> dict:
    """Latency medians that exist on one workload only, printed, not gated."""
    out = {"fail_frac": (sum(1 for r in records if r["problems"]) / len(records), "1")}
    for key, name in (("cli", "cli_p50_ms"), ("t2", "t2_p50_ms")):
        lat = [r["latency"] * 1e3 for r in records if r[key]]
        if lat:
            out[name] = (statistics.median(lat), "ms")
    return out


def per_layer(spans) -> dict:
    from spans import LAYERS, Summary
    s = Summary(spans)
    named = s.named
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    solves = named("sdp.gamma2")
    chol = named("sdp.cholesky")
    put("sdp.gamma2_ms", s.total_ms("sdp.gamma2"), "ms")
    put("sdp.self_ms", s.self_ms("sdp.gamma2"), "ms")
    put("sdp.solves", len(solves), "count")
    put("sdp.iterations", sum(x.attrs.get("iterations", 0) for x in solves), "count")
    put("sdp.schur_assembly_ms", s.total_ms("sdp.schur_assembly"), "ms")
    put("sdp.cholesky_ms", s.total_ms("sdp.cholesky"), "ms")
    put("sdp.cholesky_retries", sum(1 for x in chol if x.error), "count")
    put("sdp.step_search_ms", s.total_ms("sdp.step_search"), "ms")
    put("sdp.dual_bound_ms", s.total_ms("sdp.dual_bound"), "ms")
    put("sdp.ill_conditioned", sum(1 for x in solves if x.attrs.get("ill_conditioned")),
        "count")
    put("sdp.closed_frac",
        sum(1 for x in solves if x.attrs.get("closed")) / len(solves) if solves else 0, "1")
    put("sdp.schur_rows_max", max((x.attrs["m"] for x in chol), default=0), "count")
    put("sdp.cholesky_gflop_computed", sum(x.attrs["m"] ** 3 / 3 for x in chol) / 1e9,
        "GFLOP")
    put("sdp.schur_bytes_computed",
        sum(16 * x.attrs["n"] ** 4 for x in named("sdp.schur_assembly")), "B")

    systems = named("smith.solve_mod")
    put("smith.solve_mod_ms", s.total_ms("smith.solve_mod"), "ms")
    put("smith.echelon_ms", s.total_ms("smith.echelon"), "ms")
    put("smith.snf_ms", s.total_ms("smith.snf"), "ms")
    put("smith.system_rows", max((x.attrs["rows"] for x in systems), default=0), "count")
    put("smith.system_cols", max((x.attrs["cols"] for x in systems), default=0), "count")

    put("cocycles.validate_ms", s.total_ms("cocycles.validate"), "ms")
    put("cocycles.normalize_ms", s.total_ms("cocycles.normalize"), "ms")
    put("cocycles.coboundary_ms", s.total_ms("cocycles.coboundary"), "ms")
    put("cocycles.coboundary_self_ms", s.self_ms("cocycles.coboundary"), "ms")
    put("cocycles.decisions", len(named("cocycles.coboundary")), "count")

    put("groups.build_ms", s.total_ms("groups.build"), "ms")
    put("groups.load_ms", s.total_ms("groups.load"), "ms")

    put("algebra.lift_ms", s.total_ms("algebra.lift"), "ms")
    put("algebra.coefficients_ms", s.total_ms("algebra.coefficients"), "ms")
    put("algebra.center_dimension_ms", s.total_ms("algebra.center_dimension"), "ms")
    put("algebra.comultiply_ms", s.total_ms("algebra.comultiply"), "ms")

    put("norms.fourier_ms", s.total_ms("norms.fourier"), "ms")
    put("norms.symbol_ms", s.total_ms("norms.symbol"), "ms")
    put("norms.cb_self_ms", s.self_ms("norms.cb"), "ms")
    put("norms.certificate_json_ms", s.total_ms("norms.certificate_json"), "ms")

    splits = named("littlewood.t2")
    put("littlewood.t2_ms", s.total_ms("littlewood.t2"), "ms")
    put("littlewood.iterations", sum(x.attrs.get("iterations", 0) for x in splits), "count")
    put("littlewood.budget_exhausted",
        sum(1 for x in splits if x.attrs.get("budget_exhausted")), "count")
    put("littlewood.certified_frac",
        sum(1 for x in splits if x.attrs.get("budget_exhausted") is False) / len(splits)
        if splits else 0, "1")

    commands = named("cli.main")
    put("cli.command_ms", s.total_ms("cli.main"), "ms")
    put("cli.self_ms", s.self_ms("cli.main"), "ms")
    put("cli.bytes_read", sum(x.attrs.get("bytes_read", 0) for x in commands), "B")
    put("cli.bytes_written", sum(x.attrs.get("bytes_written", 0) for x in commands), "B")
    for sub in ("report_amenability", "norm_fourier", "norm_littlewood",
                "norm_multiplier", "cocycle_normalize"):
        put(f"cli.{sub}_ms", 1e3 * sum(x.duration for x in commands
                                       if x.attrs.get("command") == sub), "ms")

    total = s.request_ms()
    for layer in LAYERS:
        put(f"{layer}.self_share", s.layer_self_ms(layer) / total, "1")
    put("bench.unattributed_share", s.self_ms("bench.request") / total, "1")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_package()
    import spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    recorder = spans.Recorder() if args.trace else None
    patch = spans.Patch(recorder).install() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setups = [time.perf_counter() - T_START]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0

        records, busy = drive(workload, args.seconds, recorder)
        problems = [f"{r['kind']} (cycle {r['cycle']}): {p}"
                    for r in records for p in r["problems"]]
        if patch is not None:
            patch.restore()
            problems += _untraced_rerun(workload, records)
        setups += [_fresh_setup(args) for _ in range(SETUP_PROCESSES - 1)]
    finally:
        if patch is not None and patch.installed:
            patch.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()       # only when no other run is using it
        except OSError:
            pass

    setup_s = statistics.median(setups)
    env = environment(args.seed)
    metrics, tail_info = end_to_end(records, busy, setup_s)
    extra = workload_only(records)
    failed = sum(1 for r in records if r["problems"])
    print(f"# workload {args.workload}: {len(records)} requests, "
          f"{records[-1]['cycle'] + 1} cycles, {busy:.1f} s busy, trace={args.trace}")
    print("# env " + json.dumps(env))
    print(f"# setup_s = median of {len(setups)} processes' start-to-first-request "
          f"times {', '.join(f'{t:.3f}' for t in setups)} s (this process first)")
    print(f"# op_tail_ms is the p{tail_info['tail_percentile']:.1f} latency "
          f"of {tail_info['requests']} requests (10 beyond it)")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["latency"] * 1e3)
    for kind, lat in kinds.items():
        print(f"#   {kind:<40} x{len(lat):<4} median {sorted(lat)[len(lat) // 2]:10.2f} ms")
    for p in problems[:20]:
        print(f"# CHECK FAILED: {p}")
    if args.trace:
        print("# e2e_traced " + json.dumps({k: v for k, (v, _) in metrics.items()}))
        reported = per_layer(recorder.spans)
        for name, (value, unit) in reported.items():
            print(f"{name:<32} {value:>14.6g} {unit}")
        sized = {}
        for span in recorder.spans:
            if "n" in span.attrs:
                sized.setdefault((span.name, span.attrs["n"]), []).append(span.duration * 1e3)
        for (name, n), ms in sorted(sized.items()):
            print(f"#   {name} n={n}: x{len(ms)} median {sorted(ms)[len(ms) // 2]:.2f} ms")
    else:
        reported = metrics
    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


def _fresh_setup(args) -> float:
    """Start-to-first-request time of a new process set up like this one."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace),
         "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def _untraced_rerun(workload, records) -> list:
    """Re-run cycle 0 with the modules restored; results must match bit for bit."""
    problems = []
    traced = [r for r in records if r["cycle"] == 0]
    for request, before in zip(workload.cycle(0), traced):
        after = _inspect(request, *_call(request), 0.0, 0, None)
        if after["digest"] != before["digest"]:
            problems.append(f"{request.kind}: traced result differs from untraced")
    return problems


if __name__ == "__main__":
    sys.exit(main())
