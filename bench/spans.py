"""In-memory spans around calls into twista, installed from outside the package.

twista looks its collaborators up as module globals at call time (``cli``
calls ``norms.fourier_stieltjes_norm``, ``norms`` calls its imported name
``gamma2``, ``sdp`` calls ``cholesky``), so rebinding those attributes to a
timing wrapper records every call without editing ``src/``.  A package
function is rebound in every ``twista`` module that holds it under any
name; a foreign object (``sdp.cholesky`` is scipy's) only where it is named.

Spans are kept in a list and summarised when the run ends.  Calls are
single-threaded, as the workloads make them (``TWISTA_THREADS`` unset, one
sample per report), so a span's parent is the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("groups", "cocycles", "smith", "algebra", "norms", "sdp",
          "littlewood", "cli")
PACKAGE_MODULES = ("twista",) + tuple(f"twista.{m}" for m in LAYERS + (
    "positivity", "linalg", "errors"))
REQUEST = "bench.request"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; open() and close() bracket one call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.paused = False
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack
        span = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                    parent=stack[-1].id if stack else None, attrs=attrs)
        self.spans.append(span)
        stack.append(span)
        return span

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def close(self, span: Span, error: Optional[str] = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()


# --- what to wrap -----------------------------------------------------------

def _no_attrs(args, kwargs, result, exc):
    return {}


def _order_attrs(args, kwargs, result, exc):
    return {"n": int(args[0].group.order)}


def _gamma2_attrs(args, kwargs, result, exc):
    sol = getattr(exc, "partial", None) if exc is not None else result
    out = {"n": int(args[0].shape[0]), "closed": exc is None}
    if sol is not None:
        out["iterations"] = int(sol.iterations)
        out["ill_conditioned"] = bool(sol.ill_conditioned)
    return out


def _cholesky_attrs(args, kwargs, result, exc):
    return {"m": int(args[0].shape[0])}


def _congruence_attrs(args, kwargs, result, exc):
    return {"n": int(args[1].shape[0])}        # args[0] is the _Hermitian basis


def _solve_mod_attrs(args, kwargs, result, exc):
    A = args[0]
    return {"rows": int(len(A)), "cols": int(len(A[0])) if len(A) else 0}


def _t2_attrs(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"iterations": int(result.iterations),
            "budget_exhausted": bool(result.budget_exhausted)}


_CLI_INPUTS = ("--phi", "--sigma", "--sigma1", "--sigma2", "--group", "--in",
               "--a", "--b")
_CLI_OUTPUTS = ("-o", "--output", "--csv")


def _file_bytes(argv, flags) -> int:
    total = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in flags and os.path.isfile(value):
            total += os.path.getsize(value)
    return total


def _cli_attrs(args, kwargs, result, exc):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    words = [a for a in argv[:2] if not a.startswith("-")]
    return {"command": "_".join(words), "exit": result,
            "bytes_read": _file_bytes(argv, _CLI_INPUTS),
            "bytes_written": _file_bytes(argv, _CLI_OUTPUTS)}


@dataclass(frozen=True)
class Target:
    module: str           # e.g. "twista.sdp"
    attr: str             # "gamma2", or "Class.method"
    span: str             # "<layer>.<stage>"
    attrs: Callable = _no_attrs


TARGETS = (
    Target("twista.groups", "cyclic", "groups.build"),
    Target("twista.groups", "direct_product", "groups.build"),
    Target("twista.groups", "cyclic_product", "groups.build"),
    Target("twista.groups", "dihedral", "groups.build"),
    Target("twista.groups", "symmetric", "groups.build"),
    Target("twista.groups", "build_group", "groups.build"),
    Target("twista.groups", "load_group", "groups.load"),
    Target("twista.groups", "group_from_json", "groups.load"),
    Target("twista.groups", "validate_table", "groups.validate_table"),
    Target("twista.cocycles", "validate_cocycle", "cocycles.validate"),
    Target("twista.cocycles", "normalize_cocycle", "cocycles.normalize"),
    Target("twista.cocycles", "coboundary_test", "cocycles.coboundary",
           _order_attrs),
    Target("twista.cocycles", "similarity_apply", "cocycles.similarity_apply"),
    Target("twista.cocycles", "bilinear_cocycle", "cocycles.bilinear"),
    Target("twista.cocycles", "random_coboundary_twist", "cocycles.twist"),
    Target("twista.cocycles", "load_cocycle", "cocycles.load"),
    Target("twista.cocycles", "cocycle_from_json", "cocycles.load"),
    Target("twista.smith", "solve_mod", "smith.solve_mod", _solve_mod_attrs),
    Target("twista.smith", "_echelon_carry", "smith.echelon"),
    Target("twista.smith", "smith_normal_form", "smith.snf"),
    Target("twista.algebra", "lift", "algebra.lift"),
    Target("twista.algebra", "lift_matrix", "algebra.lift"),
    Target("twista.algebra", "operator_coefficients", "algebra.coefficients"),
    Target("twista.algebra", "tensor_coefficients", "algebra.coefficients"),
    Target("twista.algebra", "center_dimension", "algebra.center_dimension",
           _order_attrs),
    Target("twista.algebra", "comultiply", "algebra.comultiply",
           _order_attrs),
    Target("twista.algebra", "load_function", "algebra.load"),
    Target("twista.algebra", "function_from_json", "algebra.load"),
    Target("twista.norms", "fourier_stieltjes_norm", "norms.fourier",
           _order_attrs),
    Target("twista.norms", "schur_symbol", "norms.symbol"),
    Target("twista.norms", "cb_multiplier_norm", "norms.cb"),
    Target("twista.norms", "littlewood_norm", "norms.littlewood"),
    Target("twista.norms", "littlewood_T2_norm", "norms.littlewood"),
    Target("twista.norms", "amenability_report", "norms.report"),
    Target("twista.norms", "certificate_to_json", "norms.certificate_json"),
    Target("twista.sdp", "gamma2", "sdp.gamma2", _gamma2_attrs),
    Target("twista.sdp", "cholesky", "sdp.cholesky", _cholesky_attrs),
    Target("twista.sdp", "_Hermitian.gram_congruence", "sdp.schur_assembly",
           _congruence_attrs),
    Target("twista.sdp", "_psd_max_step", "sdp.step_search"),
    Target("twista.sdp", "_dual_trace_bound", "sdp.dual_bound"),
    Target("twista.littlewood", "t2_split", "littlewood.t2", _t2_attrs),
    Target("twista.cli", "main", "cli.main", _cli_attrs),
)


def _wrap(recorder: Recorder, target: Target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.paused:
            return fn(*args, **kwargs)
        span = recorder.open(target.span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.close(span, error=type(exc).__name__)
            span.attrs.update(target.attrs(args, kwargs, None, exc))
            raise
        recorder.close(span)
        span.attrs.update(target.attrs(args, kwargs, result, None))
        return result
    return wrapper


class Patch:
    """Rebinds every target to a recording wrapper; restore() undoes it exactly."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def _bindings(self, target: Target):
        owner = importlib.import_module(target.module)
        *path, key = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[key]
        found = [(owner, key)]
        if getattr(original, "__module__", "").startswith("twista") and not path:
            for name in PACKAGE_MODULES:
                module = sys.modules.get(name) or importlib.import_module(name)
                found += [(module, k) for k, v in vars(module).items()
                          if v is original and (module, k) != (owner, key)]
        return original, found

    def install(self) -> "Patch":
        if self._saved:
            raise RuntimeError("patch already installed")
        for target in TARGETS:
            original, bindings = self._bindings(target)
            wrapper = _wrap(self.recorder, target, original)
            for owner, key in bindings:
                self._saved.append((owner, key, original))
                setattr(owner, key, wrapper)
        return self

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        leftover = [f"{getattr(o, '__name__', o)}.{k}" for o, k, v in self._saved
                    if vars(o)[k] is not v]
        self._saved.clear()
        if leftover:
            raise RuntimeError(f"attributes not restored: {leftover}")

    @property
    def installed(self) -> int:
        return len(self._saved)

    def __enter__(self) -> "Patch":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()


# --- analysis ---------------------------------------------------------------

def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        out[s.id] = s.duration - union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


class Summary:
    """Aggregates over a finished span list."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.self_time = self_times(self.spans)
        # a parent is opened, hence appended, before its children
        self.in_request: dict[int, bool] = {}
        for s in sorted(self.spans, key=lambda s: s.id):
            parent = self.by_id.get(s.parent)
            self.in_request[s.id] = parent is not None and (
                parent.name == REQUEST or self.in_request[parent.id])

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def _ancestors(self, span):
        while span.parent is not None:
            span = self.by_id[span.parent]
            yield span

    def total_ms(self, name) -> float:
        """Summed duration of `name` spans, counting nested repeats once."""
        return 1e3 * sum(s.duration for s in self.named(name)
                         if not any(a.name == name for a in self._ancestors(s)))

    def self_ms(self, name) -> float:
        return 1e3 * sum(self.self_time[s.id] for s in self.named(name))

    def layer_self_ms(self, layer) -> float:
        return 1e3 * sum(self.self_time[s.id] for s in self.spans
                         if s.layer == layer and self.in_request[s.id])

    def request_ms(self) -> float:
        return self.total_ms(REQUEST)
