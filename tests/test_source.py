"""Source-level guards on the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "twista"


def test_no_assert_statements_in_the_package():
    # runtime checks must raise typed errors: `python -O` strips asserts
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCE.is_dir() and not found, found


def _is_object_dtype(node) -> bool:
    # `dtype=object` keywords and `.astype(object)` calls
    if isinstance(node, ast.keyword):
        return node.arg == "dtype" and isinstance(node.value, ast.Name) \
            and node.value.id == "object"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype" and len(node.args) == 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "object")


def test_no_object_dtype_arrays_in_the_package():
    # the exact layer works in int64 mod m; object arrays of Python integers
    # are a second, unbounded arithmetic
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _is_object_dtype(node)]
    assert SOURCE.is_dir() and not found, found


def _unused_imports(tree):
    # names bound by module-level imports that no Name in the module reads;
    # an Attribute chain such as np.linalg reads its root Name
    bound = {}
    for top in tree.body:
        if isinstance(top, ast.ImportFrom) and top.module == "__future__":
            continue
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            for alias in top.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, top.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_module_level_import_is_used():
    # __init__ imports to re-export; everywhere else an import nothing reads
    # is left over from removed code
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert SOURCE.is_dir() and not found, found


def test_no_raise_assertion_error_in_the_package():
    # a branch argparse cannot reach is no branch: dispatch falls through to
    # its last case instead of guarding an impossible one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Raise) and node.exc is not None
             and getattr(getattr(node.exc, "func", node.exc), "id", None) == "AssertionError"]
    assert SOURCE.is_dir() and not found, found


_LOADERS = {"load_group", "load_cocycle", "load_function"}


def _is_json_loads(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "loads" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json")


def test_files_are_parsed_only_by_their_loaders():
    # every file reaches the package through one loader, so a command that
    # checks a file gives the verdict that loading it anywhere else gives
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for top in ast.parse(path.read_text(), str(path)).body
             if not (isinstance(top, ast.FunctionDef) and top.name in _LOADERS)
             for node in ast.walk(top) if _is_json_loads(node)]
    assert SOURCE.is_dir() and not found, found


def _is_np(node, attr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def test_roots_of_unity_come_from_one_table():
    # every phase exp(2 pi i k / m) is read from cocycles.roots_of_unity, so
    # a cocycle value and a witness value of one exponent are the same float
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for top in tree.body
                   if path.name == "cocycles.py" and isinstance(top, ast.FunctionDef)
                   and top.name == "roots_of_unity" for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _is_np(node.func, "exp")
                  and any(_is_np(sub, "pi") for arg in node.args for sub in ast.walk(arg))
                  and id(node) not in allowed]
    assert SOURCE.is_dir() and not found, found


def test_one_module_level_getattr():
    # the lazy sdp names are resolved by norms.__getattr__, which the
    # package reuses; a second copy could drift from it
    found = sorted(path.name for path in SOURCE.glob("*.py")
                   for top in ast.parse(path.read_text(), str(path)).body
                   if (isinstance(top, ast.FunctionDef) and top.name == "__getattr__")
                   or (isinstance(top, ast.Assign)
                       and any(getattr(t, "id", None) == "__getattr__" for t in top.targets)))
    assert found == ["norms.py"], found


def _numpy_blas_use(node) -> bool:
    # `a @ b`, `a @= b`, `np.matmul` and any `np.linalg.<fn>` but the exception
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    if isinstance(owner, ast.Name) and owner.id == "np":
        return node.attr == "matmul"
    return (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
            and isinstance(owner.value, ast.Name) and owner.value.id == "np"
            and node.attr != "LinAlgError")


def test_no_unbuffered_ufunc_scatter_in_the_package():
    # every scatter in the package writes distinct indices, so plain fancy
    # assignment does the job; through np.add.at, lift_matrix took 0.31 ms
    # per call on S5 against 0.075 ms by assignment (best of 50, 2 cores)
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "at"]
    assert SOURCE.is_dir() and not found, found


def test_sdp_uses_one_blas():
    # numpy and scipy link separate OpenBLAS builds, each with a thread pool
    # that spins after a call; the IPM stays in scipy's, which factors the
    # Schur complement.  The one exception is gram_congruence's batched
    # n x 4 by 4 x n product, which never wakes numpy's pool (next test)
    path = SOURCE / "sdp.py"
    tree = ast.parse(path.read_text(), str(path))
    kernel, = [node for top in tree.body
               if isinstance(top, ast.ClassDef) and top.name == "_Hermitian"
               for node in top.body
               if isinstance(node, ast.FunctionDef) and node.name == "gram_congruence"]
    allowed = [node for node in ast.walk(kernel) if _numpy_blas_use(node)]
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if _numpy_blas_use(node) and not any(node is a for a in allowed)]
    assert len(allowed) == 1 and _is_np(allowed[0], "matmul"), allowed
    assert not found, found


_NUMPY_POOL = """
import os
import time
def tasks():
    return set(os.listdir("/proc/self/task"))
before = tasks()
import numpy as np
pool = tasks() - before
from twista import sdp
def ticks():
    total = 0
    for tid in pool:
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        total += int(fields[11]) + int(fields[12])      # utime, stime
    return total
rng = np.random.default_rng(32)
F = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
time.sleep(0.5)         # the pool spins for about 0.1 s after it starts
start = ticks()
sdp.gamma2(F)
time.sleep(0.5)         # and after each threaded call
print(len(pool), ticks() - start)
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads Linux /proc")
def test_gamma2_leaves_numpys_blas_pool_idle():
    # the threads import numpy starts are its OpenBLAS pool; one 600 x 600
    # numpy matmul in the solve costs them about 10 clock ticks
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run([sys.executable, "-c", _NUMPY_POOL],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    threads, ticks = map(int, out.stdout.split())
    if not threads:
        pytest.skip("numpy's OpenBLAS started no worker thread")
    assert ticks < 2, ticks


def _imported_roots(path):
    # top-level names of absolute imports; relative ones stay in the package
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_exact_layer_imports_only_numpy():
    # groups, cocycles and smith stay on numpy int64: a graph or sparse
    # library would add its import time to every start and its memory to RSS
    allowed = {"numpy", "twista"} | set(sys.stdlib_module_names)
    found = [f"{name}.py: {root}"
             for name in ("groups", "cocycles", "smith")
             for root in _imported_roots(SOURCE / f"{name}.py")
             if root not in allowed]
    assert not found, found


def test_only_sdp_imports_scipy():
    # scipy costs most of the package's import time and memory; only the
    # gamma2 solver needs it, and it loads with the first solve
    found = sorted(path.name for path in SOURCE.glob("*.py")
                   if "scipy" in set(_imported_roots(path)))
    assert found == ["sdp.py"], found


def test_sdp_calls_scipy_only_through_lapack_and_blas():
    # scipy.linalg's validated wrappers scan every argument for finiteness,
    # and three of those scans per IPM iteration read the m x m Schur matrix
    path = SOURCE / "sdp.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
    found = {name for name in found if name.partition(".")[0] == "scipy"}
    assert found == {"scipy.linalg.lapack", "scipy.linalg.blas"}, found


def test_gamma2_stops_a_failed_step_in_one_place():
    # every numerical failure of a step raises LinAlgError and ends the solve
    # at one handler; a second stop path would need a second `ill = True`
    path = SOURCE / "sdp.py"
    sets = sorted((node.lineno, type(node).__name__, ast.unparse(node.value))
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, (ast.Assign, ast.AugAssign))
                  for target in getattr(node, "targets", [getattr(node, "target", None)])
                  if isinstance(target, ast.Name) and target.id == "ill")
    assert [kind for _, *kind in sets] == [["Assign", "False"], ["Assign", "True"]], sets


def _owners_of(found):
    """module.function of every package node for which found(node) holds."""
    owners = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        # walk visits outer functions first, so the innermost one is kept
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        owners |= {f"{path.stem}.{owner.get(id(node), '<module>')}"
                   for node in ast.walk(tree) if found(node)}
    return owners


def test_rounding_shrink_is_applied_only_by_the_two_witness_rules():
    # each lower bound has one rounding proof: the T2 witness of a multiplier
    # and the gamma2 trace bound; another caller would be a second witness rule
    found = _owners_of(lambda node: isinstance(node, ast.Call) and "rounding_shrink" in
                       (getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert found == {"littlewood._dual_feasible", "sdp._dual_trace_bound"}, found


def _width_against_tolerance(node) -> bool:
    # `a - b` or a `gap` compared with an operand that reads `tol`
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    widths = [i for i, side in enumerate(sides)
              if (isinstance(side, ast.BinOp) and isinstance(side.op, ast.Sub))
              or getattr(side, "id", getattr(side, "attr", None)) == "gap"]
    tols = [i for i, side in enumerate(sides)
            if any(getattr(sub, "id", getattr(sub, "attr", None)) == "tol"
                   for sub in ast.walk(side))]
    return any(i != j for i in widths for j in tols)


def test_one_closure_rule_judges_both_solvers():
    # littlewood.closes is the one place a bracket width meets a tolerance;
    # gamma2 and t2_split call it at their in-loop stop and at their verdict
    found = _owners_of(_width_against_tolerance)
    assert found == {"littlewood.closes"}, found
    for module, name in (("sdp", "gamma2"), ("littlewood", "t2_split")):
        path = SOURCE / f"{module}.py"
        fn, = [top for top in ast.parse(path.read_text(), str(path)).body
               if isinstance(top, ast.FunctionDef) and top.name == name]
        in_loop = {id(node) for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))
                   for node in ast.walk(loop)}
        calls = [id(node) in in_loop for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "closes"]
        assert sorted(calls) == [False, True], (name, calls)


def _encodes_complex_pairs(node) -> bool:
    # `<array>.view(float).tolist()`, or a comprehension over float(z.real)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "tolist":
        inner = node.func.value
        return (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "view")
    return isinstance(node, (ast.ListComp, ast.GeneratorExp)) and any(
        isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "float"
        and len(sub.args) == 1 and isinstance(sub.args[0], ast.Attribute)
        and sub.args[0].attr == "real" for sub in ast.walk(node.elt))


def test_complex_arrays_are_encoded_only_by_complex_entries():
    # every [re, im] pair the package writes comes from one encoder, so a
    # function file and a certificate write a value with the same bytes
    inside, found = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for top in tree.body
                   if path.name == "algebra.py" and isinstance(top, ast.FunctionDef)
                   and top.name == "complex_entries" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if _encodes_complex_pairs(node):
                (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1 and not found, (inside, found)


def test_sdp_asks_lapack_for_no_eigenvectors_and_falls_back_to_gesvd_once():
    # the certificate is the carried Cholesky factor, so no eigenvectors are
    # needed, and _svd alone owns the gesdd -> gesvd fallback
    path = SOURCE / "sdp.py"
    tree = ast.parse(path.read_text(), str(path))
    eig = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
           and isinstance(node.func, ast.Name) and node.func.id.startswith("zheevd")]
    flags = [ast.unparse(kw.value) for node in eig for kw in node.keywords
             if kw.arg == "compute_v"]
    assert eig and flags == ["0"] * len(eig), flags
    svd, = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_svd"]
    inside = {id(node) for node in ast.walk(svd)}
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id.startswith("zgesvd")
             and id(node) not in inside]
    assert not found, found


def test_the_schur_matrix_is_factored_in_place(monkeypatch):
    # the Schur complement on the Y block is n^2 x n^2; potrf gets its
    # Fortran-ordered view S.T and leaves the factor there: no copy on the
    # way in or out
    import numpy as np
    from twista import sdp
    factor, seen = sdp.cholesky, []

    def spy(a, **kwargs):
        L = factor(a, **kwargs)
        seen.append((a, L))
        return L

    monkeypatch.setattr(sdp, "cholesky", spy)
    n = 5
    m = n * n
    rng = np.random.default_rng(0)
    sol = sdp.gamma2(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert len(seen) == sol.iterations - 1
    for a, L in seen:
        M = a.base
        assert a.shape == (m, m) and a.flags.f_contiguous and not a.flags.owndata
        assert M.shape == (m, m) and M.flags.c_contiguous
        assert np.shares_memory(L, M)


_EXACT_COMMANDS = """
import sys
import twista
import twista.cli
from twista import cli, norms
work = sys.argv[1]
for argv in (["cocycle", "compare", "--a", f"{work}/c.json", "--b", "trivial"],
             ["norm", "fourier", "--phi", f"{work}/phi.json", "--sigma", f"{work}/c.json"],
             ["norm", "littlewood", "--phi", f"{work}/phi.json"]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
if "scipy" in sys.modules:
    sys.exit("scipy was imported")
if not (twista.gamma2 is norms.gamma2 is twista.sdp.gamma2):
    sys.exit("gamma2 names differ")
"""


def test_exact_commands_run_without_scipy(tmp_path):
    import twista as tw
    g = tw.cyclic_product([4, 4])
    tw.save_cocycle(tw.bilinear_cocycle(g, [[0, 1], [0, 0]]), tmp_path / "c.json")
    tw.save_function(tw.delta(g, 0), tmp_path / "phi.json")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run([sys.executable, "-c", _EXACT_COMMANDS, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr


_ADMM_CALL = """
import sys
import numpy as np
import twista
rng = np.random.default_rng(16)
psi = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
sol = twista.littlewood_norm(psi)
if sol.budget_exhausted or not sol.gap <= 1e-5:
    sys.exit("t2 did not certify")
if "scipy" in sys.modules:
    sys.exit("scipy was imported")
"""


def test_general_matrix_t2_runs_without_scipy():
    # the ADMM is numpy-only, so a process that certifies T2 on a general
    # matrix never pays for scipy's import
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run([sys.executable, "-c", _ADMM_CALL],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
