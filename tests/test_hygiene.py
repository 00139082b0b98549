"""Three ``ast`` walks.  Every name a module imports is used, over the package
(except ``__init__``, whose imports are its public re-exports) and the tests.
Every top-level name of the package, public or private, is read by the
package or by the benchmark, not only by the tests: code that only tests
read is a second path to keep in step.  The scalar reference engine imports
nothing of the batch code it checks.  Every module-level numpy array of the
package is read-only.  Every name the benchmark's tracer wraps exists.  A process
that starts no pool imports no process-pool machinery."""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "faraday_qkd").glob("*.py"))
FILES = [p for p in PACKAGE if p.name != "__init__.py"]
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# public names only the tests read, kept on purpose: trace_distance for the
# oracles of what Eve can learn, make_equator_state as the one-qubit input of
# the state-engine and attack tests, and simulated_detection_probability, the
# closed form the unbalanced attack's Monte Carlo detection rate is checked
# against
TEST_FACING = {("qstate", "trace_distance"), ("qstate", "make_equator_state"),
               ("analysis", "simulated_detection_probability")}


def names_read(tree, strings=False) -> set:
    """Names a module loads, attributes it reads and names it imports; with
    ``strings``, its string constants too (the benchmark wraps some package
    functions by attribute name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from targets


def unread_names(private):
    """(module, name) of the package's top-level names, private or public,
    that neither the package nor the benchmark reads.  ``__init__``'s imports
    are re-exports, not reads."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    read = set().union(*(names_read(ast.parse(p.read_text(encoding="utf-8")), strings=True)
                         for p in (ROOT / "perfbench").glob("*.py")))
    read |= set().union(*(names_read(tree) for module, tree in trees.items()
                          if module != "__init__"))
    return {(module, name) for module, tree in trees.items() if not module.startswith("__")
            for name in top_level_names(tree)
            if name.startswith("_") == private and name not in read}


def test_public_names_have_a_reader():
    assert sorted(unread_names(private=False) - TEST_FACING) == []


def test_private_names_have_a_reader():
    assert sorted(unread_names(private=True)) == []


def imported_modules(tree):
    """Module names a tree imports; relative ones keep their leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield "." * node.level + node.module
        elif isinstance(node, ast.ImportFrom):
            yield from ("." * node.level + alias.name for alias in node.names)


# qstate and protocol are the independent reference the batch kernels are
# checked against: the standard library and numpy only, and protocol qstate
@pytest.mark.parametrize("module, package_imports", [("qstate", set()),
                                                     ("protocol", {".qstate"})])
def test_reference_engine_imports(module, package_imports):
    tree = ast.parse((ROOT / "src" / "faraday_qkd" / f"{module}.py").read_text(encoding="utf-8"))
    outside = [name for name in imported_modules(tree) if name not in package_imports
               and name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert outside == []


def arrays_in(value, name):
    """(name, array) of each numpy array in ``value``, looking inside tuples,
    lists and dict values."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from arrays_in(item, f"{name}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from arrays_in(item, f"{name}[{key!r}]")


# module-level arrays are shared by every call in the process: an in-place
# operation on one, such as a Philox operand, would change every later result
@pytest.mark.parametrize("path", [p for p in PACKAGE if p.stem != "__main__"],
                         ids=lambda p: p.name)
def test_module_arrays_are_read_only(path):
    module = importlib.import_module(f"faraday_qkd.{path.stem}")
    arrays = [(name, arr) for key, value in vars(module).items()
              for name, arr in arrays_in(value, key)]
    assert [name for name, arr in arrays if arr.flags.writeable] == []


# perfbench/spans.py wraps package functions by attribute name; a name that a
# refactor drops would otherwise fail only deep inside a traced benchmark run
def test_benchmark_tracer_installs():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = [importlib.import_module(f"faraday_qkd.{name}") for name in
               ("harness", "batch", "adversary", "protocol", "qstate", "analysis")]
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    try:
        spans.install(tracer, *modules)
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in modules] == before


# only a run with more than one worker starts a process pool, so only it
# pays for importing multiprocessing and concurrent.futures.process
def test_one_worker_run_imports_no_process_pool(tmp_path):
    code = """if True:
        import json, sys
        pool = ("multiprocessing", "concurrent.futures.process")
        import faraday_qkd
        loaded = [m for m in pool if m in sys.modules]
        from faraday_qkd import harness
        rc = harness.main(["--workers", "1", "simulate", "--rounds", "20000", "--seed", "3",
                           "--test-bits", "50", "--out", sys.argv[1]])
        print(json.dumps([loaded, [m for m in pool if m in sys.modules], rc]))
    """
    env = {k: v for k, v in os.environ.items() if k != "FARADAY_QKD_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], [], 0]
