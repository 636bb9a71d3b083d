"""What a fresh interpreter loads and how BLAS is set up when it imports the package.

Each check runs in a subprocess, because the test process has imported
numpy, scipy and the package already. The last two checks read the
sources: an import no module uses is start-up cost too, and a definition
nothing uses is dead code.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import farmerjoshi

SRC = str(Path(farmerjoshi.__file__).resolve().parent.parent)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# The thread counts of every OpenBLAS library in the process (numpy and
# scipy each bring their own), read through its own getter.
# scipy's OpenBLAS loads only at the first GARCH fit, so the probe runs one.
OPENBLAS_THREADS = textwrap.dedent("""
    import ctypes, json, os
    import farmerjoshi.cli
    import numpy as np
    from farmerjoshi.stats import garch_persistence
    garch_persistence(np.random.default_rng(0).standard_normal(300))
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[path] = fn()
                break
    print(json.dumps({"threads": threads,
                      "env": {name: os.environ.get(name) for name in %r}}))
""" % (BLAS_VARIABLES,))


def run_fresh(code: str, **env_changes) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(env_changes)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


SCIPY_MODULES = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"


def test_cli_import_leaves_out_unused_scipy_subpackages():
    # importing the CLI, simulating and building a QQ table use no scipy at all
    loaded = run_fresh(textwrap.dedent("""
        import json, sys
        import farmerjoshi.cli
        from farmerjoshi import market, report
        out = market.simulate(market.DEFAULT_PARAMETERS, "adaptive", 300, seed=1)
        list(report.qq_rows([out], out.log_returns))
    """) + SCIPY_MODULES)
    assert loaded == []


def test_cli_import_adds_only_stdlib_and_package_modules():
    # what a fresh import loads beyond numpy's own import is start-up cost
    found = run_fresh(textwrap.dedent("""
        import json, sys
        import numpy
        before = set(sys.modules)
        import farmerjoshi.cli
        print(json.dumps({
            "added": sorted(m for m in set(sys.modules) - before
                            if m.partition(".")[0] not in sys.stdlib_module_names),
            "loaded": [m for m in ("scipy", "numpy.random", "numpy.ma") if m in sys.modules]}))
    """))
    assert "farmerjoshi.cli" in found["added"]
    assert all(m == "farmerjoshi" or m.startswith("farmerjoshi.") for m in found["added"])
    assert found["loaded"] == []


GARCH_FIT = textwrap.dedent("""
    import json, resource, sys
    import numpy as np
    from farmerjoshi import stats
    x = np.random.default_rng(0).standard_normal(300)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats.garch_persistence(x)
""")


def test_garch_fit_loads_only_the_fblas_extension():
    loaded = run_fresh(GARCH_FIT + SCIPY_MODULES)
    assert [m for m in loaded if m.startswith("scipy.linalg")] == ["scipy.linalg._fblas"]
    unused = ("scipy.special", "scipy.optimize", "scipy.signal", "scipy.sparse",
              "scipy.spatial", "scipy.stats")
    assert [m for m in loaded if m.startswith(unused)] == []


def test_a_later_scipy_linalg_import_reuses_the_fblas_extension():
    found = run_fresh(GARCH_FIT + textwrap.dedent("""
        import scipy.linalg.blas
        solved = scipy.linalg.solve(np.diag([2.0, 4.0]), np.ones(2))
        print(json.dumps({"same": scipy.linalg.blas.dtbsv is stats._dtbsv(),
                          "solved": solved.tolist()}))
    """))
    assert found == {"same": True, "solved": [0.5, 0.25]}


def test_first_garch_fit_adds_little_peak_memory():
    # Importing scipy.linalg for dtbsv raised the peak by about 21 MB.
    found = run_fresh(GARCH_FIT + textwrap.dedent("""
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb
        print(json.dumps({"grown_mb": grown_kb / 1024}))
    """))
    assert found["grown_mb"] < 10


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_import_leaves_openblas_at_one_thread():
    found = run_fresh(OPENBLAS_THREADS)
    if not found["threads"]:
        pytest.skip("no OpenBLAS with a thread-count getter is loaded")
    # numpy's library and scipy's, which runs the GARCH fit's dtbsv
    owners = sorted(Path(path).parent.name.split(".")[0] for path in found["threads"])
    assert owners == ["numpy", "scipy"]
    assert set(found["threads"].values()) == {1}
    assert found["env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("name", BLAS_VARIABLES)
def test_a_thread_count_the_user_sets_wins(name):
    found = run_fresh(OPENBLAS_THREADS, **{name: "2"})
    assert found["env"] == {other: ("2" if other == name else None)
                            for other in BLAS_VARIABLES}


def test_every_imported_name_is_used():
    # no linter ships with the project, and a deletion can leave an import behind
    unused = []
    for path in sorted(Path(farmerjoshi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_module_level_definition_is_used():
    # a function or class that neither the package nor the benchmark reads is
    # dead code, however many tests call it; tests keep their oracles themselves
    package = sorted(Path(farmerjoshi.__file__).parent.glob("*.py"))
    bench = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in [*package, *bench]}

    def references(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.ImportFrom):
                yield from (alias.name for alias in sub.names)

    everywhere = Counter(name for tree in trees.values() for name in references(tree))
    unused = []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # references inside the definition itself (recursion) do not count
                outside = everywhere[node.name] - Counter(references(node))[node.name]
                if not outside:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
