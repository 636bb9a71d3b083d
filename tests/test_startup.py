"""What a fresh interpreter loads and how BLAS is set up when it imports the package.

Each check runs in a subprocess, because the test process has imported
numpy, scipy and the package already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import farmerjoshi

SRC = str(Path(farmerjoshi.__file__).resolve().parent.parent)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# The thread counts of every OpenBLAS library in the process (numpy and
# scipy each bring their own), read through its own getter.
OPENBLAS_THREADS = textwrap.dedent("""
    import ctypes, json, os
    import farmerjoshi.cli
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


def test_cli_import_leaves_out_scipy_signal_and_stats():
    loaded = run_fresh("import json, sys, farmerjoshi.cli\n"
                       "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    assert "scipy.optimize" in loaded  # the check sees scipy at all
    assert [m for m in loaded if m.startswith(("scipy.signal", "scipy.stats"))] == []


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_import_leaves_openblas_at_one_thread():
    found = run_fresh(OPENBLAS_THREADS)
    if not found["threads"]:
        pytest.skip("no OpenBLAS with a thread-count getter is loaded")
    assert set(found["threads"].values()) == {1}
    assert found["env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("name", BLAS_VARIABLES)
def test_a_thread_count_the_user_sets_wins(name):
    found = run_fresh(OPENBLAS_THREADS, **{name: "2"})
    assert found["env"] == {other: ("2" if other == name else None)
                            for other in BLAS_VARIABLES}
