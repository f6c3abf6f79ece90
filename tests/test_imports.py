import functools
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


@functools.lru_cache(maxsize=None)
def _loaded():
    """The modules that importing the package and its CLI loads, in one
    fresh interpreter for every test of this file."""
    code = "import sys, pdmprate, pdmprate.cli; print(*sorted(sys.modules))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return tuple(out.split())


def _imported(*prefixes):
    """Modules under any of ``prefixes`` that importing the package and its
    CLI loads."""
    return [m for m in _loaded() if any(
        m == p or m.startswith(p + ".") for p in prefixes)]


def test_package_imports_no_scipy():
    # scipy is a test dependency only; importing it would add about half a
    # second and 40 MB to every run of the package
    assert _imported("scipy") == []


def test_package_imports_no_numpy_fft():
    # numpy loads np.fft at its first use, in the coefficients; a command
    # that fits nothing does not pay for mapping it
    assert _imported("numpy.fft") == []


def test_package_imports_no_process_pool():
    # only bench on more than one worker runs a process pool, whose 28
    # modules (multiprocessing, socket, subprocess, ...) would add about
    # 1.7 MB of RSS to every command (5.0 against 3.3 MB, README)
    assert _imported("multiprocessing", "concurrent.futures.process") == []
