import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported(prefix):
    """Modules under ``prefix`` that importing the package and its CLI loads,
    in a fresh interpreter."""
    code = ("import sys, pdmprate, pdmprate.cli; print(sorted(m for m in "
            f"sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r})))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_package_imports_no_scipy():
    # scipy is a test dependency only; importing it would add about half a
    # second and 40 MB to every run of the package
    assert _imported("scipy") == "[]"


def test_package_imports_no_numpy_fft():
    # numpy loads np.fft at its first use, in the coefficients; a command
    # that fits nothing does not pay for mapping it
    assert _imported("numpy.fft") == "[]"
