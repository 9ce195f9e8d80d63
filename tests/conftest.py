"""Shared fixtures: the compiled kernel module, built on demand, and an
empty serial-scan memo for tests that count kernel calls."""

import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from zforce import search

ROOT = Path(__file__).resolve().parents[1]
BUILD_TIMEOUT_S = 300


@pytest.fixture(scope="session")
def kc(tmp_path_factory):
    """The compiled kernel module `zforce._kernels`, built from the current
    `_kernels.c` into a temporary directory (nothing is written into the
    source tree) and loaded from there, so an installed or in-place build
    of older C never stands in for it.  Skips only when no C compiler is
    available; a failed build fails the test.
    """
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build zforce._kernels")
    out = tmp_path_factory.mktemp("kernels-build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
    )
    built = [p for suffix in importlib.machinery.EXTENSION_SUFFIXES
             for p in (out / "zforce").glob("_kernels" + suffix)]
    if proc.returncode != 0 or not built:
        pytest.fail(f"building zforce._kernels failed:\n{proc.stdout}\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("zforce._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cold_memo():
    """Empty `search`'s serial-scan memo before and after the test."""
    search._serial_scan.cache_clear()
    yield
    search._serial_scan.cache_clear()
