import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from multiekr.corpus import random_family_corpus

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def small_corpus():
    """A quick seeded corpus of random maximal families for unit tests."""
    return random_family_corpus(30, seed=424, n_max=5, k_max=4)


@pytest.fixture(scope="session")
def clique_c(tmp_path_factory):
    """The C branch and bound, built by ``setup.py build_ext`` for this session.

    The same recipe and flags as ``pip install``, with the build output kept
    outside the checkout. Skips only when the compiler that setuptools calls
    (``$CC``, else the interpreter's configured one) is not on PATH; a build
    that writes no extension fails the tests with the build output.
    """
    compiler = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "")
    if not compiler or shutil.which(compiler[0]) is None:
        pytest.skip(f"no C compiler: {' '.join(compiler) or 'none configured'}")
    out = tmp_path_factory.mktemp("clique_c")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    target = out / "lib" / "multiekr" / ("_clique_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert target.exists(), build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("_clique_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
