import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import multiekr
from multiekr.corpus import random_family_corpus


@pytest.fixture(scope="session")
def small_corpus():
    """A quick seeded corpus of random maximal families for unit tests."""
    return random_family_corpus(30, seed=424, n_max=5, k_max=4)


def _c_compiler():
    """The interpreter's configured C compiler, else cc or gcc; None if absent."""
    for argv in (shlex.split(sysconfig.get_config_var("CC") or ""), ["cc"], ["gcc"]):
        if argv and shutil.which(argv[0]):
            return argv
    return None


@pytest.fixture(scope="session")
def clique_c(tmp_path_factory):
    """The C branch and bound, compiled from the source tree for this session.

    Skips only when no C compiler is found; a failing build fails the tests.
    """
    compiler = _c_compiler()
    if compiler is None:
        pytest.skip("no C compiler found")
    source = Path(multiekr.__file__).with_name("_clique_c.c")
    target = tmp_path_factory.mktemp("clique_c") / (
        "_clique_c" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    link = ["-undefined", "dynamic_lookup"] if sys.platform == "darwin" else []
    build = subprocess.run(
        [*compiler, "-O2", "-shared", "-fPIC", *link,
         "-I", sysconfig.get_paths()["include"], str(source), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("_clique_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
