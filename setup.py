"""Build script: compiles the optional C branch and bound.

The package is fully functional without the extension (the pure-Python
search is selected at import time), so a failure to build it — no C
compiler — downgrades to a warning instead of breaking the install.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing or broken
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"WARNING: building the compiled branch and bound failed ({exc}); "
            "installing with the pure-Python search only.",
            file=sys.stderr,
        )


setup(
    ext_modules=[Extension("multiekr._clique_c", ["src/multiekr/_clique_c.c"])],
    cmdclass={"build_ext": optional_build_ext},
)
