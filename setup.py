"""Build script: compiles the optional C branch and bound.

The package is fully functional without the extension (the pure-Python
search is selected at import time). The extension is ``optional``, so
setuptools turns a failed build (no C compiler, or a compile error) into a
warning and installs the pure-Python search only. The test suite builds the
extension through this same recipe.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("multiekr._clique_c", ["src/multiekr/_clique_c.c"], optional=True)
    ],
)
