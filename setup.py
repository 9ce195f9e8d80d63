"""Build script for the optional compiled forcing kernels.

The extension is optional: without a C compiler the install still succeeds
and the package falls back to the pure-Python kernels at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("zforce._kernels", ["src/zforce/_kernels.c"], optional=True)])
