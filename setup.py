"""Build hook for the optional compiled reduction kernel.

The kernel is built from ``src/pcfkit/_kernel.pyx`` only when Cython is
installed, and a missing C compiler turns into a warning. Either way the
install succeeds, and without the kernel the package runs the
pure-Python engine. For an in-place build next to the sources:
``python setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

ext_modules = []
if cythonize is not None:
    ext_modules = cythonize(
        [Extension("pcfkit._kernel", ["src/pcfkit/_kernel.pyx"])],
        language_level=3,
    )
    for ext in ext_modules:
        # build_ext warns instead of failing when no compiler exists
        ext.optional = True

setup(ext_modules=ext_modules)
