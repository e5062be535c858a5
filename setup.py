# The benchmark's build step runs `setup.py build_ext --inplace`; there
# is no extension, so this builds nothing.
from setuptools import setup

setup()
