"""Setuptools shim.

The project metadata lives in ``pyproject.toml``.  This file lets
``python setup.py develop`` install the package in place where pip cannot
build an editable wheel: setuptools older than 70.1 needs the ``wheel``
package for that, and offline environments may lack it.
"""

from setuptools import setup

setup()
