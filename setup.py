"""Package metadata for ``repro`` (the sources live under ``src/``).

This file is the only packaging metadata; there is no pyproject.toml.
``pip install -e .`` needs the ``wheel`` package; without it,
``python setup.py develop`` installs the same editable package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
