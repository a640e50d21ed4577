"""Pytest bootstrap: make ``src/`` importable even without installation,
and the repository root too, for the build-time ``tools`` package.

The package is normally installed with ``pip install -e .`` (or
``python setup.py develop`` on minimal toolchains without ``wheel``);
this fallback keeps the test and benchmark suites runnable either way.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.abspath(__file__))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
