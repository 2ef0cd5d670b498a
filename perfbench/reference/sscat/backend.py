"""Kernel selection: compiled extension when available, pure Python otherwise.

Set the environment variable ``SSCAT_PURE_PYTHON`` (to any non-empty
value) before import to force the pure-Python kernel even when the
compiled one is installed.
"""

from __future__ import annotations

import os

from . import _pypaths

if os.environ.get("SSCAT_PURE_PYTHON"):
    _impl = _pypaths
    ACTIVE_BACKEND = "python"
else:
    try:
        from . import _fastpaths as _impl  # type: ignore[no-redef]

        ACTIVE_BACKEND = "cython"
    except ImportError:
        _impl = _pypaths
        ACTIVE_BACKEND = "python"

stat_histograms = _impl.stat_histograms


def available_backends() -> list[str]:
    """Names of the kernels importable in this installation."""
    names = ["python"]
    try:
        from . import _fastpaths  # noqa: F401

        names.insert(0, "cython")
    except ImportError:
        pass
    return names
