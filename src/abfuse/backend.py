"""Numeric backend selection.

The hot kernels in :mod:`abfuse.kernels` exist in two flavours: a numba
``@njit``-compiled version and a plain numpy/Python version.  Which one is
used is decided per call via :func:`use_numba`, so the environment variable
``ABFUSE_NO_NUMBA`` can be flipped at runtime (useful for tests).  numba is
the optional ``fast`` extra; without it every kernel runs its plain version.
"""

import os

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is optional (the ``fast`` extra)
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        """Fallback decorator that returns the function unchanged."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


_FALSY = ("", "0", "false", "no", "off")


def use_numba() -> bool:
    """True when compiled kernels should be used for this call."""
    if not HAVE_NUMBA:
        return False
    flag = os.environ.get("ABFUSE_NO_NUMBA", "").strip().lower()
    return flag in _FALSY


def backend_name() -> str:
    return "numba" if use_numba() else "numpy"
