"""Name of the numeric backend, for benchmark environment records.

Every kernel in :mod:`abfuse.kernels` is plain Python.
"""


def backend_name() -> str:
    return "python"
