"""Metric dimension reduction laboratory.

Submodules: :mod:`mdrlab.metric` (finite metrics, distortion, classical
embeddings), :mod:`mdrlab.jl` (Johnson-Lindenstrauss calculators and
transforms), :mod:`mdrlab.sdp` (Euclidean distortion by semidefinite
feasibility), :mod:`mdrlab.spectral` (reversible chains and nonlinear
spectral gaps), :mod:`mdrlab.matousek` (random coarse-obstruction
metrics), :mod:`mdrlab.moduli` (coarse embedding moduli), and
:mod:`mdrlab.cli` (the command line).

Importing the package or the CLI loads no submodule and no numpy until
first use: ``mdrlab.jl`` and the other library submodules are imported when
first accessed, and each CLI command imports the ones it computes with.
Each scipy subpackage is imported inside the function that computes with
it; ``scipy.special``, whose ufuncs are the Beta and chi-square tails of
:mod:`mdrlab.jl`, loads on the first tail evaluation.

Each public name is declared in its submodule only; import it from there,
as in ``from mdrlab.jl import psi``.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("errors", "jl", "matousek", "metric", "moduli", "sdp", "spectral")


def __getattr__(name):
    """``mdrlab.<submodule>`` imports that submodule on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
