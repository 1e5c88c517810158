"""Metric dimension reduction laboratory.

Submodules: :mod:`mdrlab.metric` (finite metrics, distortion, classical
embeddings), :mod:`mdrlab.jl` (Johnson-Lindenstrauss calculators and
transforms), :mod:`mdrlab.sdp` (Euclidean distortion by semidefinite
feasibility), :mod:`mdrlab.spectral` (reversible chains and nonlinear
spectral gaps), :mod:`mdrlab.matousek` (random coarse-obstruction
metrics), :mod:`mdrlab.moduli` (coarse embedding moduli), and
:mod:`mdrlab.cli` (the command line).

Importing the package or the CLI loads numpy and no scipy module.  Each
scipy subpackage is imported inside the function that computes with it;
``scipy.special``, whose ufuncs are the Beta and chi-square tails of
:mod:`mdrlab.jl`, loads on the first tail evaluation.

Each public name is declared in its submodule only; import it from there,
as in ``from mdrlab.jl import psi``.
"""

from . import errors, jl, matousek, metric, moduli, sdp, spectral

__version__ = "0.1.0"
