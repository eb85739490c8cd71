"""Mesh-free solvers for mean field game PDE systems.

Two methods over a shared operator-decomposition architecture: Gaussian
process kernel collocation and Fourier feature least squares, both driven
by a relaxed Gauss-Newton iteration.

The names below load ``pipeline`` (and with it numpy and the BLAS) on first
use, so importing the package or ``mfgsolvers.cli`` loads no numeric
library: ``cli.main`` applies ``MFG_THREADS`` before that happens.
"""

__all__ = ["ExperimentConfig", "RunResult", "run_experiment"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
