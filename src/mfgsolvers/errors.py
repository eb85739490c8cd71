"""Exception types raised across the package."""


class MfgError(Exception):
    """Base class for all package errors."""


class NonZeroMeanDrift(MfgError):
    """The drift b has nonzero mean, so the closed-form 1D solution is invalid."""


class ArityMismatch(MfgError):
    """Value vectors do not match the operator lists of the problem."""


class NotOnBoundary(MfgError):
    """Point handed to a boundary residual does not lie on a boundary slice."""


class DimensionMismatch(MfgError):
    """Point dimension does not match the kernel family."""


class UnsupportedOperator(MfgError):
    """Operator tag not supported by this kernel family or feature basis."""


class UnsupportedOperatorPair(UnsupportedOperator):
    """Operator pair cannot be evaluated in closed form (nonlocal tag)."""


class BadGrid(MfgError):
    """Invalid FFT grid size for the nonlocal operator."""


class BadCount(MfgError):
    """Sample count incompatible with the requested grid shape."""


class NotPositiveDefinite(MfgError):
    """Cholesky failed; the regularized matrix is not numerically PD."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"Cholesky failed at pivot {pivot}; increase the nugget")


class NonFiniteMatrix(MfgError, ValueError):
    """A matrix to factor has an infinite or NaN entry, as after an overflowing nugget."""


class SingularNormalEquations(MfgError):
    """The linearized inner problem is singular (penalties too small) or not finite."""


class NonFiniteObjective(MfgError):
    """Objective became non-finite (divergence)."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"objective non-finite at iteration {iteration}")


class LengthMismatch(MfgError):
    """Vector length does not match the factorization."""


class EmptyGrid(MfgError):
    """Evaluation grid is empty."""


class GridMismatch(MfgError):
    """Two runs being compared do not share problem/evaluation grid."""


class ConfigError(MfgError):
    """Experiment configuration is invalid; message names the field."""
