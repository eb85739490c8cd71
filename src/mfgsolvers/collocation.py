"""Collocation point sampling and functional-vector bookkeeping.

A FunctionalSet is the flattened list of point-evaluated linear operators
delta_x o L feeding both the gram/feature matrices and the residual
assembly.  The layout is blockwise: boundary operator blocks first, then
interior operator blocks, points fastest within a block.  So each point
group (the boundary points, then the interior points) owns consecutive
blocks, in the order in which the optimizer stacks its residual rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadCount
from .problems import SPACE_HALF_WIDTH, ProblemSpec


@dataclass(frozen=True)
class CollocationSet:
    interior: np.ndarray  # (M_omega, dim)
    boundary: np.ndarray  # (M - M_omega, dim)

    @property
    def m_total(self) -> int:
        return self.interior.shape[0] + self.boundary.shape[0]


def sample_uniform_grid(dim: int, M: int) -> CollocationSet:
    """Deterministic lattice on the torus: i/M in 1D, sqrt(M) x sqrt(M) in 2D."""
    if M < 1:
        raise BadCount("M must be positive")
    if dim == 1:
        pts = (np.arange(M) / M)[:, None]
    elif dim == 2:
        side = round(np.sqrt(M))
        if side * side != M:
            raise BadCount(f"M={M} is not a perfect square")
        g = np.arange(side) / side
        a, b = np.meshgrid(g, g, indexing="ij")
        pts = np.stack([a.ravel(), b.ravel()], axis=1)
    else:
        raise BadCount(f"unsupported dimension {dim}")
    return CollocationSet(interior=pts, boundary=np.zeros((0, dim)))


def sample_uniform_random(dim: int, M: int, seed: int) -> CollocationSet:
    """Iid uniform points on the torus; deterministic per seed."""
    if M < 1:
        raise BadCount("M must be positive")
    rng = np.random.default_rng(seed)
    pts = rng.random((M, dim))
    return CollocationSet(interior=pts, boundary=np.zeros((0, dim)))


def _time_slices(x0, x1) -> np.ndarray:
    """Points (0, x0) and (1, x1) on the initial and terminal time slices."""
    return np.concatenate(
        [np.stack([np.zeros_like(x0), x0], axis=1), np.stack([np.ones_like(x1), x1], axis=1)]
    )


def sample_planning(
    seed: int, n_interior: int = 1200, n_initial: int = 200, n_terminal: int = 200
) -> CollocationSet:
    """Points (t, x) in (0,1) x (-2,2) plus the two prescribed time slices."""
    if min(n_interior, n_initial, n_terminal) < 1:
        raise BadCount("all counts must be positive")
    rng = np.random.default_rng(seed)
    t = rng.random(n_interior)
    # nudge any draw that lands exactly on a slice into the open interval
    t[t == 0.0] = 0.5
    x = (rng.random(n_interior) * 2.0 - 1.0) * SPACE_HALF_WIDTH
    interior = np.stack([t, x], axis=1)
    x0 = (rng.random(n_initial) * 2.0 - 1.0) * SPACE_HALF_WIDTH
    x1 = (rng.random(n_terminal) * 2.0 - 1.0) * SPACE_HALF_WIDTH
    return CollocationSet(interior=interior, boundary=_time_slices(x0, x1))


def sample_planning_grid(
    n_interior: int = 1200, n_initial: int = 200, n_terminal: int = 200
) -> CollocationSet:
    """Deterministic space-time lattice: interior cell midpoints, uniform slices.

    The interior lattice has no coverage holes, which matters when the basis
    resolves features finer than the mean random-point spacing: random draws
    leave gaps where high-frequency components are unconstrained by the
    residual rows.
    """
    if min(n_interior, n_initial, n_terminal) < 1:
        raise BadCount("all counts must be positive")
    # aspect 1 : 2 * SPACE_HALF_WIDTH between the time and space extents
    nt = max(1, round(np.sqrt(n_interior / (2.0 * SPACE_HALF_WIDTH))))
    nx = max(1, n_interior // nt)
    t = (np.arange(nt) + 0.5) / nt
    x = (-1.0 + (2.0 * np.arange(nx) + 1.0) / nx) * SPACE_HALF_WIDTH
    a, b = np.meshgrid(t, x, indexing="ij")
    interior = np.stack([a.ravel(), b.ravel()], axis=1)
    x0 = np.linspace(-SPACE_HALF_WIDTH, SPACE_HALF_WIDTH, n_initial)
    x1 = np.linspace(-SPACE_HALF_WIDTH, SPACE_HALF_WIDTH, n_terminal)
    return CollocationSet(interior=interior, boundary=_time_slices(x0, x1))


@dataclass(frozen=True)
class FunctionalSet:
    """Ordered blocks of (operator tag, points) pairs.

    boundary blocks come first; ``blocks`` holds (tag, points) in layout
    order and ``slices`` the matching index ranges.
    """

    blocks: tuple  # of (op tag, points array)

    @property
    def size(self) -> int:
        return sum(b[1].shape[0] for b in self.blocks)

    @property
    def slices(self) -> tuple:
        out = []
        lo = 0
        for _, pts in self.blocks:
            out.append(slice(lo, lo + pts.shape[0]))
            lo += pts.shape[0]
        return tuple(out)

    @property
    def operator_tags(self) -> tuple:
        return tuple(b[0] for b in self.blocks)

    @property
    def point_sets(self) -> tuple:
        """(points, ((tag, slice), ...)) per distinct points array, in order of first use.

        Blocks on one points array share its kernel tables; arrays are told
        apart by identity, as the samplers share one per point group.
        """
        sets = {}
        for (tag, pts), sl in zip(self.blocks, self.slices):
            sets.setdefault(id(pts), (pts, []))[1].append((tag, sl))
        return tuple((pts, tuple(blocks)) for pts, blocks in sets.values())


def build_functionals(spec: ProblemSpec, pts: CollocationSet):
    """Functional vectors (phi for u, psi for m) in block layout."""
    if pts.interior.shape[1] != spec.dim:
        raise BadCount("point dimension does not match the problem")
    phi_blocks = [(op, pts.interior) for op in spec.u_operators]
    psi_blocks = [(op, pts.boundary) for op in spec.m_boundary_operators if len(pts.boundary)]
    psi_blocks += [(op, pts.interior) for op in spec.m_operators]
    return FunctionalSet(blocks=tuple(phi_blocks)), FunctionalSet(blocks=tuple(psi_blocks))
