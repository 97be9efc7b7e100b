"""Uniform tensor-product grids on a rectangular domain."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on [xmin, xmax] x [ymin, ymax] with npx by npy nodes.

    Node (i, j) sits at (xmin + i*dx, ymin + j*dy).  Scalar fields live on
    arrays of shape (npx, npy); flattening such an array in C order yields
    the x-major, y-inner vector layout used by every operator in this
    package.  A two-component field is stored with shape (2, npx, npy), so
    its flat view is component-major.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    npx: int
    npy: int

    def __post_init__(self) -> None:
        if self.npx < 2 or self.npy < 2:
            raise ValueError(
                f"grid needs at least 2 points per axis, got {self.npx}x{self.npy}"
            )
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("domain extents must be positive")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.npx - 1)

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / (self.npy - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.npx, self.npy)

    @cached_property
    def x(self) -> np.ndarray:
        """Node coordinates along x, length npx; computed once, read-only."""
        return _frozen_linspace(self.xmin, self.xmax, self.npx)

    @cached_property
    def y(self) -> np.ndarray:
        """Node coordinates along y, length npy; computed once, read-only."""
        return _frozen_linspace(self.ymin, self.ymax, self.npy)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X, Y of shape (npx, npy)."""
        return np.meshgrid(self.x, self.y, indexing="ij")


def _frozen_linspace(start: float, stop: float, num: int) -> np.ndarray:
    a = np.linspace(start, stop, num)
    a.setflags(write=False)
    return a
