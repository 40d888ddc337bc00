"""Workspace geometry: named regions with signed margin functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """Union of axis-aligned rectangles with a signed margin function.

    ``rects`` is a tuple of (lo, hi) corner pairs, each a 2-vector in meters.
    The margin of one rectangle is min over axes of the signed distances to
    its faces, so it is positive strictly inside, zero on the boundary and
    negative outside; the region margin is the max over rectangles. A single
    rectangle is the common case - the union form exists for shapes like a
    river interrupted by a bridge.
    """

    name: str
    rects: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    def __post_init__(self):
        if not self.rects:
            raise ValueError(f"region {self.name!r} has no rectangles")
        for lo, hi in self.rects:
            if not (lo[0] <= hi[0] and lo[1] <= hi[1]):
                raise ValueError(f"region {self.name!r}: min corner must be <= max corner")

    def margin(self, x: np.ndarray) -> np.ndarray:
        """Signed margin f with f(x) >= 0 iff x is inside. x is (..., 2)."""
        x = np.asarray(x, dtype=np.float64)
        best = None
        for lo, hi in self.rects:
            lo = np.asarray(lo)
            hi = np.asarray(hi)
            m = np.minimum(x - lo, hi - x).min(axis=-1)
            best = m if best is None else np.maximum(best, m)
        return best

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        los = np.array([lo for lo, _ in self.rects])
        his = np.array([hi for _, hi in self.rects])
        return los.min(axis=0), his.max(axis=0)

    def center(self) -> np.ndarray:
        lo, hi = self.bounding_box
        return (lo + hi) / 2.0

    @staticmethod
    def box(name: str, lo, hi) -> "Region":
        return Region(name, (((float(lo[0]), float(lo[1])), (float(hi[0]), float(hi[1]))),))

