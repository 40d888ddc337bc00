"""Workspace geometry: named regions with signed margin functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# the gradient of each face of a rectangle: x - lo_x, y - lo_y, hi_x - x, hi_y - y
_FACE_GRADS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class Region:
    """Union of axis-aligned rectangles with a signed margin function.

    ``rects`` is a tuple of (lo, hi) corner pairs, each a 2-vector in meters.
    The margin of one rectangle is min over axes of the signed distances to
    its faces, so it is positive strictly inside, zero on the boundary and
    negative outside; the region margin is the max over rectangles. The
    boolean and classical monitors read it from ``margin``, the smooth one
    with its gradient from ``margin_grad``. A single rectangle is the common
    case - the union form exists for shapes like a river interrupted by a
    bridge.
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
        px, py = x[..., 0], x[..., 1]
        best = None
        for (lx, ly), (hx, hy) in self.rects:
            m = np.minimum(np.minimum(px - lx, py - ly), np.minimum(hx - px, hy - py))
            best = m if best is None else np.maximum(best, m)
        return best

    def margin_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``margin(x)`` and its gradient at x (..., 2): +1 or -1 on the
        coordinate of the face that sets the margin, 0 on the other. Ties go
        to the last tied face of x - lo_x, y - lo_y, hi_x - x, hi_y - y and
        the first tied rectangle."""
        px, py = x[..., 0], x[..., 1]
        best = None
        for (lx, ly), (hx, hy) in self.rects:
            faces = np.array([px - lx, py - ly, hx - px, hy - py])
            m, f = faces.min(axis=0), 3 - faces[::-1].argmin(axis=0)
            if best is None:
                best, face = m, f
            else:
                face = np.where(m > best, f, face)
                best = np.maximum(best, m)
        return best, _FACE_GRADS[face]

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

