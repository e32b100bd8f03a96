"""Quadrature rules on the reference segment, square and triangle.

Reference cells: segment [0, 1], square [-1, 1]^2, triangle with vertices
(0,0), (1,0), (0,1).  Weights always sum to the reference-cell measure.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Points (n, dim) on the reference cell and positive weights (n,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False


def segment_rule(npts: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for degree 2*npts - 1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return QuadratureRule(((x + 1.0) / 2.0)[:, None], w / 2.0)


def quad_rule(nx: int = 2, ny: int = None) -> QuadratureRule:
    """Tensor Gauss rule on [-1, 1]^2, nx points in xi and ny (default nx) in eta."""
    ny = nx if ny is None else ny
    gx, wx = np.polynomial.legendre.leggauss(nx)
    gy, wy = np.polynomial.legendre.leggauss(ny)
    pts = np.array([(xi, yj) for yj in gy for xi in gx])
    wts = np.array([wi * wj for wj in wy for wi in wx])
    return QuadratureRule(pts, wts)


# Reduced shear rules for the Mindlin quad: the x-shear component is sampled
# on the midline xi = 0 and the y-shear component on eta = 0.  This keeps the
# discrete kernel free of the zero-energy checkerboard mode that a single
# centre point lets through, while still relaxing the Kirchhoff constraint.
_G = 1.0 / np.sqrt(3.0)


def shear_rule_x() -> QuadratureRule:
    return QuadratureRule(np.array([[0.0, -_G], [0.0, _G]]), np.array([2.0, 2.0]))


def shear_rule_y() -> QuadratureRule:
    return QuadratureRule(np.array([[-_G, 0.0], [_G, 0.0]]), np.array([2.0, 2.0]))


def triangle_rule() -> QuadratureRule:
    """The symmetric 6-point rule of degree 4 on the reference triangle
    (area 1/2): it integrates products of two quadratics exactly, which the
    Morley mass matrix needs."""
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = np.array(
        [
            [a1, a1],
            [1.0 - 2.0 * a1, a1],
            [a1, 1.0 - 2.0 * a1],
            [a2, a2],
            [1.0 - 2.0 * a2, a2],
            [a2, 1.0 - 2.0 * a2],
        ]
    )
    wts = 0.5 * np.array([w1, w1, w1, w2, w2, w2])
    return QuadratureRule(pts, wts)
