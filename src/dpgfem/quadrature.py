"""Gauss-Legendre rules on [-1,1] and its tensor square."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadRule:
    points: np.ndarray
    weights: np.ndarray


def gauss_1d(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule on [-1, 1], exact for degree 2n-1."""
    if not 1 <= n <= 30:
        raise ValueError(f"gauss_1d: order {n} outside supported range [1, 30]")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadRule(x, w)


def tensor_quad(n: int) -> QuadRule:
    """Tensor-product rule on [-1, 1]^2 with n points per direction."""
    line = gauss_1d(n)
    X, Y = np.meshgrid(line.points, line.points)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    w = np.outer(line.weights, line.weights).ravel()
    return QuadRule(pts, w)
