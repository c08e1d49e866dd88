"""Shared numeric helpers: the numeric error, signed-log conversion, the
interlacing test and quadrature bits."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NumericError", "NEG_INF", "slog_to_float", "interlaced", "gauss_legendre", "gl_nodes",
           "clenshaw_curtis"]


class NumericError(RuntimeError):
    """A numeric procedure failed to reach its target (quadrature, bracketing...)."""


NEG_INF = -math.inf


def slog_to_float(s: float, lg: float) -> float:
    if s == 0.0 or lg == NEG_INF:
        return 0.0
    return s * math.exp(lg)


def interlaced(outer, inner, weak: bool = False) -> bool:
    """outer[0] > inner[0] > outer[1] > inner[1] > ... > outer[-1], for an
    outer sequence one longer than inner; weak allows inner[j] == outer[j + 1]."""
    if len(outer) != len(inner) + 1:
        raise ValueError(f"{len(outer)} outer values cannot interlace {len(inner)} inner ones")
    return all(o > i and (i >= n if weak else i > n) for o, i, n in zip(outer, inner, outer[1:]))


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def gl_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


_CC_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Clenshaw-Curtis nodes cos(pi k / n), k = 0..n, and weights on
    [-1, 1] for an even n: exact for polynomials of degree <= n, and the rule
    for n takes every other node of the rule for 2n."""
    if n not in _CC_CACHE:
        theta = np.pi * np.arange(n + 1) / n
        j = np.arange(1, n // 2 + 1)
        b = np.where(j == n // 2, 1.0, 2.0) / (4.0 * j * j - 1.0)
        w = (1.0 - np.cos(2.0 * np.outer(theta, j)) @ b) * 2.0 / n
        w[[0, -1]] *= 0.5
        _CC_CACHE[n] = np.cos(theta), w
    return _CC_CACHE[n]
