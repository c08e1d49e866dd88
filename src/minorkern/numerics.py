"""Shared numeric helpers: signed log-magnitude arithmetic and quadrature bits."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


class NumericError(RuntimeError):
    """A numeric procedure failed to reach its target (quadrature, bracketing...)."""


NEG_INF = -math.inf


def slog_from_float(v: float) -> tuple[float, float]:
    """(sign, log|v|) representation of v; sign 0 encodes exact zero."""
    if v == 0.0:
        return (0.0, NEG_INF)
    return (math.copysign(1.0, v), math.log(abs(v)))


def slog_to_float(s: float, lg: float) -> float:
    if s == 0.0 or lg == NEG_INF:
        return 0.0
    return s * math.exp(lg)


def slog_mul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    if a[0] == 0.0 or b[0] == 0.0:
        return (0.0, NEG_INF)
    return (a[0] * b[0], a[1] + b[1])


def slog_sum(terms: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Signed logsumexp; exact cancellation returns (0, -inf)."""
    signs, logs = [], []
    for s, lg in terms:
        if s != 0.0 and lg != NEG_INF:
            signs.append(s)
            logs.append(lg)
    if not logs:
        return (0.0, NEG_INF)
    m = max(logs)
    tot = sum(s * math.exp(lg - m) for s, lg in zip(signs, logs))
    if tot == 0.0:
        return (0.0, NEG_INF)
    return (math.copysign(1.0, tot), m + math.log(abs(tot)))


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
