"""Scaling-law fitting: which asymptotic model explains a measured curve.

The paper's results are asymptotic bounds; the reproduction checks *shape*:
given measured values ``y(k)`` over a geometric sweep of ``k``, we fit each
candidate growth model ``y ~ a * g(k)`` by least squares (one free constant
per model, as the theorems quantify over a single constant) and rank models
by relative residual.  The candidate set covers every bound in Table 1:

    k,   k log k,   k log^2 k,   k log^2 k / loglog k,   k log k/(loglog k)^2

A correct reproduction shows e.g. latency of ``NonAdaptiveWithK`` selecting
``k`` and latency of ``SublinearDecrease`` (with acks) selecting
``k log^2 k / loglog k`` (or its near-indistinguishable neighbours) over
``k``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GROWTH_MODELS", "ModelFit", "NO_FIT", "fit_model", "fit_all", "best_model",
    "log_slope",
]


def _loglog(k: float) -> float:
    """``max(1, log2 log2 k)`` — degenerates gracefully for small k."""
    return max(1.0, math.log2(max(2.0, math.log2(max(2.0, k)))))


def _log(k: float) -> float:
    return max(1.0, math.log2(max(2.0, k)))


#: name -> g(k); fitted as y ~ a * g(k).
GROWTH_MODELS: dict[str, Callable[[float], float]] = {
    "k": lambda k: k,
    "k log k": lambda k: k * _log(k),
    "k log^2 k": lambda k: k * _log(k) ** 2,
    "k log^2 k / loglog k": lambda k: k * _log(k) ** 2 / _loglog(k),
    "k log k / (loglog k)^2": lambda k: k * _log(k) / _loglog(k) ** 2,
    "log k": lambda k: _log(k),
    "log^2 k": lambda k: _log(k) ** 2,
    "constant": lambda k: 1.0,
}


@dataclass(frozen=True, slots=True)
class ModelFit:
    """Least-squares fit of ``y ~ a * g(k)`` for one growth model."""

    model: str
    constant: float
    relative_rmse: float

    def predict(self, k: float) -> float:
        return self.constant * GROWTH_MODELS[self.model](k)


def fit_model(
    ks: Sequence[float], ys: Sequence[float], model: str
) -> ModelFit:
    """Fit one named growth model.

    The constant minimises sum (y - a g)^2; the reported error is the RMSE
    of ``y/yhat - 1`` (relative, so large-k points do not dominate).
    """
    if model not in GROWTH_MODELS:
        raise KeyError(f"unknown growth model {model!r}; see GROWTH_MODELS")
    if len(ks) != len(ys) or len(ks) < 2:
        raise ValueError("need >= 2 (k, y) pairs of equal length")
    g = np.array([GROWTH_MODELS[model](k) for k in ks], dtype=float)
    y = np.asarray(ys, dtype=float)
    denom = float(g @ g)
    if denom <= 0:
        raise ValueError(f"model {model!r} degenerate on the given ks")
    a = float(g @ y) / denom
    prediction = a * g
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(prediction > 0, y / prediction - 1.0, np.inf)
    rmse = float(np.sqrt(np.mean(rel**2)))
    return ModelFit(model=model, constant=a, relative_rmse=rmse)


#: What a report says in place of a fit when a sweep has a single ``k``.
NO_FIT = "(a single k admits no scaling fit)"


def fit_all(
    ks: Sequence[float],
    ys: Sequence[float],
    models: Sequence[str] = ("k", "k log k", "k log^2 k", "k log^2 k / loglog k"),
) -> list[ModelFit]:
    """Fit every candidate model, best (lowest relative error) first."""
    fits = [fit_model(ks, ys, model) for model in models]
    return sorted(fits, key=lambda f: f.relative_rmse)


def best_model(
    ks: Sequence[float],
    ys: Sequence[float],
    models: Sequence[str] = ("k", "k log k", "k log^2 k", "k log^2 k / loglog k"),
) -> ModelFit:
    """Convenience wrapper: the winning fit of :func:`fit_all`."""
    return fit_all(ks, ys, models)[0]


def log_slope(ks: Sequence[float], ys: Sequence[float]) -> float:
    """The power-law exponent: slope of log y over log k (least squares).

    Latency linear in ``k`` gives ~1.0; a ``k log^2 k`` curve gives a
    slightly super-unit slope over practical ranges (~1.1-1.3).
    """
    if len(ks) != len(ys) or len(ks) < 2:
        raise ValueError("need >= 2 (k, y) pairs of equal length")
    lx = np.log(np.asarray(ks, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, _intercept = np.polyfit(lx, ly, 1)
    return float(slope)
