"""Trigonometric feature maps over token vectors, with exact reverse-mode gradients.

The adaptive map passes sin/cos projections of the input through a learned
affine layer and a ReLU, so downstream dot products stay non-negative. Both
halves come from one tangent of the half angle (``_sin_cos``), since numpy
vectorizes tan but, on common builds, not sin or cos. The random-trig map
keeps the classical frozen random-feature form and exists as a baseline; its
projection matrix receives no gradient by contract.

Parameters stacked on a leading head axis map (..., heads, in_dim) inputs,
each head through its own weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .heads import matmul, outer_sum


class FeatureMapKind(Enum):
    DETERMINISTIC_ADAPTIVE = "deterministic-adaptive"
    RANDOM_TRIG = "random-trig"


@dataclass(frozen=True)
class FeatureMapParams:
    kind: FeatureMapKind
    w1: np.ndarray              # (freq_dim, in_dim)
    w2: np.ndarray | None       # (out_dim, 2*freq_dim), adaptive only
    b2: np.ndarray | None       # (out_dim,), adaptive only

    def __post_init__(self):
        if self.w1.ndim not in (2, 3):
            raise ValueError("w1 must be a matrix, or one matrix per head")
        for name in ("w1", "w2", "b2"):
            arr = getattr(self, name)
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        if self.kind is FeatureMapKind.DETERMINISTIC_ADAPTIVE:
            if self.w2 is None or self.b2 is None:
                raise ValueError("adaptive map needs w2 and b2")
            if self.w2.shape[:-2] != self.w1.shape[:-2] \
                    or self.w2.shape[-1] != 2 * self.w1.shape[-2]:
                raise ValueError("w2 columns must equal twice the frequency count")
            if self.b2.shape != self.w2.shape[:-1]:
                raise ValueError("b2 must match w2 rows")
        else:
            if self.w2 is not None or self.b2 is not None:
                raise ValueError("random-trig map has no second layer")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[-1]

    @property
    def out_dim(self) -> int:
        if self.kind is FeatureMapKind.DETERMINISTIC_ADAPTIVE:
            return self.w2.shape[-2]
        return 2 * self.w1.shape[-2]


@dataclass
class FeatureMapGrads:
    grad_x: np.ndarray
    grad_w1: np.ndarray
    grad_w2: np.ndarray | None
    grad_b2: np.ndarray | None


def init_feature_map(kind: FeatureMapKind, in_dim: int, rng: np.random.Generator,
                     freq_dim: int | None = None, out_dim: int | None = None) -> FeatureMapParams:
    """Fresh parameters; frequency and output widths default to the input width."""
    freq_dim = in_dim if freq_dim is None else freq_dim
    out_dim = in_dim if out_dim is None else out_dim
    w1 = rng.standard_normal((freq_dim, in_dim))
    if kind is FeatureMapKind.RANDOM_TRIG:
        return FeatureMapParams(kind=kind, w1=w1, w2=None, b2=None)
    w2 = rng.standard_normal((out_dim, 2 * freq_dim)) / np.sqrt(2.0 * freq_dim)
    b2 = np.zeros(out_dim)
    return FeatureMapParams(kind=kind, w1=w1, w2=w2, b2=b2)


def _sin_cos(z: np.ndarray) -> np.ndarray:
    """[sin z, cos z] along the last axis, from t = tan(z / 2) as
    sin z = t w and cos z = w - 1 with w = 2 / (1 + t^2), written into the
    two halves of one new buffer. z is overwritten: the work runs in place
    on it, since ufuncs over the halves' strided rows pay a fixed cost per
    row that outweighs tan's gain on short rows."""
    freq = z.shape[-1]
    u = np.empty(z.shape[:-1] + (2 * freq,))
    sin = u[..., :freq]
    z *= 0.5
    np.tan(z, out=z)
    np.copyto(sin, z)
    z *= z
    z += 1.0
    np.divide(2.0, z, out=z)
    sin *= z
    np.subtract(z, 1.0, out=u[..., freq:])
    return u


def feature_forward(x: np.ndarray, params: FeatureMapParams) -> np.ndarray:
    """Map (..., in_dim) vectors to (..., out_dim) features, or
    (..., heads, in_dim) ones when the parameters carry a head axis."""
    x = np.asarray(x, dtype=np.float64)
    heads = params.w1.shape[:-2]
    if x.shape[-1] != params.in_dim or x.shape[-1 - len(heads):-1] != heads:
        raise ValueError(f"input shape {x.shape} does not match map width "
                         f"{params.in_dim} over {heads or 'no'} heads")
    u = _sin_cos(matmul(x, np.swapaxes(params.w1, -1, -2)))
    if params.kind is FeatureMapKind.DETERMINISTIC_ADAPTIVE:
        a = matmul(u, np.swapaxes(params.w2, -1, -2))
        a += params.b2
        return np.maximum(a, 0.0, out=a)
    return u / np.sqrt(params.w1.shape[-2])


def feature_vjp(x: np.ndarray, params: FeatureMapParams, upstream: np.ndarray,
                features: np.ndarray) -> FeatureMapGrads:
    """Pull an (..., out_dim) cotangent back to the input and the parameters,
    given the forward's ``features`` at x.

    Parameter gradients are summed over all leading axes but a stacked
    map's head axis. The ReLU passes the cotangent where the features are
    positive, which is where its pre-activation is (the zero subgradient at
    its kink). The frozen random-trig w1 reports an exactly zero gradient
    while the input gradient still flows.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != x.shape[:-1] + (params.out_dim,):
        raise ValueError("upstream shape does not match the forward output")
    if np.shape(features) != g.shape:
        raise ValueError("features shape does not match the forward output")
    freq = params.w1.shape[-2]
    heads = params.w1.ndim == 3
    u = _sin_cos(matmul(x, np.swapaxes(params.w1, -1, -2)))
    sin_z, cos_z = u[..., :freq], u[..., freq:]

    if params.kind is FeatureMapKind.DETERMINISTIC_ADAPTIVE:
        ga = np.where(features > 0.0, g, 0.0)
        gu = matmul(ga, params.w2)
        gz = gu[..., :freq] * cos_z - gu[..., freq:] * sin_z
        return FeatureMapGrads(grad_x=matmul(gz, params.w1),
                               grad_w1=outer_sum(gz, x, heads),
                               grad_w2=outer_sum(ga, u, heads),
                               grad_b2=ga.reshape((-1,) + params.b2.shape).sum(axis=0))

    gu = g * (1.0 / np.sqrt(freq))
    gz = gu[..., :freq] * cos_z - gu[..., freq:] * sin_z
    return FeatureMapGrads(grad_x=matmul(gz, params.w1), grad_w1=np.zeros_like(params.w1),
                           grad_w2=None, grad_b2=None)
