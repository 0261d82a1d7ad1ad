"""Dense float64 matrix type and the entrywise activations.

``Mat`` is the validated 2-D value the layers pass around: construction
checks dimensionality and finiteness. The only sanctioned in-place
mutation anywhere in the package is the optimizer's documented parameter
update.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

ACTIVATION_KINDS = ("relu", "sigmoid", "tanh", "linear")


class Mat:
    """2-D row-major matrix of 64-bit reals.

    Wraps a C-contiguous ``np.ndarray`` exposed as ``.a``. Construction
    validates dimensionality and finiteness, so any NaN/Inf produced by
    an operation surfaces immediately instead of propagating.
    """

    __slots__ = ("a",)

    def __init__(self, array, copy: bool = True):
        a = np.array(array, dtype=np.float64) if copy else np.asarray(array, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"Mat requires a 2-D array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"Mat requires positive dimensions, got {a.shape}")
        if not np.isfinite(a).all():
            raise NumericError("Mat contains non-finite entries")
        self.a = np.ascontiguousarray(a)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(np.zeros((rows, cols)), copy=False)

    @classmethod
    def column(cls, values) -> "Mat":
        """Build a single-column matrix from a 1-D sequence."""
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise ShapeError(f"column expects a 1-D sequence, got ndim={v.ndim}")
        return cls(v.reshape(-1, 1), copy=False)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols})"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # numerically stable split form; naive 1/(1+exp(-z)) overflows for z << 0
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def activation(z: Mat, kind: str, mode: str = "value") -> Mat:
    """Entrywise activation value or derivative.

    relu derivative at exactly 0 is defined as 0 (subgradient choice,
    keeps gradients sparse).
    """
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation kind {kind!r}")
    if mode not in ("value", "derivative"):
        raise ValueError(f"unknown activation mode {mode!r}")
    x = z.a
    if kind == "relu":
        out = np.maximum(x, 0.0) if mode == "value" else (x > 0).astype(np.float64)
    elif kind == "sigmoid":
        s = _sigmoid(x)
        out = s if mode == "value" else s * (1.0 - s)
    elif kind == "tanh":
        t = np.tanh(x)
        out = t if mode == "value" else 1.0 - t * t
    else:  # linear
        out = x.copy() if mode == "value" else np.ones_like(x)
    return Mat(out, copy=False)
