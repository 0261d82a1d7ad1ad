"""Dense float64 matrix type and the entrywise activations.

A ``Mat`` is a checked value entering the program or a scoring pass:
``preprocess``'s result, the face matrix of a scoring batch, and the
input of ``encode`` and ``head_score``; construction checks
dimensionality and finiteness. The network and classifier code builds
none. Everything computed inside a model is a plain float64 ndarray and
is not re-checked: the trainers check their input once, and a NaN made
inside is caught by the stage-1 score check or by the optimizer's
gradient and epoch-loss checks. In-place arithmetic writes only into
fresh intermediates that nothing else holds, or into arrays a caller
made to receive that result and passed as ``out`` (as ``activation``
takes them); the only sanctioned in-place mutation of a value a caller
holds is the optimizer's documented parameter update.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

ACTIVATION_KINDS = ("relu", "sigmoid", "linear")


class Mat:
    """2-D row-major matrix of 64-bit reals.

    Wraps a C-contiguous ``np.ndarray`` exposed as ``.a``. Construction
    validates dimensionality and finiteness, so a NaN/Inf is refused where
    a value enters the program or a scoring pass.
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

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __repr__(self) -> str:
        return f"Mat({self.a.shape[0]}x{self.a.shape[1]})"


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable split form, exp(min(z, 0)) / (1 + exp(-|z|)):
    1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere,
    neither exp above 1, where naive 1/(1+exp(-z)) overflows for z << 0.
    The value goes into ``out`` and the denominator into ``work``, arrays
    shaped as z, or into new arrays where they are not given."""
    d = np.abs(z, out=work)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    num = np.minimum(z, 0.0, out=out)
    np.exp(num, out=num)
    return np.divide(num, d, out=num)


def activation(z: np.ndarray, kind: str, out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """Entrywise activation value, written into ``out`` where it is given;
    a sigmoid also writes its temporary into ``work`` (see ``_sigmoid``).
    The linear value is ``z`` itself, not a copy, whatever ``out``."""
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation kind {kind!r}")
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "sigmoid":
        return _sigmoid(z, out, work)
    return z
