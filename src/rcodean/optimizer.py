"""Adam optimizer and plateau-triggered learning-rate decay. The package
trains one recipe: the constants below are fixed, not settings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TrainingError

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to the root of the second moment
DECAY_FACTOR = 10.0  # a plateau divides the rate by this
THRESHOLD = 1e-6  # an epoch loss must beat the best by more to improve
MIN_LR = 1e-6  # a plateau never takes the rate below this


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the step counter.

    Buffers are keyed by parameter name and created lazily on the first
    step so one state object can serve any named parameter collection.
    """
    lr: float
    t: int = field(init=False, default=0)
    m: dict = field(init=False, default_factory=dict)
    v: dict = field(init=False, default_factory=dict)


def adam_step(state: AdamState, params: list[tuple[str, np.ndarray]],
              grads: dict[str, np.ndarray]) -> None:
    """One bias-corrected Adam update, applied to the arrays in place.

    This is the package's only sanctioned in-place mutation of parameter
    arrays. All gradients are validated before anything is touched, so a
    bad gradient aborts the step without a partial update. The update

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        p -= lr (m / bc1) / (sqrt(v / bc2) + eps)

    updates each array and its moments in place through two scratch
    buffers made per call, so concurrent steps on separate states have
    nothing in common.
    """
    for name, p in params:
        g = grads.get(name)
        if g is None:
            raise TrainingError(f"missing gradient for parameter {name!r}")
        if g.shape != p.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match parameter {name!r} "
                f"shape {p.shape}"
            )
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")

    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    size = max((p.size for _, p in params), default=0)
    s1, s2 = np.empty(size), np.empty(size)
    for name, p in params:
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        g, m, v = grads[name], state.m[name], state.v[name]
        t1, t2 = s1[:p.size].reshape(p.shape), s2[:p.size].reshape(p.shape)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=t1)
        v *= BETA2
        np.multiply(g, g, out=t1)
        t1 *= 1.0 - BETA2
        v += t1
        np.divide(v, bc2, out=t1)
        np.sqrt(t1, out=t1)
        t1 += EPS
        np.divide(m, bc1, out=t2)
        t2 *= state.lr
        t2 /= t1
        p -= t2


@dataclass
class PlateauScheduler:
    """Divides the learning rate when the training loss stops improving.

    An epoch counts as an improvement when its loss beats the best seen
    by more than ``THRESHOLD``. After ``patience`` consecutive stale
    epochs the rate is divided by ``DECAY_FACTOR``, never below ``MIN_LR``.
    """
    lr: float = 1e-3
    patience: int = 5
    best: float = field(init=False, default=float("inf"))
    stale: int = field(init=False, default=0)

    def __post_init__(self):
        if self.patience < 1 or self.lr <= 0.0:
            raise ValueError("scheduler requires patience >= 1, lr > 0")


def scheduler_update(s: PlateauScheduler, epoch_loss: float) -> float:
    """Record one epoch's training loss; return the rate to use next."""
    if not np.isfinite(epoch_loss):
        raise TrainingError(f"non-finite epoch loss {epoch_loss}")
    if epoch_loss < s.best - THRESHOLD:
        s.best = epoch_loss
        s.stale = 0
    else:
        s.stale += 1
        if s.stale >= s.patience:
            s.lr = max(s.lr / DECAY_FACTOR, MIN_LR)
            s.stale = 0
    return s.lr
