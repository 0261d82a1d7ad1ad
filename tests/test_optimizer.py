import numpy as np
import pytest

from rcodean.errors import ShapeError, TrainingError
from rcodean.optimizer import (BETA1, BETA2, DECAY_FACTOR, EPS, MIN_LR, THRESHOLD,
                               AdamState, PlateauScheduler, adam_step, scheduler_update)


def test_zero_gradients_are_a_fixed_point():
    w = np.array([[1.5, -2.0]])
    state = AdamState(lr=0.01)
    for _ in range(25):
        adam_step(state, [("w", w)], {"w": np.zeros_like(w)})
    assert np.array_equal(w, [[1.5, -2.0]])


def test_first_step_magnitude_is_about_lr():
    w = np.array([[0.0]])
    state = AdamState(lr=0.001)
    adam_step(state, [("w", w)], {"w": np.array([[1.0]])})
    # bias-corrected first step: lr * 1 / (1 + eps)
    assert abs(-w[0, 0] - 0.001 / (1 + 1e-8)) < 1e-12
    assert state.t == 1


def test_quadratic_bowl_convergence():
    rng = np.random.default_rng(71)
    w = rng.normal(size=(10, 1))
    state = AdamState(lr=0.01)
    for _ in range(500):
        adam_step(state, [("w", w)], {"w": 2.0 * w})
    assert float(np.vdot(w, w)) < 1e-6


def test_sign_flip_flips_updates_exactly():
    # mirrored start + mirrored gradients must stay exact mirrors forever:
    # v is even in g, m and the update are odd, and IEEE rounding is
    # symmetric under negation
    rng = np.random.default_rng(73)
    start = rng.normal(size=(4, 3))
    wa = start.copy()
    wb = -start.copy()
    sa = AdamState(lr=0.05)
    sb = AdamState(lr=0.05)
    for _ in range(10):
        g = rng.normal(size=(4, 3))
        adam_step(sa, [("w", wa)], {"w": g})
        adam_step(sb, [("w", wb)], {"w": -g})
        assert np.array_equal(wa, -wb)


def test_non_finite_gradient_aborts_without_partial_update():
    w1 = np.array([[1.0]])
    w2 = np.array([[2.0]])
    state = AdamState(lr=1e-3)
    grads = {"a": np.array([[0.5]]), "b": np.array([[np.nan]])}
    with pytest.raises(TrainingError, match="'b'"):
        adam_step(state, [("a", w1), ("b", w2)], grads)
    assert w1[0, 0] == 1.0 and w2[0, 0] == 2.0 and state.t == 0


def test_gradient_shape_mismatch():
    state = AdamState(lr=1e-3)
    with pytest.raises(ShapeError):
        adam_step(state, [("w", np.zeros((2, 2)))], {"w": np.zeros((2, 3))})


def test_determinism_bit_identical_trajectories():
    def run():
        rng = np.random.default_rng(79)
        w = rng.normal(size=(6, 4))
        state = AdamState(lr=0.003)
        for _ in range(40):
            g = rng.normal(size=(6, 4))
            adam_step(state, [("w", w)], {"w": g})
        return w

    assert np.array_equal(run(), run())


def test_in_place_update_matches_textbook_expression():
    # parameters of several sizes (views of scratch buffers sized by the
    # largest) and a transposed one, against the whole-array formula, bit
    # for bit
    rng = np.random.default_rng(83)
    shapes = {"mid": (300, 64), "big": (515, 64), "small": (5, 1), "transposed": (7, 3)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    params["transposed"] = rng.normal(size=(3, 7)).T
    ref = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    state = AdamState(lr=0.02)
    b1, b2, eps, lr = BETA1, BETA2, EPS, state.lr
    for t in range(1, 6):
        grads = {name: rng.normal(scale=t, size=shape) for name, shape in shapes.items()}
        adam_step(state, list(params.items()), grads)
        for name, g in grads.items():
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            ref[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        for name in shapes:
            assert np.array_equal(params[name], ref[name]), (t, name)
            assert np.array_equal(state.m[name], m[name]) and np.array_equal(state.v[name], v[name])


def test_scheduler_no_plateau_keeps_lr():
    s = PlateauScheduler(lr=0.001, patience=3)
    losses = [1.0, 0.9, 0.8, 0.7, 0.6]
    for loss in losses:
        lr = scheduler_update(s, loss)
    assert lr == 0.001


def test_scheduler_constant_loss_decays_after_patience_plus_one():
    s = PlateauScheduler(lr=0.001, patience=3)
    lrs = [scheduler_update(s, 1.0) for _ in range(4)]
    assert lrs[:3] == [0.001, 0.001, 0.001]
    assert lrs[3] == pytest.approx(0.0001)


def test_scheduler_floor():
    s = PlateauScheduler(lr=0.001, patience=2)
    lr = 0.001
    for _ in range(100):
        lr = scheduler_update(s, 5.0)
    assert lr == MIN_LR == 1e-6


def test_scheduler_lr_never_increases():
    rng = np.random.default_rng(83)
    s = PlateauScheduler(lr=0.001, patience=2)
    prev = s.lr
    for _ in range(200):
        lr = scheduler_update(s, float(rng.uniform(0.0, 1.0)))
        assert lr <= prev
        prev = lr


def test_scheduler_stale_bounded_by_patience():
    s = PlateauScheduler(lr=0.001, patience=4)
    for _ in range(50):
        scheduler_update(s, 2.0)
        assert s.stale <= s.patience


def test_scheduler_improvement_threshold():
    s = PlateauScheduler(lr=0.001, patience=1)
    scheduler_update(s, 1.0)
    # a drop smaller than the threshold is not an improvement
    assert THRESHOLD > 1e-9
    lr = scheduler_update(s, 1.0 - 1e-9)
    assert lr == pytest.approx(0.001 / DECAY_FACTOR)
