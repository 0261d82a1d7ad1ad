import dataclasses

import numpy as np
import pytest

import rcodean.network
from oracles import PlainMseAutoencoder, straight_line_forward, _relu
from rcodean.errors import ConfigError, ShapeError
from rcodean.network import (DEFAULT_SKIP_LAYOUT, ENCODER_IDS, CodeanParams,
                             assemble_rcodean, build_rcodean, codean_loss, encode,
                             gradient_check, loss_and_grads, net_backward,
                             net_forward, stacked_encode)
from rcodean.optimizer import AdamState, adam_step
from rcodean.pipeline import PipelineConfig
from rcodean.tensor import Mat

# the loss weights a run trains with unless its config says otherwise
DEFAULT_WEIGHTS = PipelineConfig().codean_params()


def _column(values):
    return np.reshape(np.asarray(values, dtype=np.float64), (-1, 1))


def test_forward_zero_parameters_give_zero_reconstruction():
    net = build_rcodean(6, 4, seed=1)
    for name, arr in net.parameters():
        arr[:] = 0.0
    out = net_forward(net, np.random.default_rng(0).uniform(size=(6, 1)))
    assert np.count_nonzero(out.reconstruction) == 0
    assert np.count_nonzero(out.caches["enc3"].output) == 0


def test_forward_without_skips_is_plain_stack():
    rng = np.random.default_rng(97)
    net = build_rcodean(7, 5, seed=2, skip_layout=())
    x = rng.uniform(size=(7, 1))
    out = net_forward(net, x)
    a = x
    for lid in ("enc1", "enc2", "enc3", "dec1", "dec2"):
        a = _relu(net.layers[lid].weight @ a + net.layers[lid].bias)
    a = net.layers["dec3"].weight @ a + net.layers["dec3"].bias
    assert np.allclose(out.reconstruction, a, rtol=1e-15, atol=0)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(101)
    for seed in range(5):
        net = build_rcodean(12, 8, seed=seed)
        x = rng.uniform(size=(12, 3))
        out = net_forward(net, x)
        recon, code = straight_line_forward(net, x)
        assert np.allclose(out.reconstruction, recon, rtol=1e-13, atol=0)
        assert np.allclose(out.caches["enc3"].output, code, rtol=1e-13, atol=0)


def test_default_skip_layout_and_projection():
    net = build_rcodean(12, 8, seed=3)
    assert net.skips == DEFAULT_SKIP_LAYOUT
    assert set(net.skips) == {("enc1", "enc3", "cross"), ("enc2", "dec1", "cross"),
                              ("enc3", "dec2", "cross"), ("enc1", "dec3", "symmetric"),
                              ("enc2", "dec2", "symmetric"), ("enc3", "dec1", "symmetric")}
    assert list(net.layers) == ["enc1", "enc2", "enc3", "dec1", "dec2", "dec3"]
    # each layer's incoming shortcuts, in layout order
    assert {lid: [src for src, _, _ in skips] for lid, skips in net.incoming.items()} == {
        "enc1": [], "enc2": [], "enc3": ["enc1"], "dec1": ["enc2", "enc3"],
        "dec2": ["enc3", "enc2"], "dec3": ["enc1"]}
    # only the shortcut into the d-wide reconstruction bridges two widths
    assert list(net.projections) == ["enc1->dec3"]
    assert net.projections["enc1->dec3"].shape == (12, 8)
    # a hand-built net without that projection fails at its first forward
    bare = assemble_rcodean({name: arr for name, arr in net.parameters()
                             if not name.startswith("skip.")}, DEFAULT_SKIP_LAYOUT)
    with pytest.raises(ShapeError, match="skip input"):
        net_forward(bare, np.ones((12, 1)))


def test_stored_encoder_equals_the_trained_nets_encoder():
    # a stored encoder is the net's three encoder layers, one net's or
    # several nets' stacked, run through the same forward code
    rng = np.random.default_rng(105)
    nets = [build_rcodean(12, 8, seed=s) for s in (6, 7)]
    xs = [rng.uniform(size=(12, 5)) for _ in nets]
    names = [f"{lid}.{part}" for lid in ENCODER_IDS for part in ("weight", "bias")]
    for net, x in zip(nets, xs):
        arrays = dict(net.parameters())
        stored = assemble_rcodean({name: arrays[name] for name in names}, DEFAULT_SKIP_LAYOUT)
        assert list(stored.layers) == list(ENCODER_IDS)
        assert stored.projections == {}
        assert stored.incoming == {"enc1": [], "enc2": [], "enc3": [("enc1", "enc3", "cross")]}
        assert [name for name, _ in stored.parameters()] == names
        assert np.array_equal(stacked_encode(stored, x), net_forward(net, x).caches["enc3"].output)
    arrays = [dict(net.parameters()) for net in nets]
    stacked = assemble_rcodean({name: np.stack([a[name] for a in arrays]) for name in names},
                               DEFAULT_SKIP_LAYOUT)
    assert stacked.incoming["enc3"] == [("enc1", "enc3", "cross")]
    codes = stacked_encode(stacked, np.stack(xs))
    for s, (net, x) in enumerate(zip(nets, xs)):
        assert np.array_equal(codes[s], net_forward(net, x).caches["enc3"].output)


def test_encode_matches_forward_code():
    rng = np.random.default_rng(103)
    net = build_rcodean(10, 6, seed=5)
    x = rng.uniform(size=(10, 2))
    assert np.array_equal(encode(net, Mat(x)), net_forward(net, x).caches["enc3"].output)


def test_assemble_from_named_parameters_rebuilds_the_net():
    rng = np.random.default_rng(104)
    net = build_rcodean(10, 6, seed=5)
    again = assemble_rcodean(dict(net.parameters()), DEFAULT_SKIP_LAYOUT)
    assert again.skips == net.skips
    assert list(again.layers) == list(net.layers)
    assert [name for name, _ in again.parameters()] == \
        [name for name, _ in net.parameters()]
    for (_, a), (_, b) in zip(net.parameters(), again.parameters()):
        assert np.array_equal(a, b)
    x = rng.uniform(size=(10, 3))
    assert np.array_equal(net_forward(net, x).reconstruction,
                          net_forward(again, x).reconstruction)


def test_input_dimension_check():
    net = build_rcodean(6, 4, seed=6)
    with pytest.raises(ShapeError):
        net_forward(net, np.zeros((5, 1)))
    with pytest.raises(ShapeError):
        encode(net, Mat(np.zeros((7, 1))))


def test_loss_perfect_reconstruction():
    net = build_rcodean(4, 3, seed=7)
    for lid in ("enc1", "enc2", "enc3"):
        net.layers[lid].weight[:] = 0.0
    x = _column([0.2, 0.5, 0.1, 0.9])
    loss = codean_loss(net, x, x, CodeanParams(alpha=1.0, beta=1.0, lam=0.0))
    assert loss.euc == 0.0
    assert loss.cos == pytest.approx(-1.0, abs=1e-15)
    assert loss.total == pytest.approx(-1.0, abs=1e-15)
    assert not loss.degenerate


def test_loss_pure_scaling_gives_cosine_minus_one():
    net = build_rcodean(4, 3, seed=8)
    x = _column([0.3, 0.8, 0.2, 0.6])
    loss = codean_loss(net, x, 2.0 * x, CodeanParams(alpha=0.0, beta=1.0, lam=0.0))
    assert loss.cos == pytest.approx(-1.0, abs=1e-12)
    assert loss.euc > 0.0  # magnitude error remains visible to the other term


def test_loss_orthogonal_vectors():
    net = build_rcodean(2, 2, seed=9)
    x = _column([1.0, 0.0])
    r = _column([0.0, 1.0])
    loss = codean_loss(net, x, r, CodeanParams(alpha=1.0, beta=1.0, lam=0.01))
    assert loss.cos == 0.0
    assert loss.euc == pytest.approx(2.0)
    assert loss.total == pytest.approx(1.0 * 2.0 + 0.01 * loss.reg)


def test_loss_cosine_scale_invariance():
    rng = np.random.default_rng(107)
    net = build_rcodean(9, 5, seed=10)
    params = CodeanParams(alpha=0.0, beta=1.0, lam=0.0)
    x = rng.uniform(0.1, 1.0, size=(9, 1))
    r = rng.uniform(0.1, 1.0, size=(9, 1))
    base = codean_loss(net, x, r, params).cos
    for c, cp in [(0.5, 3.0), (2.0, 0.25), (7.0, 7.0)]:
        scaled = codean_loss(net, c * x, cp * r, params).cos
        assert abs(scaled - base) < 1e-10


def test_loss_euclidean_not_scale_invariant():
    net = build_rcodean(3, 2, seed=11)
    x = _column([0.5, 0.4, 0.3])
    loss = codean_loss(net, x, 2.0 * x, DEFAULT_WEIGHTS)
    assert loss.euc == pytest.approx(0.25 + 0.16 + 0.09)


def test_loss_degenerate_reconstruction_skips_cosine():
    net = build_rcodean(3, 2, seed=12)
    x = _column([0.5, 0.4, 0.3])
    loss = codean_loss(net, x, np.zeros((3, 1)), CodeanParams(alpha=1.0, beta=1.0, lam=0.0))
    assert loss.degenerate
    assert loss.cos == 0.0
    assert loss.total == pytest.approx(loss.euc)


def test_loss_requires_matching_shapes():
    net = build_rcodean(3, 2, seed=13)
    with pytest.raises(ShapeError):
        codean_loss(net, np.zeros((3, 1)), np.zeros((3, 2)), DEFAULT_WEIGHTS)


def test_params_validation():
    with pytest.raises(TypeError):
        CodeanParams()  # the defaults are PipelineConfig's alone
    with pytest.raises(ConfigError):
        CodeanParams(alpha=0.0, beta=0.0, lam=0.01)
    with pytest.raises(ConfigError):
        CodeanParams(alpha=-1.0, beta=1.0, lam=0.0)


def test_backward_mse_mode_matches_plain_autoencoder_oracle():
    rng = np.random.default_rng(109)
    net = build_rcodean(8, 5, seed=14, skip_layout=())
    plain = PlainMseAutoencoder(
        [net.layers[lid].weight for lid in
         ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")],
        [net.layers[lid].bias for lid in
         ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")])
    for _ in range(10):
        x = rng.uniform(size=(8, 1))
        loss, grads = loss_and_grads(net, x, CodeanParams(alpha=1.0, beta=0.0, lam=0.0))
        ref_loss, gws, gbs = plain.loss_and_grads(x)
        assert abs(loss.total - ref_loss) < 1e-10
        for i, lid in enumerate(("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")):
            assert np.abs(grads[f"{lid}.weight"] - gws[i]).max() < 1e-10
            assert np.abs(grads[f"{lid}.bias"] - gbs[i]).max() < 1e-10


def test_backward_perfect_reconstruction_zero_euclidean_gradient():
    # build a net that reproduces its input exactly on nonnegative data:
    # identity weights and identity skips are not needed, just force the
    # reconstruction to equal x by zeroing everything and feeding zero
    net = build_rcodean(4, 4, seed=15, skip_layout=())
    params = CodeanParams(alpha=1.0, beta=0.0, lam=0.0)
    x = np.zeros((4, 1))
    for name, arr in net.parameters():
        arr[:] = 0.0
    out = net_forward(net, x)
    assert np.array_equal(out.reconstruction, x)
    loss = codean_loss(net, x, out.reconstruction, params)
    assert np.count_nonzero(loss.recon_grad) == 0
    grads = net_backward(net, x, out.caches, loss.recon_grad, params.lam)
    assert all(np.count_nonzero(g) == 0 for g in grads.values())


def test_batch_gradient_is_mean_of_column_gradients():
    # the fused loss gradient on a batch whose second column is all zero
    # (a degenerate cosine column) against one column at a time
    rng = np.random.default_rng(17)
    net = build_rcodean(12, 8, seed=17)
    params = CodeanParams(alpha=1.0, beta=0.7, lam=0.01)
    for lid in ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3"):
        net.layers[lid].bias[:] = rng.uniform(0.05, 0.2, size=net.layers[lid].bias.shape)
    x = rng.uniform(0.05, 1.0, size=(12, 5))
    x[:, 1] = 0.0
    loss, grads = loss_and_grads(net, x, params)
    assert loss.degenerate
    columns = [loss_and_grads(net, x[:, j:j + 1], params)[1] for j in range(5)]
    for name, g in grads.items():
        mean = sum(col[name] for col in columns) / 5
        assert np.abs(g - mean).max() < 1e-12, name


def test_gradient_check_full_default_skips():
    report = gradient_check(seed=0, trials=4, d=12, l=8,
                            params=CodeanParams(alpha=1.0, beta=0.5, lam=0.01))
    assert report.passed, report.worst()
    names = {g.name for g in report.groups}
    assert "skip.enc1->dec3.projection" in names
    assert "enc1.weight" in names


def test_gradient_check_catches_corrupted_backward(monkeypatch):
    # the analytic side alone drops the cosine term; the finite
    # differences still see it
    monkeypatch.setattr(rcodean.network, "loss_and_grads", lambda net, x, params: loss_and_grads(
        net, x, dataclasses.replace(params, beta=0.0)))
    report = gradient_check(seed=0, trials=1)
    assert not report.passed


def test_gradient_check_rejects_zero_trials():
    with pytest.raises(ValueError):
        gradient_check(trials=0)


def test_loss_decreases_under_adam_for_most_seeds():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = build_rcodean(10, 6, seed=seed)
        x = rng.uniform(size=(10, 8))
        state = AdamState(lr=1e-3)
        first = loss_and_grads(net, x, DEFAULT_WEIGHTS)[0].total
        for _ in range(50):
            _, grads = loss_and_grads(net, x, DEFAULT_WEIGHTS)
            adam_step(state, net.parameters(), grads)
        last = loss_and_grads(net, x, DEFAULT_WEIGHTS)[0].total
        if last < first:
            wins += 1
    assert wins >= 19  # 95% of 20 seeds


def test_trained_codes_are_brightness_tolerant():
    # after training with the cosine term on, codes of brightness-scaled
    # copies should stay closer than codes of unrelated samples
    rng = np.random.default_rng(113)
    d, n = 64, 200
    base = rng.uniform(0.1, 0.9, size=(d, n))
    net = build_rcodean(d, 16, seed=16)
    params = CodeanParams(alpha=1.0, beta=1.0, lam=0.001)
    state = AdamState(lr=1e-3)
    for _ in range(150):
        _, grads = loss_and_grads(net, base, params)
        adam_step(state, net.parameters(), grads)

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))

    scaled_sims, cross_sims = [], []
    for i in range(100):
        x = base[:, i]
        c = float(rng.uniform(0.6, 1.4))
        code_x = encode(net, Mat(_column(x))).ravel()
        code_s = encode(net, Mat(_column(np.clip(c * x, 0.0, 1.0)))).ravel()
        j = (i + 7) % n
        code_o = encode(net, Mat(_column(base[:, j]))).ravel()
        scaled_sims.append(cos(code_x, code_s))
        cross_sims.append(cos(code_x, code_o))
    assert np.mean(scaled_sims) > np.mean(cross_sims)
