import numpy as np
import pytest

from oracles import PlainMseAutoencoder, straight_line_forward, _relu
from rcodean.errors import ConfigError, ShapeError
from rcodean.network import (DEFAULT_SKIP_LAYOUT, CodeanParams, RCodeanNet, SkipSpec,
                             assemble_rcodean, build_rcodean, codean_loss, encode,
                             gradient_check, loss_and_grads, net_backward,
                             net_forward)
from rcodean.optimizer import AdamState, adam_step
from rcodean.tensor import Mat


def test_forward_zero_parameters_give_zero_reconstruction():
    net = build_rcodean(6, 4, seed=1)
    for name, arr in net.parameters():
        arr[:] = 0.0
    for spec in net.skips:
        if spec.projection is not None:
            spec.projection.a[:] = 0.0
    out = net_forward(net, Mat(np.random.default_rng(0).uniform(size=(6, 1))))
    assert np.count_nonzero(out.reconstruction.a) == 0
    assert np.count_nonzero(out.code.a) == 0


def test_forward_without_skips_is_plain_stack():
    rng = np.random.default_rng(97)
    net = build_rcodean(7, 5, seed=2, skip_layout=())
    x = rng.uniform(size=(7, 1))
    out = net_forward(net, Mat(x))
    a = x
    for lid in ("enc1", "enc2", "enc3", "dec1", "dec2"):
        a = _relu(net.layer(lid).weight.a @ a + net.layer(lid).bias.a)
    a = net.layer("dec3").weight.a @ a + net.layer("dec3").bias.a
    assert np.allclose(out.reconstruction.a, a, rtol=1e-15, atol=0)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(101)
    for seed in range(5):
        net = build_rcodean(12, 8, seed=seed)
        x = rng.uniform(size=(12, 3))
        out = net_forward(net, Mat(x))
        recon, code = straight_line_forward(net, x)
        assert np.allclose(out.reconstruction.a, recon, rtol=1e-13, atol=0)
        assert np.allclose(out.code.a, code, rtol=1e-13, atol=0)


def test_default_skip_layout_and_projection():
    net = build_rcodean(12, 8, seed=3)
    names = {(s.src, s.dst, s.kind) for s in net.skips}
    assert names == {("enc1", "enc3", "cross"), ("enc2", "dec1", "cross"),
                     ("enc3", "dec2", "cross"), ("enc1", "dec3", "symmetric"),
                     ("enc2", "dec2", "symmetric"), ("enc3", "dec1", "symmetric")}
    with_proj = [s for s in net.skips if s.projection is not None]
    assert [s.name for s in with_proj] == ["enc1->dec3"]
    assert with_proj[0].projection.shape == (12, 8)


def test_skip_validation_errors():
    with pytest.raises(ConfigError, match="precede"):
        SkipSpec("dec1", "enc3", "cross")
    net = build_rcodean(6, 4, seed=4)
    bad = SkipSpec("enc1", "enc3", "cross", projection=Mat.zeros(4, 4))
    with pytest.raises(ConfigError, match="enc1->enc3"):
        RCodeanNet(net.encoder, net.decoder, [bad], net.params)


def test_encode_matches_forward_code():
    rng = np.random.default_rng(103)
    net = build_rcodean(10, 6, seed=5)
    x = Mat(rng.uniform(size=(10, 2)))
    assert np.array_equal(encode(net, x).a, net_forward(net, x).code.a)


def test_assemble_from_named_parameters_rebuilds_the_net():
    rng = np.random.default_rng(104)
    params = CodeanParams(alpha=0.5, beta=2.0, lam=0.1)
    net = build_rcodean(10, 6, params, seed=5)
    again = assemble_rcodean(dict(net.parameters()), DEFAULT_SKIP_LAYOUT, params)
    assert again.params == params
    assert [(s.src, s.dst, s.kind) for s in again.skips] == \
        [(s.src, s.dst, s.kind) for s in net.skips]
    assert [name for name, _ in again.parameters()] == \
        [name for name, _ in net.parameters()]
    for (_, a), (_, b) in zip(net.parameters(), again.parameters()):
        assert np.array_equal(a, b)
    x = Mat(rng.uniform(size=(10, 3)))
    assert np.array_equal(net_forward(net, x).reconstruction.a,
                          net_forward(again, x).reconstruction.a)


def test_input_dimension_check():
    net = build_rcodean(6, 4, seed=6)
    with pytest.raises(ShapeError):
        net_forward(net, Mat.zeros(5, 1))
    with pytest.raises(ShapeError):
        encode(net, Mat.zeros(7, 1))


def test_loss_perfect_reconstruction():
    net = build_rcodean(4, 3, CodeanParams(alpha=1.0, beta=1.0, lam=0.0), seed=7)
    for lid in ("enc1", "enc2", "enc3"):
        net.layer(lid).weight.a[:] = 0.0
    x = Mat.column([0.2, 0.5, 0.1, 0.9])
    loss = codean_loss(net, x, x)
    assert loss.euc == 0.0
    assert loss.cos == pytest.approx(-1.0, abs=1e-15)
    assert loss.total == pytest.approx(-1.0, abs=1e-15)
    assert not loss.degenerate


def test_loss_pure_scaling_gives_cosine_minus_one():
    net = build_rcodean(4, 3, CodeanParams(alpha=0.0, beta=1.0, lam=0.0), seed=8)
    x = Mat.column([0.3, 0.8, 0.2, 0.6])
    loss = codean_loss(net, x, Mat(2.0 * x.a))
    assert loss.cos == pytest.approx(-1.0, abs=1e-12)
    assert loss.euc > 0.0  # magnitude error remains visible to the other term


def test_loss_orthogonal_vectors():
    net = build_rcodean(2, 2, CodeanParams(alpha=1.0, beta=1.0, lam=0.01), seed=9)
    x = Mat.column([1.0, 0.0])
    r = Mat.column([0.0, 1.0])
    loss = codean_loss(net, x, r)
    assert loss.cos == 0.0
    assert loss.euc == pytest.approx(2.0)
    assert loss.total == pytest.approx(1.0 * 2.0 + 0.01 * loss.reg)


def test_loss_cosine_scale_invariance():
    rng = np.random.default_rng(107)
    net = build_rcodean(9, 5, CodeanParams(alpha=0.0, beta=1.0, lam=0.0), seed=10)
    x = Mat(rng.uniform(0.1, 1.0, size=(9, 1)))
    r = Mat(rng.uniform(0.1, 1.0, size=(9, 1)))
    base = codean_loss(net, x, r).cos
    for c, cp in [(0.5, 3.0), (2.0, 0.25), (7.0, 7.0)]:
        scaled = codean_loss(net, Mat(c * x.a), Mat(cp * r.a)).cos
        assert abs(scaled - base) < 1e-10


def test_loss_euclidean_not_scale_invariant():
    net = build_rcodean(3, 2, seed=11)
    x = Mat.column([0.5, 0.4, 0.3])
    loss = codean_loss(net, x, Mat(2.0 * x.a))
    assert loss.euc == pytest.approx(0.25 + 0.16 + 0.09)


def test_loss_degenerate_reconstruction_skips_cosine():
    net = build_rcodean(3, 2, CodeanParams(alpha=1.0, beta=1.0, lam=0.0), seed=12)
    x = Mat.column([0.5, 0.4, 0.3])
    loss = codean_loss(net, x, Mat.zeros(3, 1))
    assert loss.degenerate
    assert loss.cos == 0.0
    assert loss.total == pytest.approx(loss.euc)


def test_loss_requires_matching_shapes():
    net = build_rcodean(3, 2, seed=13)
    with pytest.raises(ShapeError):
        codean_loss(net, Mat.zeros(3, 1), Mat.zeros(3, 2))


def test_params_validation():
    with pytest.raises(ConfigError):
        CodeanParams(alpha=0.0, beta=0.0, lam=0.01)
    with pytest.raises(ConfigError):
        CodeanParams(alpha=-1.0, beta=1.0, lam=0.0)


def test_backward_mse_mode_matches_plain_autoencoder_oracle():
    rng = np.random.default_rng(109)
    net = build_rcodean(8, 5, CodeanParams(alpha=1.0, beta=0.0, lam=0.0),
                        seed=14, skip_layout=())
    plain = PlainMseAutoencoder(
        [net.layer(lid).weight.a for lid in
         ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")],
        [net.layer(lid).bias.a for lid in
         ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")])
    for _ in range(10):
        x = rng.uniform(size=(8, 1))
        loss, grads = loss_and_grads(net, Mat(x))
        ref_loss, gws, gbs = plain.loss_and_grads(x)
        assert abs(loss.total - ref_loss) < 1e-10
        for i, lid in enumerate(("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")):
            assert np.abs(grads[f"{lid}.weight"] - gws[i]).max() < 1e-10
            assert np.abs(grads[f"{lid}.bias"] - gbs[i]).max() < 1e-10


def test_backward_perfect_reconstruction_zero_euclidean_gradient():
    # build a net that reproduces its input exactly on nonnegative data:
    # identity weights and identity skips are not needed, just force the
    # reconstruction to equal x by zeroing everything and feeding zero
    net = build_rcodean(4, 4, CodeanParams(alpha=1.0, beta=0.0, lam=0.0),
                        seed=15, skip_layout=())
    x = Mat.zeros(4, 1)
    for name, arr in net.parameters():
        arr[:] = 0.0
    out = net_forward(net, x)
    assert np.array_equal(out.reconstruction.a, x.a)
    grads = net_backward(net, x, out.caches)
    assert all(np.count_nonzero(g) == 0 for g in grads.values())


def test_gradient_check_full_default_skips():
    report = gradient_check(seed=0, trials=4, d=12, l=8,
                            params=CodeanParams(alpha=1.0, beta=0.5, lam=0.01))
    assert report.passed, report.worst()
    names = {g.name for g in report.groups}
    assert "skip.enc1->dec3.projection" in names
    assert "enc1.weight" in names


def test_gradient_check_catches_corrupted_backward():
    report = gradient_check(seed=0, trials=1, corrupt_cosine=True)
    assert not report.passed


def test_gradient_check_rejects_zero_trials():
    with pytest.raises(ValueError):
        gradient_check(trials=0)


def test_loss_decreases_under_adam_for_most_seeds():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = build_rcodean(10, 6, seed=seed)
        x = Mat(rng.uniform(size=(10, 8)))
        state = AdamState(lr=1e-3)
        first = loss_and_grads(net, x)[0].total
        for _ in range(50):
            _, grads = loss_and_grads(net, x)
            adam_step(state, net.parameters(), grads)
        last = loss_and_grads(net, x)[0].total
        if last < first:
            wins += 1
    assert wins >= 19  # 95% of 20 seeds


def test_trained_codes_are_brightness_tolerant():
    # after training with the cosine term on, codes of brightness-scaled
    # copies should stay closer than codes of unrelated samples
    rng = np.random.default_rng(113)
    d, n = 64, 200
    base = rng.uniform(0.1, 0.9, size=(d, n))
    net = build_rcodean(d, 16, CodeanParams(alpha=1.0, beta=1.0, lam=0.001), seed=16)
    state = AdamState(lr=1e-3)
    for _ in range(150):
        _, grads = loss_and_grads(net, Mat(base))
        adam_step(state, net.parameters(), grads)

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))

    scaled_sims, cross_sims = [], []
    for i in range(100):
        x = base[:, i]
        c = float(rng.uniform(0.6, 1.4))
        code_x = encode(net, Mat.column(x)).a.ravel()
        code_s = encode(net, Mat.column(np.clip(c * x, 0.0, 1.0))).a.ravel()
        j = (i + 7) % n
        code_o = encode(net, Mat.column(base[:, j])).a.ravel()
        scaled_sims.append(cos(code_x, code_s))
        cross_sims.append(cos(code_x, code_o))
    assert np.mean(scaled_sims) > np.mean(cross_sims)
