"""Residual autoencoder with a combined cosine + Euclidean objective.

The network is a fixed six-layer stack (three encoder, three decoder
layers) threaded with shortcut connections. A shortcut takes the output
of an earlier layer and adds it, optionally through a learned projection,
to the pre-activation of a later layer. Cross shortcuts stay within one
half of the stack or bridge into the next; symmetric shortcuts pair
encoder layer i with its mirror decoder layer.

The training objective for input x with reconstruction r is

    total = alpha * ||x - r||^2
          - beta  * (x . r) / (||x|| * ||r||)
          + lambda * sum_i ||W_enc_i||_1

The cosine term uses true (unsquared) L2 norms, so it is the cosine of
the angle between input and reconstruction and is invariant to positive
rescaling of either vector; the Euclidean term is not. Everything here
supports column-batched inputs: the two data terms are means over the
sample columns, the regularizer is per-network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import (DenseLayer, LayerCache, dense_forward, dense_backward,
                     glorot_uniform)
from .tensor import Mat

LAYER_ORDER = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")
ENCODER_IDS = LAYER_ORDER[:3]
# hidden layers are relu; the reconstruction is linear so it can span the
# pixel range unsaturated
LAYER_ACTS = {lid: "relu" for lid in LAYER_ORDER} | {"dec3": "linear"}

# (src, dst, kind) triples: three cross shortcuts between alternate layers
# and three symmetric encoder/decoder pairs.
DEFAULT_SKIP_LAYOUT = (
    ("enc1", "enc3", "cross"),
    ("enc2", "dec1", "cross"),
    ("enc3", "dec2", "cross"),
    ("enc1", "dec3", "symmetric"),
    ("enc2", "dec2", "symmetric"),
    ("enc3", "dec1", "symmetric"),
)

NORM_EPS = 1e-12  # below this vector norm the cosine term is skipped


@dataclass
class SkipSpec:
    src: str
    dst: str
    kind: str  # "cross" or "symmetric"
    projection: Mat | None = None

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    def __post_init__(self):
        if self.src not in LAYER_ORDER or self.dst not in LAYER_ORDER:
            raise ConfigError(f"skip {self.name}: unknown layer id")
        if LAYER_ORDER.index(self.src) >= LAYER_ORDER.index(self.dst):
            raise ConfigError(f"skip {self.name}: source must precede destination")
        if self.kind not in ("cross", "symmetric"):
            raise ConfigError(f"skip {self.name}: kind must be cross or symmetric")


@dataclass
class CodeanParams:
    """Loss term weights: alpha scales the Euclidean term, beta the cosine
    term, lam the L1 penalty on encoder weights."""
    alpha: float = 1.0
    beta: float = 1.0
    lam: float = 0.01

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.lam < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.alpha + self.beta <= 0:
            raise ConfigError("at least one of alpha, beta must be positive")


@dataclass
class CodeanLoss:
    total: float
    euc: float
    cos: float
    reg: float
    degenerate: bool = False  # a near-zero-norm column had its cosine term skipped


@dataclass
class RCodeanNet:
    """The six layers and their shortcuts. ``incoming`` maps each layer id
    to the shortcuts that end at it, in ``skips`` order; it is derived once
    here, so replace ``skips`` by building a new net."""
    encoder: list[DenseLayer]
    decoder: list[DenseLayer]
    skips: list[SkipSpec]
    params: CodeanParams = field(default_factory=CodeanParams)
    incoming: dict[str, list[SkipSpec]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.encoder) != 3 or len(self.decoder) != 3:
            raise ConfigError("network requires exactly 3 encoder and 3 decoder layers")
        l = self.encoder[0].out_dim
        hidden = [self.encoder[1], self.encoder[2], self.decoder[0], self.decoder[1]]
        if any(layer.out_dim != l for layer in hidden):
            raise ConfigError("hidden layers must share one dimension")
        if self.decoder[2].out_dim != self.encoder[0].in_dim:
            raise ConfigError("decoder output dimension must equal input dimension")
        for spec in self.skips:
            src_dim = self.layer(spec.src).out_dim
            dst_dim = self.layer(spec.dst).out_dim
            if src_dim == dst_dim:
                if spec.projection is not None:
                    raise ConfigError(
                        f"skip {spec.name}: projection present but dimensions match"
                    )
            else:
                if spec.projection is None:
                    raise ConfigError(
                        f"skip {spec.name}: dimensions {src_dim}->{dst_dim} require a projection"
                    )
                if spec.projection.shape != (dst_dim, src_dim):
                    raise ConfigError(
                        f"skip {spec.name}: projection shape {spec.projection.shape} "
                        f"should be ({dst_dim}, {src_dim})"
                    )
        self.incoming = {lid: [spec for spec in self.skips if spec.dst == lid]
                         for lid in LAYER_ORDER}

    @property
    def input_dim(self) -> int:
        return self.encoder[0].in_dim

    @property
    def code_dim(self) -> int:
        return self.encoder[2].out_dim

    def layer(self, layer_id: str) -> DenseLayer:
        idx = LAYER_ORDER.index(layer_id)
        return self.encoder[idx] if idx < 3 else self.decoder[idx - 3]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named references to every trainable array, in a fixed order."""
        out = []
        for lid in LAYER_ORDER:
            layer = self.layer(lid)
            out.append((f"{lid}.weight", layer.weight.a))
            out.append((f"{lid}.bias", layer.bias.a))
        for spec in self.skips:
            if spec.projection is not None:
                out.append((f"skip.{spec.name}.projection", spec.projection.a))
        return out


def assemble_rcodean(arrays, skip_layout, params: CodeanParams) -> RCodeanNet:
    """Build a net around the arrays named as ``RCodeanNet.parameters()``
    names them. The arrays are used as they are, not copied; a shortcut
    gets a projection exactly when its array is present."""
    layers = [DenseLayer(Mat(arrays[f"{lid}.weight"], copy=False),
                         Mat(arrays[f"{lid}.bias"], copy=False), LAYER_ACTS[lid], name=lid)
              for lid in LAYER_ORDER]
    skips = []
    for src, dst, kind in skip_layout:
        proj = arrays.get(f"skip.{src}->{dst}.projection")
        skips.append(SkipSpec(src, dst, kind,
                              None if proj is None else Mat(proj, copy=False)))
    return RCodeanNet(encoder=layers[:3], decoder=layers[3:], skips=skips, params=params)


def build_rcodean(d: int, l: int, params: CodeanParams | None = None,
                  seed: int = 0,
                  skip_layout=DEFAULT_SKIP_LAYOUT) -> RCodeanNet:
    """Construct a randomly initialized network for d-dim inputs, l-dim code.

    Skip projections are created automatically wherever a shortcut bridges
    mismatched dimensions; they are trained with all other parameters.
    """
    rng = np.random.default_rng(seed)
    out_dims = {lid: l for lid in LAYER_ORDER} | {"dec3": d}
    in_dims = {lid: l for lid in LAYER_ORDER} | {"enc1": d}
    arrays = {}
    for lid in LAYER_ORDER:
        arrays[f"{lid}.weight"] = glorot_uniform(rng, out_dims[lid], in_dims[lid])
        arrays[f"{lid}.bias"] = np.zeros((out_dims[lid], 1))
    for src, dst, _ in skip_layout:
        if out_dims[src] != out_dims[dst]:
            arrays[f"skip.{src}->{dst}.projection"] = glorot_uniform(
                rng, out_dims[dst], out_dims[src])
    return assemble_rcodean(arrays, skip_layout, params or CodeanParams())


@dataclass
class NetForward:
    reconstruction: Mat
    code: Mat
    caches: dict[str, LayerCache]


def _skip_contribution(spec: SkipSpec, src_out: Mat,
                       dst_shape: tuple[int, int]) -> np.ndarray:
    if spec.projection is not None:
        contrib = spec.projection.a @ src_out.a
    else:
        contrib = src_out.a
    if contrib.shape != dst_shape:
        raise ConfigError(
            f"skip {spec.name}: contribution shape {contrib.shape} does not match "
            f"destination pre-activation {dst_shape}"
        )
    return contrib


def _forward_caches(net: RCodeanNet, x: Mat, last: str) -> dict[str, LayerCache]:
    """Run the stack from enc1 through layer ``last``."""
    if x.rows != net.input_dim:
        raise ShapeError(f"input has {x.rows} rows, expected {net.input_dim}")
    caches: dict[str, LayerCache] = {}
    current = x
    for lid in LAYER_ORDER[:LAYER_ORDER.index(last) + 1]:
        layer = net.layer(lid)
        skip_in = None
        if net.incoming[lid]:
            total = np.zeros((layer.out_dim, current.cols))
            for spec in net.incoming[lid]:
                total += _skip_contribution(spec, caches[spec.src].output,
                                            total.shape)
            skip_in = Mat(total, copy=False)
        cache = dense_forward(layer, current, skip_in)
        caches[lid] = cache
        current = cache.output
    return caches


def net_forward(net: RCodeanNet, x: Mat) -> NetForward:
    """Run the full stack; x columns are samples of normalized pixels."""
    caches = _forward_caches(net, x, "dec3")
    return NetForward(reconstruction=caches["dec3"].output,
                      code=caches["enc3"].output, caches=caches)


def encode(net: RCodeanNet, x: Mat) -> Mat:
    """Learned representation: the third encoder layer's output, including
    any incoming shortcut contributions."""
    return _forward_caches(net, x, "enc3")["enc3"].output


def _encoder_l1(net: RCodeanNet) -> float:
    return float(sum(np.sum(np.abs(net.layer(lid).weight.a)) for lid in ENCODER_IDS))


def codean_loss(net: RCodeanNet, x: Mat, reconstruction: Mat) -> CodeanLoss:
    """Loss terms for a batch; euc and cos are means over sample columns.

    Columns whose input or reconstruction norm is below 1e-12 have their
    cosine term skipped (contributing 0) and set the degenerate flag, so
    a collapsed reconstruction cannot blow up the loss.
    """
    if x.shape != reconstruction.shape:
        raise ShapeError(f"input {x.shape} and reconstruction {reconstruction.shape} differ")
    diff = x.a - reconstruction.a
    euc_cols = np.sum(diff * diff, axis=0)
    x_norm = np.sqrt(np.sum(x.a * x.a, axis=0))
    r_norm = np.sqrt(np.sum(reconstruction.a * reconstruction.a, axis=0))
    ok = (x_norm > NORM_EPS) & (r_norm > NORM_EPS)
    cos_cols = np.zeros_like(euc_cols)
    if ok.any():
        dots = np.sum(x.a[:, ok] * reconstruction.a[:, ok], axis=0)
        cos_cols[ok] = -dots / (x_norm[ok] * r_norm[ok])
    euc = float(np.mean(euc_cols))
    cos = float(np.mean(cos_cols))
    reg = _encoder_l1(net)
    p = net.params
    total = p.alpha * euc + p.beta * cos + p.lam * reg
    return CodeanLoss(total=total, euc=euc, cos=cos, reg=reg,
                      degenerate=bool((~ok).any()))


def _reconstruction_grad(net: RCodeanNet, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """d(total)/d(reconstruction) for the batched mean loss."""
    n = x.shape[1]
    p = net.params
    grad = p.alpha * 2.0 * (r - x) / n
    if p.beta != 0.0:
        x_norm = np.sqrt(np.sum(x * x, axis=0))
        r_norm = np.sqrt(np.sum(r * r, axis=0))
        ok = (x_norm > NORM_EPS) & (r_norm > NORM_EPS)
        if ok.any():
            xs, rs = x[:, ok], r[:, ok]
            xn, rn = x_norm[ok], r_norm[ok]
            s = np.sum(xs * rs, axis=0) / (xn * rn)
            # d(-s)/dr = -(x/(|x||r|) - s r/|r|^2)
            dcos = -(xs / (xn * rn) - s * rs / (rn * rn))
            grad[:, ok] += p.beta * dcos / n
    return grad


def net_backward(net: RCodeanNet, x: Mat, caches: dict[str, LayerCache]) -> dict[str, np.ndarray]:
    """Gradient of the total loss for every weight, bias, and projection.

    Skip sources accumulate gradient from the main path and from each
    outgoing shortcut; the L1 penalty contributes lam * sign(W) on the
    encoder weights, with sign(0) taken as 0.
    """
    recon = caches["dec3"].output
    if x.shape != recon.shape:
        raise ShapeError(f"stale caches: input {x.shape} vs reconstruction {recon.shape}")
    grads: dict[str, np.ndarray] = {}
    # gradient w.r.t. each layer's output, accumulated as we sweep backwards;
    # sources always precede destinations, so by the time a layer is processed
    # every shortcut leaving it has already deposited its contribution
    out_grad: dict[str, np.ndarray | None] = {lid: None for lid in LAYER_ORDER}
    out_grad["dec3"] = _reconstruction_grad(net, x.a, recon.a)

    for pos in range(len(LAYER_ORDER) - 1, -1, -1):
        lid = LAYER_ORDER[pos]
        layer = net.layer(lid)
        g_out = out_grad[lid]
        if g_out is None:  # defensive; the fixed chain topology always feeds every layer
            g_out = np.zeros_like(caches[lid].output.a)
        grad_in, grad_w, grad_b, grad_skip = dense_backward(
            layer, caches[lid], Mat(g_out, copy=False))
        grads[f"{lid}.weight"] = grad_w.a
        grads[f"{lid}.bias"] = grad_b.a
        # grad_skip is the gradient at this layer's pre-activation, which is
        # exactly what each incoming shortcut contributed to
        delta = grad_skip.a
        for spec in net.incoming[lid]:
            src_out = caches[spec.src].output.a
            if spec.projection is not None:
                grads[f"skip.{spec.name}.projection"] = delta @ src_out.T
                extra = spec.projection.a.T @ delta
            else:
                extra = delta
            if out_grad[spec.src] is None:
                out_grad[spec.src] = extra.copy()
            else:
                out_grad[spec.src] += extra
        if pos > 0:
            prev = LAYER_ORDER[pos - 1]
            if out_grad[prev] is None:
                out_grad[prev] = grad_in.a.copy()
            else:
                out_grad[prev] += grad_in.a

    # L1 penalty on encoder weights
    lam = net.params.lam
    if lam != 0.0:
        for lid in ENCODER_IDS:
            grads[f"{lid}.weight"] += lam * np.sign(net.layer(lid).weight.a)
    return grads


def loss_and_grads(net: RCodeanNet, x: Mat) -> tuple[CodeanLoss, dict[str, np.ndarray]]:
    """Forward pass, loss terms, and full parameter gradient in one call."""
    fwd = net_forward(net, x)
    loss = codean_loss(net, x, fwd.reconstruction)
    return loss, net_backward(net, x, fwd.caches)


@dataclass
class GradCheckGroup:
    name: str
    worst_rel: float
    worst_abs: float
    passed: bool


@dataclass
class GradCheckReport:
    groups: list[GradCheckGroup]
    trials: int
    passed: bool

    def worst(self) -> GradCheckGroup:
        return max(self.groups, key=lambda g: g.worst_rel)


def _total_loss(net: RCodeanNet, x: Mat) -> float:
    return codean_loss(net, x, net_forward(net, x).reconstruction).total


def _draw_checkable_net(rng: np.random.Generator, d: int, l: int,
                        params: CodeanParams) -> tuple[RCodeanNet, Mat]:
    """Rejection-sample a net and input away from non-smooth points.

    Central differences are meaningless where a relu pre-activation sits
    at a kink or an encoder weight sits at the L1 crease, so draws with
    any |z| < 1e-3 or encoder |w| < 1e-4 are discarded.
    """
    while True:
        net = build_rcodean(d, l, params, seed=int(rng.integers(2**31)))
        x = Mat(rng.uniform(0.05, 1.0, size=(d, 1)), copy=False)
        fwd = net_forward(net, x)
        near_kink = any(
            net.layer(lid).act == "relu"
            and np.abs(fwd.caches[lid].pre_activation.a).min() < 1e-3
            for lid in LAYER_ORDER
        )
        near_crease = any(
            np.abs(net.layer(lid).weight.a).min() < 1e-4 for lid in ENCODER_IDS
        )
        r_norm = float(np.linalg.norm(fwd.reconstruction.a))
        if not near_kink and not near_crease and r_norm > 1e-6:
            return net, x


def gradient_check(seed: int = 0, trials: int = 20, d: int = 12, l: int = 8,
                   params: CodeanParams | None = None, h: float = 1e-6,
                   abs_tol: float = 1e-6, rel_tol: float = 1e-4,
                   corrupt_cosine: bool = False) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Each parameter entry passes when |analytic - numeric| is within
    max(abs_tol, rel_tol * max(|analytic|, |numeric|)). ``corrupt_cosine``
    drops the cosine contribution from the analytic side only, a mutation
    hook proving the check can fail.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if params is None:
        params = CodeanParams(alpha=1.0, beta=0.5, lam=0.01)
    rng = np.random.default_rng(seed)
    stats: dict[str, GradCheckGroup] = {}
    for _ in range(trials):
        net, x = _draw_checkable_net(rng, d, l, params)
        if corrupt_cosine:
            saved = net.params
            net.params = CodeanParams(saved.alpha, 0.0, saved.lam)
            analytic = loss_and_grads(net, x)[1]
            net.params = saved
        else:
            analytic = loss_and_grads(net, x)[1]
        for name, arr in net.parameters():
            flat = arr.reshape(-1)
            g = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = _total_loss(net, x)
                flat[i] = orig - h
                down = _total_loss(net, x)
                flat[i] = orig
                num = (up - down) / (2.0 * h)
                diff = abs(g[i] - num)
                scale = max(abs(g[i]), abs(num))
                rel = diff / max(scale, abs_tol)
                group = stats.get(name)
                if group is None:
                    group = GradCheckGroup(name, 0.0, 0.0, True)
                    stats[name] = group
                group.worst_rel = max(group.worst_rel, rel)
                group.worst_abs = max(group.worst_abs, diff)
                if diff > max(abs_tol, rel_tol * scale):
                    group.passed = False
    groups = sorted(stats.values(), key=lambda grp: grp.name)
    return GradCheckReport(groups=groups, trials=trials,
                           passed=all(grp.passed for grp in groups))
