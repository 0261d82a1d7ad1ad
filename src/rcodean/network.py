"""Residual autoencoder with a combined cosine + Euclidean objective.

The network is a fixed six-layer stack (three encoder, three decoder
layers) threaded with shortcut connections. A shortcut takes the output
of an earlier layer and adds it, optionally through a learned projection,
to the pre-activation of a later layer. Cross shortcuts stay within one
half of the stack or bridge into the next; symmetric shortcuts pair
encoder layer i with its mirror decoder layer.

``RCodeanNet`` is the one autoencoder type. Training builds all six
layers with ``build_rcodean``; a trained model keeps an ``RCodeanNet`` of
the three encoder layers only, one net's or several nets' stacked, which
``assemble_rcodean`` builds from the stored arrays. Both run the same
forward code, through the shortcuts that end at the layers they hold.
A net holds arrays only: the loss weights are the training loss's, and
``codean_loss``, ``net_backward`` and ``loss_and_grads`` take them from
their caller.

The training objective for input x with reconstruction r is

    total = alpha * ||x - r||^2
          - beta  * (x . r) / (||x|| * ||r||)
          + lambda * sum_i ||W_enc_i||_1

The cosine term uses true (unsquared) L2 norms, so it is the cosine of
the angle between input and reconstruction and is invariant to positive
rescaling of either vector; the Euclidean term is not. Everything here
supports column-batched inputs: the two data terms are means over the
sample columns, the regularizer is per-network. A ``Mat`` is a checked
value entering the program or a scoring pass, such as ``encode``'s
input; this module builds none, and everything it computes and returns
is a plain float64 ndarray.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import DenseLayer, LayerCache, dense_forward, dense_backward, glorot_uniform
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
class CodeanParams:
    """Loss term weights: alpha scales the Euclidean term, beta the cosine
    term, lam the L1 penalty on encoder weights. A run's come from its
    ``PipelineConfig``, which holds their defaults."""
    alpha: float
    beta: float
    lam: float

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
    # d(total)/d(reconstruction), the input to ``net_backward``
    recon_grad: np.ndarray = field(compare=False, repr=False)
    degenerate: bool = False  # a near-zero-norm column had its cosine term skipped


@dataclass
class RCodeanNet:
    """The autoencoder: its layers by id, all six while training and the
    three encoder layers in a stored encoder; its shortcuts as (src, dst,
    kind) triples, ``DEFAULT_SKIP_LAYOUT`` or none; the projections of the
    shortcuts that bridge two widths, by ``"src->dst"``. A stored
    encoder's layers are one net's (out, in) arrays, or same-shaped nets'
    arrays stacked as (nets, out, in), run through the nets' own forward
    code, slice s as net s. ``incoming`` maps each layer id to the
    shortcuts that end at it, in ``skips`` order; it is derived once
    here, so replace ``skips`` by building a new net."""
    layers: dict[str, DenseLayer]
    skips: tuple[tuple[str, str, str], ...]
    projections: dict[str, np.ndarray] = field(default_factory=dict)
    incoming: dict[str, list[tuple[str, str, str]]] = field(init=False, repr=False,
                                                           compare=False)

    def __post_init__(self):
        self.incoming = {lid: [(src, dst, kind) for src, dst, kind in self.skips if dst == lid]
                         for lid in self.layers}

    @property
    def input_dim(self) -> int:
        return self.layers["enc1"].in_dim

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named references to every trainable array, in a fixed order."""
        out = []
        for lid, layer in self.layers.items():
            out.append((f"{lid}.weight", layer.weight))
            out.append((f"{lid}.bias", layer.bias))
        for name, projection in self.projections.items():
            out.append((f"skip.{name}.projection", projection))
        return out


def assemble_rcodean(arrays, skip_layout) -> RCodeanNet:
    """Build a net around the arrays named as ``RCodeanNet.parameters()``
    names them. The arrays are used as they are, not copied. The net has
    the three encoder layers, plus each decoder layer whose arrays are
    present; a shortcut gets a projection exactly when its array is."""
    layers = {lid: DenseLayer(arrays[f"{lid}.weight"], arrays[f"{lid}.bias"], LAYER_ACTS[lid],
                              name=lid)
              for lid in LAYER_ORDER if lid in ENCODER_IDS or f"{lid}.weight" in arrays}
    projections = {f"{src}->{dst}": arrays[f"skip.{src}->{dst}.projection"]
                   for src, dst, _ in skip_layout
                   if f"skip.{src}->{dst}.projection" in arrays}
    return RCodeanNet(layers, tuple(skip_layout), projections)


def parameter_shapes(d: int, l: int, encoder_only: bool = False) -> dict[str, tuple[int, int]]:
    """The name and shape of each layer's weight and bias in a net for
    d-dim inputs and l-dim codes, in ``RCodeanNet.parameters()`` order:
    all six layers', or with ``encoder_only`` the three that a stored
    encoder keeps, which no shortcut projection joins."""
    out_dims = dict.fromkeys(LAYER_ORDER, l) | {"dec3": d}
    in_dims = dict.fromkeys(LAYER_ORDER, l) | {"enc1": d}
    return {f"{lid}.{part}": (out_dims[lid], in_dims[lid] if part == "weight" else 1)
            for lid in (ENCODER_IDS if encoder_only else LAYER_ORDER)
            for part in ("weight", "bias")}


def build_rcodean(d: int, l: int, seed: int = 0,
                  skip_layout=DEFAULT_SKIP_LAYOUT) -> RCodeanNet:
    """Construct a randomly initialized network for d-dim inputs, l-dim code.

    Skip projections are created automatically wherever a shortcut bridges
    mismatched dimensions; they are trained with all other parameters.
    """
    rng = np.random.default_rng(seed)
    shapes = parameter_shapes(d, l)
    arrays = {name: glorot_uniform(rng, *shape) if name.endswith(".weight") else np.zeros(shape)
              for name, shape in shapes.items()}
    for src, dst, _ in skip_layout:
        src_dim, dst_dim = shapes[f"{src}.bias"][0], shapes[f"{dst}.bias"][0]
        if src_dim != dst_dim:
            arrays[f"skip.{src}->{dst}.projection"] = glorot_uniform(rng, dst_dim, src_dim)
    return assemble_rcodean(arrays, skip_layout)


@dataclass
class NetForward:
    reconstruction: np.ndarray
    caches: dict[str, LayerCache]


def _forward_caches(net: RCodeanNet, x: np.ndarray, last: str,
                    keep_preact: bool = True) -> dict[str, LayerCache]:
    """Run the stack from enc1 through layer ``last``; ``keep_preact`` as
    in ``dense_forward``."""
    if x.ndim < 2 or x.shape[-2] != net.input_dim:
        raise ShapeError(f"input shape {x.shape} does not have {net.input_dim} rows")
    caches: dict[str, LayerCache] = {}
    current = x
    for lid in LAYER_ORDER[:LAYER_ORDER.index(last) + 1]:
        skip_in = None
        for src, dst, _ in net.incoming[lid]:
            src_out = caches[src].output
            projection = net.projections.get(f"{src}->{dst}")
            contrib = src_out if projection is None else projection @ src_out
            # dense_forward only reads skip_in, so a lone contribution is
            # passed as it is, even where it is another layer's output
            skip_in = contrib if skip_in is None else skip_in + contrib
        cache = dense_forward(net.layers[lid], current, skip_in, keep_preact)
        caches[lid] = cache
        current = cache.output
    return caches


def net_forward(net: RCodeanNet, x: np.ndarray) -> NetForward:
    """Run the full stack; x columns are samples of normalized pixels."""
    caches = _forward_caches(net, x, "dec3")
    return NetForward(reconstruction=caches["dec3"].output, caches=caches)


def encode(net: RCodeanNet, x: Mat) -> np.ndarray:
    """Learned representation: the third encoder layer's output, including
    any incoming shortcut contributions; ``net`` is a whole net or a 2-D
    stored encoder, and ``x`` a checked (d, n) input."""
    return stacked_encode(net, x.a)


def stacked_encode(encoders: RCodeanNet, x: np.ndarray) -> np.ndarray:
    """Codes of a (d, n) input through one net's encoder, or of an
    (nets, d, n) input stack through a stacked encoder, slice s through
    net s's encoder, relus applied in place: the one scoring forward."""
    return _forward_caches(encoders, x, "enc3", keep_preact=False)["enc3"].output


def _encoder_l1(net: RCodeanNet) -> float:
    return float(sum(np.sum(np.abs(net.layers[lid].weight)) for lid in ENCODER_IDS))


def codean_loss(net: RCodeanNet, x: np.ndarray, reconstruction: np.ndarray,
                params: CodeanParams) -> CodeanLoss:
    """Loss terms for a batch under the weights ``params`` and their
    gradient with respect to the reconstruction; euc and cos are means
    over sample columns.

    Columns whose input or reconstruction norm is below 1e-12 have their
    cosine term skipped (contributing 0 to the loss and its gradient) and
    set the degenerate flag, so a collapsed reconstruction cannot blow up
    the loss. One pass over the batch gives four column sums, and the loss
    and the gradient (``CodeanLoss.recon_grad``) both come from them:

        d total / d r = diff * 2 alpha / n + r * c_r - x * c_x

    with diff = r - x, c_r = beta cos / (n |r|^2) and
    c_x = beta / (n |x| |r|) per column, both 0 on degenerate columns.
    """
    if x.shape != reconstruction.shape:
        raise ShapeError(f"input {x.shape} and reconstruction {reconstruction.shape} differ")
    r = reconstruction
    n = x.shape[1]
    diff = r - x
    euc_cols = np.einsum("ij,ij->j", diff, diff)
    xx = np.einsum("ij,ij->j", x, x)
    rr = np.einsum("ij,ij->j", r, r)
    xr = np.einsum("ij,ij->j", x, r)
    x_norm, r_norm = np.sqrt(xx), np.sqrt(rr)
    ok = (x_norm > NORM_EPS) & (r_norm > NORM_EPS)
    # degenerate columns divide by 1 here and are zeroed below
    norms = np.where(ok, x_norm * r_norm, 1.0)
    cos_sim = xr / norms
    cos_cols = np.where(ok, -cos_sim, 0.0)
    scale = params.beta / n
    c_x = np.where(ok, scale / norms, 0.0)
    c_r = np.where(ok, scale * cos_sim / np.where(ok, rr, 1.0), 0.0)
    # the gradient is built in diff's buffer
    grad = diff
    grad *= 2.0 * params.alpha / n
    scratch = np.multiply(r, c_r)
    grad += scratch
    grad -= np.multiply(x, c_x, out=scratch)
    euc = float(np.mean(euc_cols))
    cos = float(np.mean(cos_cols))
    reg = _encoder_l1(net)
    total = params.alpha * euc + params.beta * cos + params.lam * reg
    return CodeanLoss(total=total, euc=euc, cos=cos, reg=reg, recon_grad=grad,
                      degenerate=bool((~ok).any()))


def net_backward(net: RCodeanNet, x: np.ndarray, caches: dict[str, LayerCache],
                 recon_grad: np.ndarray, lam: float) -> dict[str, np.ndarray]:
    """Gradient of the total loss for every weight, bias, and projection,
    given d(total)/d(reconstruction) (``CodeanLoss.recon_grad``).

    Skip sources accumulate gradient from the main path and from each
    outgoing shortcut; the L1 penalty contributes lam * sign(W) on the
    encoder weights, with sign(0) taken as 0.
    """
    recon = caches["dec3"].output
    if x.shape != recon.shape:
        raise ShapeError(f"stale caches: input {x.shape} vs reconstruction {recon.shape}")
    if recon_grad.shape != recon.shape:
        raise ShapeError(f"reconstruction gradient {recon_grad.shape} vs "
                         f"reconstruction {recon.shape}")
    grads: dict[str, np.ndarray] = {}
    # gradient w.r.t. each layer's output, accumulated as we sweep backwards;
    # sources always precede destinations, so by the time a layer is processed
    # every shortcut leaving it has already deposited its contribution
    out_grad: dict[str, np.ndarray | None] = {lid: None for lid in LAYER_ORDER}
    out_grad["dec3"] = recon_grad

    for pos in range(len(LAYER_ORDER) - 1, -1, -1):
        lid = LAYER_ORDER[pos]
        # delta is the gradient at this layer's pre-activation, which is
        # exactly what each incoming shortcut contributed to; the chain
        # feeds every layer's output gradient before its turn. Nothing
        # reads enc1's input gradient, so it is not computed.
        grad_in, grads[f"{lid}.weight"], grads[f"{lid}.bias"], delta = dense_backward(
            net.layers[lid], caches[lid], out_grad[lid], input_grad=pos > 0)
        for src, dst, _ in net.incoming[lid]:
            projection = net.projections.get(f"{src}->{dst}")
            if projection is not None:
                grads[f"skip.{src}->{dst}.projection"] = delta @ caches[src].output.T
                extra = projection.T @ delta
            else:
                extra = delta
            if out_grad[src] is None:
                out_grad[src] = extra.copy()
            else:
                out_grad[src] += extra
        if pos > 0:
            prev = LAYER_ORDER[pos - 1]
            if out_grad[prev] is None:
                out_grad[prev] = grad_in  # a fresh product, owned here
            else:
                out_grad[prev] += grad_in

    # L1 penalty on encoder weights
    if lam != 0.0:
        for lid in ENCODER_IDS:
            penalty = np.sign(net.layers[lid].weight)
            penalty *= lam
            grads[f"{lid}.weight"] += penalty
    return grads


def loss_and_grads(net: RCodeanNet, x: np.ndarray,
                   params: CodeanParams) -> tuple[CodeanLoss, dict[str, np.ndarray]]:
    """Forward pass, loss terms under ``params``, and full parameter
    gradient in one call."""
    fwd = net_forward(net, x)
    loss = codean_loss(net, x, fwd.reconstruction, params)
    return loss, net_backward(net, x, fwd.caches, loss.recon_grad, params.lam)


@dataclass
class GradCheckGroup:
    name: str
    worst_rel: float
    passed: bool


@dataclass
class GradCheckReport:
    groups: list[GradCheckGroup]
    trials: int
    passed: bool

    def worst(self) -> GradCheckGroup:
        return max(self.groups, key=lambda g: g.worst_rel)


def _total_loss(net: RCodeanNet, x: np.ndarray, params: CodeanParams) -> float:
    return codean_loss(net, x, net_forward(net, x).reconstruction, params).total


def _draw_checkable_net(rng: np.random.Generator, d: int, l: int) -> tuple[RCodeanNet, np.ndarray]:
    """Rejection-sample a net and input away from non-smooth points.

    Central differences are meaningless where a relu pre-activation sits
    at a kink or an encoder weight sits at the L1 crease, so draws with
    any |z| < 1e-3 or encoder |w| < 1e-4 are discarded.
    """
    while True:
        net = build_rcodean(d, l, seed=int(rng.integers(2**31)))
        x = rng.uniform(0.05, 1.0, size=(d, 1))
        fwd = net_forward(net, x)
        near_kink = any(
            net.layers[lid].act == "relu"
            and np.abs(fwd.caches[lid].pre_activation).min() < 1e-3
            for lid in LAYER_ORDER
        )
        near_crease = any(
            np.abs(net.layers[lid].weight).min() < 1e-4 for lid in ENCODER_IDS
        )
        r_norm = float(np.linalg.norm(fwd.reconstruction))
        if not near_kink and not near_crease and r_norm > 1e-6:
            return net, x


def gradient_check(seed: int = 0, trials: int = 20, d: int = 12, l: int = 8,
                   params: CodeanParams | None = None, h: float = 1e-6,
                   abs_tol: float = 1e-6, rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Each parameter entry passes when |analytic - numeric| is within
    max(abs_tol, rel_tol * max(|analytic|, |numeric|)).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if params is None:
        params = CodeanParams(alpha=1.0, beta=0.5, lam=0.01)
    rng = np.random.default_rng(seed)
    stats: dict[str, GradCheckGroup] = {}
    for _ in range(trials):
        net, x = _draw_checkable_net(rng, d, l)
        analytic = loss_and_grads(net, x, params)[1]
        for name, arr in net.parameters():
            flat = arr.reshape(-1)
            g = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = _total_loss(net, x, params)
                flat[i] = orig - h
                down = _total_loss(net, x, params)
                flat[i] = orig
                num = (up - down) / (2.0 * h)
                diff = abs(g[i] - num)
                scale = max(abs(g[i]), abs(num))
                rel = diff / max(scale, abs_tol)
                group = stats.get(name)
                if group is None:
                    group = GradCheckGroup(name, 0.0, True)
                    stats[name] = group
                group.worst_rel = max(group.worst_rel, rel)
                if diff > max(abs_tol, rel_tol * scale):
                    group.passed = False
    groups = sorted(stats.values(), key=lambda grp: grp.name)
    return GradCheckReport(groups=groups, trials=trials,
                           passed=all(grp.passed for grp in groups))
