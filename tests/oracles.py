"""Independent reference implementations used as test oracles.

Deliberately written against the documented math, not the package code:
plain arrays, explicit loops over the layer list, no shared helpers.
"""

import numpy as np


def _relu(z):
    return np.maximum(z, 0.0)


def straight_line_forward(net, x):
    """Layer-by-layer evaluation with explicit skip additions: six dense
    layers, relu on all but the last (linear), each shortcut adding
    (projection @ source_output) to the destination pre-activation."""
    order = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")
    W = {lid: net.layer(lid).weight for lid in order}
    b = {lid: net.layer(lid).bias for lid in order}
    proj = {s.name: (s.projection if s.projection is not None else None)
            for s in net.skips}
    by_dst = {}
    for s in net.skips:
        by_dst.setdefault(s.dst, []).append(s)

    outs = {}
    a = x
    for lid in order:
        z = W[lid] @ a + b[lid]
        for s in by_dst.get(lid, []):
            p = proj[s.name]
            z = z + (p @ outs[s.src] if p is not None else outs[s.src])
        a = z if lid == "dec3" else _relu(z)
        outs[lid] = a
    return outs["dec3"], outs["enc3"]


class PlainMseAutoencoder:
    """Minimal six-layer MSE autoencoder with manual backprop: relu hidden
    layers, linear output, loss = ||x - reconstruction||^2."""

    def __init__(self, weights, biases):
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]

    def forward(self, x):
        acts = [x]
        zs = []
        a = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = w @ a + b
            a = z if i == len(self.weights) - 1 else _relu(z)
            zs.append(z)
            acts.append(a)
        return acts, zs

    def loss_and_grads(self, x):
        acts, zs = self.forward(x)
        recon = acts[-1]
        diff = x - recon
        loss = float(np.sum(diff * diff))
        grad = 2.0 * (recon - x)
        gws, gbs = [], []
        for i in range(len(self.weights) - 1, -1, -1):
            delta = grad if i == len(self.weights) - 1 else grad * (zs[i] > 0)
            gws.append(delta @ acts[i].T)
            gbs.append(delta.sum(axis=1, keepdims=True))
            grad = self.weights[i].T @ delta
        return loss, gws[::-1], gbs[::-1]
