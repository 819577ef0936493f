"""A small trainable model around the grid attention ops.

Pre-norm residual blocks of multi-head attention only (no feed-forward), a
per-pixel linear embedding in front, mean pooling and a linear classifier on
top. Lower blocks run the grouped local attention, upper blocks the global
linearized form. Parameters live in one flat name -> array dict so the
finite-difference auditor and the optimizers can treat the model uniformly;
a layer's entries are its stacked arrays, every head in one.

Two synthetic image tasks exercise spatial locality: classifying the majority
color inside a noisy rectangular blob, and telling one 8-connected cluster of
points from the same number of points scattered across several clusters.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .attention import (MultiHeadConfig, MultiHeadParams, _check_finite, init_multi_head,
                        multi_head_forward)
from .featmap import FeatureMapKind, FeatureMapParams
from .grad import MultiHeadGradients, multi_head_vjp
from .vicinal import GridShape, PartitionKind, PartitionScheme
from .weights import (StickParams, WeightScheme, WeightSchemeKind, jsd_grid,
                      scheme_weights_grid)

LN_EPS = 1e-5


@dataclass(frozen=True)
class ToyModelConfig:
    height: int = 8
    width: int = 8
    in_dim: int = 1
    model_dim: int = 16
    num_heads: int = 2
    head_dim: int = 8
    num_layers: int = 2
    ripple_layers: int = 1          # this many lower blocks use grouped attention
    num_classes: int = 2
    r_max: int = 3
    tau: float = 0.05
    partition_kind: PartitionKind = PartitionKind.UNIT_RING
    scheme_kind: WeightSchemeKind = WeightSchemeKind.LEARNED_SBT
    epsilon: float = 1e-6

    def __post_init__(self):
        if not 0 <= self.ripple_layers <= self.num_layers:
            raise ValueError("ripple_layers must lie in [0, num_layers]")

    @property
    def partition(self) -> PartitionScheme:
        return PartitionScheme(kind=self.partition_kind, r_max=self.r_max, tau=self.tau)

    def block_attention(self, layer: int) -> str:
        return "ripple" if layer < self.ripple_layers else "linearized"

    def block_config(self, layer: int) -> MultiHeadConfig:
        return MultiHeadConfig(partition=self.partition, scheme_kind=self.scheme_kind,
                               epsilon=self.epsilon,
                               attention=self.block_attention(layer))


def init_model(config: ToyModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Flat parameter dict; stick parameters exist only where a block both
    runs the grouped attention and uses a learned weight scheme."""
    rng = np.random.Generator(np.random.PCG64(seed))
    m = config.model_dim
    params: dict[str, np.ndarray] = {
        "embed.w": rng.standard_normal((m, config.in_dim)) / np.sqrt(config.in_dim),
        "embed.b": np.zeros(m),
    }
    for l in range(config.num_layers):
        params[f"block{l}.ln.gamma"] = np.ones(m)
        params[f"block{l}.ln.beta"] = np.zeros(m)
        ripple = config.block_attention(l) == "ripple"
        layer = init_multi_head(rng, m, config.num_heads, config.head_dim, config.r_max,
                                config.scheme_kind if ripple else None)
        params.update(_layer_arrays(layer, l))
    params["head.w"] = rng.standard_normal((config.num_classes, m)) / np.sqrt(m)
    params["head.b"] = np.zeros(config.num_classes)
    return params


def _layer_arrays(layer: MultiHeadParams | MultiHeadGradients, index: int) -> dict:
    """Layer ``index``'s parameters or gradients, which share their field
    names, under their flat-dict keys."""
    pre = f"block{index}."
    arrays = {pre + "attn.w_qkv": layer.w_qkv, pre + "fm.w1": layer.featmap.w1,
              pre + "fm.w2": layer.featmap.w2, pre + "fm.b2": layer.featmap.b2}
    if layer.stick is not None:
        arrays[pre + "stick.emb"] = layer.stick.unit_embeddings
        arrays[pre + "stick.proj"] = layer.stick.value_projection
    arrays[pre + "attn.w_out"] = layer.w_out
    arrays[pre + "attn.b_out"] = layer.b_out
    return arrays


def _layer_params(params: dict, index: int) -> MultiHeadParams:
    """Layer ``index``'s stacked parameters, read from the flat dict."""
    pre = f"block{index}."
    stick = None
    if pre + "stick.emb" in params:
        stick = StickParams(params[pre + "stick.emb"], params[pre + "stick.proj"])
    return MultiHeadParams(
        w_qkv=params[pre + "attn.w_qkv"],
        featmap=FeatureMapParams(FeatureMapKind.DETERMINISTIC_ADAPTIVE, params[pre + "fm.w1"],
                                 params[pre + "fm.w2"], params[pre + "fm.b2"]),
        w_out=params[pre + "attn.w_out"], b_out=params[pre + "attn.b_out"], stick=stick)


# ---------- layer norm ----------

def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Normalize the trailing axis; returns (out, cache for the backward)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layer_norm_vjp(cache, upstream: np.ndarray):
    xhat, inv, gamma = cache
    g = upstream * gamma
    ggamma = (upstream * xhat).sum(axis=tuple(range(upstream.ndim - 1)))
    gbeta = upstream.sum(axis=tuple(range(upstream.ndim - 1)))
    gx = inv * (g - g.mean(axis=-1, keepdims=True)
                - xhat * (g * xhat).mean(axis=-1, keepdims=True))
    return gx, ggamma, gbeta


# ---------- losses ----------

def cross_entropy(logits: np.ndarray, label: int):
    """Stable softmax cross entropy for one sample; returns (loss, grad_logits)."""
    z = logits - logits.max()
    ez = np.exp(z)
    p = ez / ez.sum()
    loss = -float(np.log(p[label]))
    gz = p.copy()
    gz[label] -= 1.0
    return loss, gz


# ---------- forward / backward ----------

@dataclass
class ModelTape:
    img: np.ndarray
    ln_caches: list
    mh_tapes: list
    final: np.ndarray
    pooled: np.ndarray
    logits: np.ndarray


def model_forward(img: np.ndarray, params: dict, config: ToyModelConfig,
                  layers: list[MultiHeadParams] | None = None):
    """One image (H, W, in_dim) to class logits. Returns (logits, tape).
    ``layers`` holds each layer's parameters as ``_layer_params`` reads them
    from ``params``; pass it to read them once for many samples. The image
    and parameters are taken as finite, so a non-finite block input is
    reported as an overflow (FloatingPointError)."""
    if layers is None:
        layers = [_layer_params(params, l) for l in range(config.num_layers)]
    x = np.asarray(img, dtype=np.float64) @ params["embed.w"].T + params["embed.b"]
    ln_caches, mh_tapes = [], []
    for l in range(config.num_layers):
        normed, cache = layer_norm(x, params[f"block{l}.ln.gamma"],
                                   params[f"block{l}.ln.beta"])
        _check_finite({f"the input of block {l}": normed}, FloatingPointError, "overflowed")
        ln_caches.append(cache)
        attn, tape = multi_head_forward(normed, layers[l], config.block_config(l))
        mh_tapes.append(tape)
        x = x + attn
    pooled = x.mean(axis=(0, 1))
    logits = params["head.w"] @ pooled + params["head.b"]
    tape = ModelTape(img=np.asarray(img, dtype=np.float64),
                     ln_caches=ln_caches, mh_tapes=mh_tapes, final=x,
                     pooled=pooled, logits=logits)
    return logits, tape


def model_backward(tape: ModelTape, params: dict, config: ToyModelConfig,
                   grad_logits: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Add the gradients of a scalar loss wrt every entry of the parameter
    dict into ``grads``. Consumes the tape: each layer's multi-head record
    is dropped once its vjp has run."""
    grads["head.w"] += np.outer(grad_logits, tape.pooled)
    grads["head.b"] += grad_logits
    gpooled = params["head.w"].T @ grad_logits
    h, w = tape.final.shape[:2]
    gx = np.broadcast_to(gpooled / (h * w), tape.final.shape).copy()
    for l in reversed(range(config.num_layers)):
        mh = multi_head_vjp(tape.mh_tapes[l], gx)
        tape.mh_tapes[l] = None
        for name, g in _layer_arrays(mh, l).items():
            grads[name] += g
        gnorm, ggamma, gbeta = layer_norm_vjp(tape.ln_caches[l], mh.grad_x)
        grads[f"block{l}.ln.gamma"] += ggamma
        grads[f"block{l}.ln.beta"] += gbeta
        gx = gx + gnorm  # residual: d(x + attn(ln(x)))/dx
    grads["embed.w"] += np.einsum("hwm,hwc->mc", gx, tape.img)
    grads["embed.b"] += gx.sum(axis=(0, 1))


def loss_and_grads(imgs: np.ndarray, labels: np.ndarray, params: dict,
                   config: ToyModelConfig, reduction: str = "mean"):
    """Batched loss, gradients, and diagnostics.

    reduction "sum" makes the loss additive over samples (handy for gradient
    audits); "mean" divides loss and gradients by the batch size. Diagnostics:
    accuracy on the batch and the mean distance of the learned group weights
    from the fixed halving profile, averaged over grouped-attention heads and
    queries (exactly 0.0 when no block runs the grouped attention).
    Non-finite images or parameters raise ValueError; an overflow in the
    model's arithmetic raises FloatingPointError.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
    imgs = np.asarray(imgs, dtype=np.float64)
    _check_finite({"the image batch": imgs, **params})
    batch = imgs.shape[0]
    total = 0.0
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    correct = 0
    jsd_vals = []
    # the fixed-exponential profile reads only the grid shape and the
    # partition, so one reference serves every sample and head
    ref = scheme_weights_grid(WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
                              imgs[0], GridShape(*imgs.shape[1:3]),
                              config.partition).head_axis()
    layers = [_layer_params(params, l) for l in range(config.num_layers)]
    for b in range(batch):
        logits, tape = model_forward(imgs[b], params, config, layers)
        loss, gz = cross_entropy(logits, int(labels[b]))
        total += loss
        correct += int(np.argmax(logits) == labels[b])
        for l in range(config.ripple_layers):
            per_query = jsd_grid(tape.mh_tapes[l].attn.weights, ref)
            # one contiguous row per head, each averaged as a head's own grid
            jsd_vals.extend(np.moveaxis(per_query, -1, 0).reshape(config.num_heads, -1)
                            .mean(axis=1))
        model_backward(tape, params, config, gz, grads)
    if reduction == "mean":
        total /= batch
        for name in grads:
            grads[name] /= batch
    aux = {"accuracy": correct / batch,
           "mean_jsd": float(np.mean(jsd_vals)) if jsd_vals else 0.0}
    return total, grads, aux


def clip_grad_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their global l2 norm is at most max_norm.

    The attention quotient makes the loss surface sharp near queries whose
    feature vectors are almost dead (denominator near epsilon); clipping keeps
    a single such query from wiping out the parameters. Returns the pre-clip
    norm."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for name in grads:
            grads[name] = grads[name] * scale
    return total


# ---------- optimizers ----------

@dataclass
class SgdMomentum:
    lr: float = 0.05
    momentum: float = 0.9
    velocity: dict = dc_field(default_factory=dict)

    def step(self, params: dict, grads: dict) -> None:
        for name, g in grads.items():
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(g)
            v = self.momentum * v + g
            self.velocity[name] = v
            params[name] = params[name] - self.lr * v


@dataclass
class Adam:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = dc_field(default_factory=dict)
    v: dict = dc_field(default_factory=dict)

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        for name, g in grads.items():
            m = self.m.get(name, np.zeros_like(g))
            v = self.v.get(name, np.zeros_like(g))
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            params[name] = params[name] - self.lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------- synthetic tasks ----------

def make_local_majority_batch(rng: np.random.Generator, batch: int,
                              shape: GridShape, noise: float = 0.2):
    """Noisy-blob majority task.

    Background pixels are fair coin flips; a random rectangle at least 2x2 is
    filled with a dominant color flipped with probability ``noise``. The label
    is the majority color actually realized inside the rectangle, so it is
    always consistent with the image.
    """
    h, w = shape.height, shape.width
    imgs = np.zeros((batch, h, w, 1))
    labels = np.zeros(batch, dtype=np.int64)
    for b in range(batch):
        img = rng.integers(0, 2, size=(h, w)).astype(np.float64)
        bh = int(rng.integers(2, h + 1))
        bw = int(rng.integers(2, w + 1))
        top = int(rng.integers(0, h - bh + 1))
        left = int(rng.integers(0, w - bw + 1))
        dominant = int(rng.integers(0, 2))
        blob = np.where(rng.random((bh, bw)) < noise, 1 - dominant, dominant)
        img[top:top + bh, left:left + bw] = blob
        imgs[b, :, :, 0] = img
        ones = int(blob.sum())
        labels[b] = 1 if 2 * ones > blob.size else 0 if 2 * ones < blob.size else dominant
    return imgs, labels


def _grow(mask: np.ndarray) -> np.ndarray:
    """The mask with its 8-connected neighbours added."""
    h, w = mask.shape
    padded = np.pad(mask, 1)
    return np.logical_or.reduce([padded[i:i + h, j:j + w] for i in range(3) for j in range(3)])


def _one_cluster(mask: np.ndarray) -> bool:
    """Whether a boolean grid's foreground is one 8-connected cluster: the
    first foreground pixel's component, grown until it stops, is all of it."""
    reach = np.zeros_like(mask)
    reach.flat[np.argmax(mask)] = True
    while (grown := _grow(reach) & mask).sum() > reach.sum():
        reach = grown
    return bool((reach == mask).all())


def make_scattered_clustered_batch(rng: np.random.Generator, batch: int,
                                   shape: GridShape, points: int = 6):
    """Connectivity task: ``points`` foreground pixels, label 1 when they form
    a single 8-connected cluster. Half the batch grows a cluster by accreting
    random neighbors, half scatters points; either way the label is recomputed
    from the realized image."""
    h, w = shape.height, shape.width
    if points > h * w:
        raise ValueError("more points than grid cells")
    imgs = np.zeros((batch, h, w, 1))
    labels = np.zeros(batch, dtype=np.int64)
    for b in range(batch):
        mask = np.zeros((h, w), dtype=bool)
        if rng.random() < 0.5:
            # grow one blob: add uniformly among empty neighbors of the set
            si, sj = int(rng.integers(h)), int(rng.integers(w))
            mask[si, sj] = True
            while mask.sum() < points:
                cand = np.flatnonzero(_grow(mask) & ~mask)   # row-major order
                mask.flat[cand[int(rng.integers(len(cand)))]] = True
        else:
            flat = rng.choice(h * w, size=points, replace=False)
            mask[np.unravel_index(flat, (h, w))] = True
        imgs[b, :, :, 0] = mask.astype(np.float64)
        labels[b] = int(_one_cluster(mask))
    return imgs, labels


TASKS = {"local-majority": make_local_majority_batch,
         "scattered-clustered": make_scattered_clustered_batch}
"""Synthetic task name -> batch maker (rng, batch, shape) -> (imgs, labels)."""

TASK_MIN_GRID = {"local-majority": 2, "scattered-clustered": 3}
"""The smallest square grid side each task draws on: a 2x2 blob, 6 points."""


# ---------- training loop ----------

ROW_KEYS = ("step", "loss", "accuracy", "mean_jsd", "grad_norm")   # the metrics.csv header


def training_row(step: int, loss: float, aux: dict, grad_norm: float) -> dict:
    """One step's row: loss_and_grads' loss and diagnostics, and the
    gradient norm before clipping."""
    return dict(zip(ROW_KEYS, (step, float(loss), float(aux["accuracy"]),
                               float(aux["mean_jsd"]), float(grad_norm))))


def _diverged(step: int, what: str, config: ToyModelConfig) -> FloatingPointError:
    return FloatingPointError(f"training diverged at step {step}: {what}; lower the "
                              f"learning rate or epsilon={config.epsilon} may be too small")


def train_demo(config: ToyModelConfig, task: str = "local-majority",
               steps: int = 200, batch: int = 8, seed: int = 0,
               optimizer: str = "sgd", lr: float = 0.05, clip: float = 1.0,
               log=None, params: dict | None = None) -> list[dict]:
    """Train from scratch on freshly sampled batches; returns one metrics row
    per step. Raises FloatingPointError, naming the step, the moment the
    forward overflows or the loss, the gradient norm or an updated
    parameter stops being finite; the parameters are then those from before
    the failing step.
    ``clip`` bounds the global gradient norm (<= 0 disables clipping); each
    row's ``grad_norm`` is the norm before clipping.
    Pass ``params`` to train an existing parameter dict in place (the
    optimizer mutates it), e.g. to checkpoint the final state.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; options: {sorted(TASKS)}")
    if optimizer == "sgd":
        opt = SgdMomentum(lr=lr)
    elif optimizer == "adam":
        opt = Adam(lr=lr)
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    if params is None:
        params = init_model(config, seed=seed)
    shape = GridShape(config.height, config.width)
    rows = []
    for step in range(steps):
        imgs, labels = TASKS[task](rng, batch, shape)
        try:
            loss, grads, aux = loss_and_grads(imgs, labels, params, config)
        except FloatingPointError as exc:
            raise _diverged(step, str(exc), config) from exc
        grad_norm = clip_grad_norm(grads, clip if clip > 0.0 else np.inf)
        if not (np.isfinite(loss) and np.isfinite(grad_norm)):
            raise _diverged(step, f"loss {loss}, gradient norm {grad_norm}", config)
        before = dict(params)       # the optimizers rebind entries, never write into them
        opt.step(params, grads)
        if not all(np.isfinite(p).all() for p in params.values()):
            params.update(before)
            raise _diverged(step, "the updated parameters are not finite", config)
        rows.append(training_row(step, loss, aux, grad_norm))
        if log is not None:
            log(rows[-1])
    return rows
