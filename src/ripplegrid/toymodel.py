"""A small trainable model around the grid attention ops.

Pre-norm residual blocks of multi-head attention only (no feed-forward), a
per-pixel linear embedding in front, mean pooling and a linear classifier on
top. Lower blocks run the grouped local attention, upper blocks the global
linearized form. Parameters live in one flat name -> array dict so the
finite-difference auditor and the optimizers can treat the model uniformly.

Two synthetic image tasks exercise spatial locality: classifying the majority
color inside a noisy rectangular blob, and telling one 8-connected cluster of
points from the same number of points scattered across several clusters.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .attention import (HeadParams, MultiHeadConfig, MultiHeadParams,
                        multi_head_forward)
from .featmap import FeatureMapKind, FeatureMapParams
from .grad import multi_head_vjp
from .vicinal import GridShape, PartitionKind, PartitionScheme
from .weights import (LEARNED_KINDS, StickParams, WeightScheme,
                      WeightSchemeKind, jsd_grid, scheme_weights_grid)

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
    stick_dim: int | None = None

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
    m, hd = config.model_dim, config.head_dim
    stick_dim = hd if config.stick_dim is None else config.stick_dim
    params: dict[str, np.ndarray] = {
        "embed.w": rng.standard_normal((m, config.in_dim)) / np.sqrt(config.in_dim),
        "embed.b": np.zeros(m),
    }
    for l in range(config.num_layers):
        params[f"block{l}.ln.gamma"] = np.ones(m)
        params[f"block{l}.ln.beta"] = np.zeros(m)
        for h in range(config.num_heads):
            pre = f"block{l}.head{h}"
            scale = 1.0 / np.sqrt(m)
            params[f"{pre}.wq"] = rng.standard_normal((hd, m)) * scale
            params[f"{pre}.wk"] = rng.standard_normal((hd, m)) * scale
            params[f"{pre}.wv"] = rng.standard_normal((hd, m)) * scale
            params[f"{pre}.fm.w1"] = rng.standard_normal((hd, hd))
            params[f"{pre}.fm.w2"] = rng.standard_normal((hd, 2 * hd)) / np.sqrt(2.0 * hd)
            params[f"{pre}.fm.b2"] = np.zeros(hd)
            if config.block_attention(l) == "ripple" and config.scheme_kind in LEARNED_KINDS:
                params[f"{pre}.stick.emb"] = rng.standard_normal((config.r_max, stick_dim))
                params[f"{pre}.stick.proj"] = rng.standard_normal((stick_dim, hd)) / np.sqrt(hd)
        params[f"block{l}.attn.w_out"] = rng.standard_normal(
            (m, config.num_heads * hd)) / np.sqrt(config.num_heads * hd)
        params[f"block{l}.attn.b_out"] = np.zeros(m)
    params["head.w"] = rng.standard_normal((config.num_classes, m)) / np.sqrt(m)
    params["head.b"] = np.zeros(config.num_classes)
    return params


def _layer_params(params: dict, config: ToyModelConfig, layer: int) -> MultiHeadParams:
    heads = []
    for h in range(config.num_heads):
        pre = f"block{layer}.head{h}"
        fm = FeatureMapParams(kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE,
                              w1=params[f"{pre}.fm.w1"], w2=params[f"{pre}.fm.w2"],
                              b2=params[f"{pre}.fm.b2"])
        stick = None
        if f"{pre}.stick.emb" in params:
            stick = StickParams(unit_embeddings=params[f"{pre}.stick.emb"],
                                value_projection=params[f"{pre}.stick.proj"])
        heads.append(HeadParams(wq=params[f"{pre}.wq"], wk=params[f"{pre}.wk"],
                                wv=params[f"{pre}.wv"], featmap=fm, stick=stick))
    return MultiHeadParams(heads=tuple(heads),
                           w_out=params[f"block{layer}.attn.w_out"],
                           b_out=params[f"block{layer}.attn.b_out"])


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
    block_inputs: list
    ln_caches: list
    mh_tapes: list
    final: np.ndarray
    pooled: np.ndarray
    logits: np.ndarray


def model_forward(img: np.ndarray, params: dict, config: ToyModelConfig):
    """One image (H, W, in_dim) to class logits. Returns (logits, tape)."""
    x = np.asarray(img, dtype=np.float64) @ params["embed.w"].T + params["embed.b"]
    block_inputs, ln_caches, mh_tapes = [], [], []
    for l in range(config.num_layers):
        block_inputs.append(x)
        normed, cache = layer_norm(x, params[f"block{l}.ln.gamma"],
                                   params[f"block{l}.ln.beta"])
        ln_caches.append(cache)
        attn, tape = multi_head_forward(normed, _layer_params(params, config, l),
                                        config.block_config(l))
        mh_tapes.append(tape)
        x = x + attn
    pooled = x.mean(axis=(0, 1))
    logits = params["head.w"] @ pooled + params["head.b"]
    tape = ModelTape(img=np.asarray(img, dtype=np.float64), block_inputs=block_inputs,
                     ln_caches=ln_caches, mh_tapes=mh_tapes, final=x,
                     pooled=pooled, logits=logits)
    return logits, tape


def model_backward(tape: ModelTape, params: dict, config: ToyModelConfig,
                   grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt every entry of the parameter dict."""
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["head.w"] += np.outer(grad_logits, tape.pooled)
    grads["head.b"] += grad_logits
    gpooled = params["head.w"].T @ grad_logits
    h, w = tape.final.shape[:2]
    gx = np.broadcast_to(gpooled / (h * w), tape.final.shape).copy()
    for l in reversed(range(config.num_layers)):
        mh = multi_head_vjp(tape.mh_tapes[l], gx)
        grads[f"block{l}.attn.w_out"] += mh.w_out
        grads[f"block{l}.attn.b_out"] += mh.b_out
        for hd, hg in enumerate(mh.heads):
            pre = f"block{l}.head{hd}"
            grads[f"{pre}.wq"] += hg.wq
            grads[f"{pre}.wk"] += hg.wk
            grads[f"{pre}.wv"] += hg.wv
            grads[f"{pre}.fm.w1"] += hg.featmap.w1
            grads[f"{pre}.fm.w2"] += hg.featmap.w2
            grads[f"{pre}.fm.b2"] += hg.featmap.b2
            if hg.stick is not None:
                grads[f"{pre}.stick.emb"] += hg.stick.unit_embeddings
                grads[f"{pre}.stick.proj"] += hg.stick.value_projection
        gnorm, ggamma, gbeta = layer_norm_vjp(tape.ln_caches[l], mh.grad_x)
        grads[f"block{l}.ln.gamma"] += ggamma
        grads[f"block{l}.ln.beta"] += gbeta
        gx = gx + gnorm  # residual: d(x + attn(ln(x)))/dx
    grads["embed.w"] += np.einsum("hwm,hwc->mc", gx, tape.img)
    grads["embed.b"] += gx.sum(axis=(0, 1))
    return grads


def _accumulate(into: dict, add: dict) -> None:
    for name, g in add.items():
        into[name] += g


def loss_and_grads(imgs: np.ndarray, labels: np.ndarray, params: dict,
                   config: ToyModelConfig, reduction: str = "mean"):
    """Batched loss, gradients, and diagnostics.

    reduction "sum" makes the loss additive over samples (handy for gradient
    audits); "mean" divides loss and gradients by the batch size. Diagnostics:
    accuracy on the batch and the mean distance of the learned group weights
    from the fixed halving profile, averaged over grouped-attention heads and
    queries (exactly 0.0 when no block runs the grouped attention).
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
    imgs = np.asarray(imgs, dtype=np.float64)
    batch = imgs.shape[0]
    total = 0.0
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    correct = 0
    jsd_vals = []
    # the fixed-exponential profile reads only the grid shape and the
    # partition, so one reference serves every sample and head
    ref = scheme_weights_grid(WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
                              imgs[0], GridShape(*imgs.shape[1:3]), config.partition)
    for b in range(batch):
        logits, tape = model_forward(imgs[b], params, config)
        loss, gz = cross_entropy(logits, int(labels[b]))
        total += loss
        correct += int(np.argmax(logits) == labels[b])
        _accumulate(grads, model_backward(tape, params, config, gz))
        for l in range(config.ripple_layers):
            for htape in tape.mh_tapes[l].head_tapes:
                wg = htape.weights
                jsd_vals.append(jsd_grid(wg.alphas, ref.alphas, wg.groups).mean())
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


# ---------- training loop ----------

def train_demo(config: ToyModelConfig, task: str = "local-majority",
               steps: int = 200, batch: int = 8, seed: int = 0,
               optimizer: str = "sgd", lr: float = 0.05, clip: float = 1.0,
               log=None, params: dict | None = None) -> list[dict]:
    """Train from scratch on freshly sampled batches; returns one metrics row
    per step. Raises FloatingPointError the moment the loss stops being finite.
    ``clip`` bounds the global gradient norm (<= 0 disables clipping).
    Pass ``params`` to train an existing parameter dict in place (the
    optimizer mutates it), e.g. to checkpoint the final state.
    """
    makers = {"local-majority": make_local_majority_batch,
              "scattered-clustered": make_scattered_clustered_batch}
    if task not in makers:
        raise ValueError(f"unknown task {task!r}; options: {sorted(makers)}")
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
        imgs, labels = makers[task](rng, batch, shape)
        loss, grads, aux = loss_and_grads(imgs, labels, params, config)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"loss diverged to {loss} at step {step}; lower the learning "
                f"rate or epsilon={config.epsilon} may be too small")
        if clip > 0.0:
            clip_grad_norm(grads, clip)
        opt.step(params, grads)
        row = {"step": step, "loss": float(loss),
               "accuracy": float(aux["accuracy"]),
               "mean_jsd": float(aux["mean_jsd"])}
        rows.append(row)
        if log is not None:
            log(row)
    return rows
