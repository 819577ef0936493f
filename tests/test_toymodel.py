import numpy as np
import pytest

from ripplegrid import toymodel
from ripplegrid.grad import finite_diff_check
from ripplegrid.toymodel import (
    Adam,
    SgdMomentum,
    ToyModelConfig,
    clip_grad_norm,
    cross_entropy,
    init_model,
    layer_norm,
    layer_norm_vjp,
    loss_and_grads,
    make_local_majority_batch,
    make_scattered_clustered_batch,
    model_forward,
    train_demo,
)
from ripplegrid.vicinal import GridShape
from ripplegrid.weights import (WeightGrid, WeightScheme, WeightSchemeKind, jsd_grid,
                                scheme_weights_grid)


def small_config(**over):
    base = dict(height=4, width=4, in_dim=1, model_dim=8, num_heads=2,
                head_dim=4, num_layers=2, ripple_layers=1, r_max=2)
    base.update(over)
    return ToyModelConfig(**base)


# ---------- end-to-end gradient audit ----------

def test_model_gradients_match_finite_differences():
    # epsilon 1e-3: the attention quotient's curvature scales like 1/den^2,
    # so the default 1e-6 stabilizer makes central differences lose digits
    # on instances whose denominators get small; the gradient formulas never
    # read epsilon, so checking a better-conditioned instance audits the
    # same code. step 3e-6: wider steps can straddle a ReLU kink.
    config = small_config(epsilon=1e-3)
    params = init_model(config, seed=0)
    rng = np.random.Generator(np.random.PCG64(1))
    imgs, labels = make_local_majority_batch(rng, 2, GridShape(4, 4))

    def loss(p):
        value, grads, _ = loss_and_grads(imgs, labels, p, config)
        return value, grads

    report = finite_diff_check(loss, params, step=3e-6, tolerance=1e-3,
                               mode="sample", sample=16,
                               rng=np.random.default_rng(2))
    assert report.passed, str(report)


def test_batch_reduction_additivity():
    config = small_config()
    params = init_model(config, seed=3)
    rng = np.random.Generator(np.random.PCG64(4))
    imgs, labels = make_local_majority_batch(rng, 3, GridShape(4, 4))

    total, gsum, _ = loss_and_grads(imgs, labels, params, config,
                                    reduction="sum")
    mean, gmean, _ = loss_and_grads(imgs, labels, params, config,
                                    reduction="mean")
    singles = [loss_and_grads(imgs[b:b + 1], labels[b:b + 1], params, config,
                              reduction="sum") for b in range(3)]
    np.testing.assert_allclose(total, sum(s[0] for s in singles), atol=1e-12)
    np.testing.assert_allclose(mean, total / 3.0, atol=1e-12)
    for name in params:
        want = sum(s[1][name] for s in singles)
        np.testing.assert_allclose(gsum[name], want, atol=1e-12)
        np.testing.assert_allclose(gmean[name], want / 3.0, atol=1e-12)
    with pytest.raises(ValueError):
        loss_and_grads(imgs, labels, params, config, reduction="median")


def test_fixed_reference_built_once_per_call(monkeypatch):
    # the mean_jsd reference reads only the grid shape and the partition, so
    # one build serves every sample and every grouped head
    config = small_config()
    params = init_model(config, seed=2)
    rng = np.random.Generator(np.random.PCG64(5))
    imgs, labels = make_local_majority_batch(rng, 3, GridShape(4, 4))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return scheme_weights_grid(*args, **kwargs)

    monkeypatch.setattr(toymodel, "scheme_weights_grid", counting)
    _, _, aux = loss_and_grads(imgs, labels, params, config)
    assert len(calls) == 1

    fixed = WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL)
    jsds, correct = [], 0
    for img, label in zip(imgs, labels):
        logits, tape = model_forward(img, params, config)
        correct += int(np.argmax(logits) == label)
        attn = tape.mh_tapes[0].attn
        for h in range(config.num_heads):
            ref = scheme_weights_grid(fixed, attn.v[:, :, h], GridShape(4, 4), config.partition)
            wg = attn.weights
            head = WeightGrid(wg.head[:, :, h], wg.hat[:, :, h], wg.merged[:, :, h],
                              wg.groups[:, :, h])
            jsds.append(jsd_grid(head, ref).mean())
    assert len(jsds) == 3 * config.num_heads
    assert aux["mean_jsd"] > 0.0
    assert aux["mean_jsd"] == float(np.mean(jsds))      # bitwise
    assert aux["accuracy"] == correct / 3


def test_constant_input_gives_uniform_token_outputs():
    # with a constant image every token carries the same q, k, v, so each
    # group sum is (group size) * (one shared product) and the quotient
    # collapses to v at every position, whatever the weights do; position
    # dependence would betray a bookkeeping leak in the grouped sweep
    config = small_config(height=5, width=5, head_dim=8, epsilon=0.0)
    params = init_model(config, seed=1)
    img = np.full((5, 5, 1), 0.7)
    logits, tape = model_forward(img, params, config)
    spread = np.abs(tape.final - tape.final[0, 0]).max()
    assert spread < 1e-10, spread
    np.testing.assert_allclose(tape.pooled, tape.final[0, 0], atol=1e-12)
    np.testing.assert_allclose(
        logits, params["head.w"] @ tape.pooled + params["head.b"], atol=1e-12)


def test_tape_structure():
    config = small_config()
    params = init_model(config, seed=5)
    img = np.random.default_rng(6).random((4, 4, 1))
    logits, tape = model_forward(img, params, config)
    assert logits.shape == (config.num_classes,)
    assert len(tape.mh_tapes) == config.num_layers
    np.testing.assert_allclose(tape.pooled, tape.final.mean(axis=(0, 1)),
                               atol=1e-12)


def test_ripple_layer_count_bounds():
    rng = np.random.Generator(np.random.PCG64(7))
    imgs, labels = make_local_majority_batch(rng, 2, GridShape(4, 4))
    for layers in (0, 2):
        config = small_config(ripple_layers=layers)
        params = init_model(config, seed=8)
        loss, grads, aux = loss_and_grads(imgs, labels, params, config)
        assert np.isfinite(loss)
        if layers == 0:
            assert aux["mean_jsd"] == 0.0
            assert not any(".stick." in name for name in params)
        else:
            assert 0.0 < aux["mean_jsd"] <= 1.0
    with pytest.raises(ValueError):
        small_config(ripple_layers=3)


def test_stick_params_only_on_learned_grouped_blocks():
    config = small_config(scheme_kind=WeightSchemeKind.FIXED_EXPONENTIAL)
    assert not any(".stick." in n for n in init_model(config, seed=0))
    config = small_config(ripple_layers=1)
    names = init_model(config, seed=0)
    assert any(n.startswith("block0.") and ".stick." in n for n in names)
    assert not any(n.startswith("block1.") and ".stick." in n for n in names)


# ---------- primitives ----------

def test_cross_entropy_values():
    loss, gz = cross_entropy(np.array([0.0, 0.0]), 0)
    np.testing.assert_allclose(loss, np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(gz, [-0.5, 0.5], atol=1e-12)
    loss, gz = cross_entropy(np.array([2.0, -1.0]), 1)
    np.testing.assert_allclose(loss, np.log1p(np.exp(3.0)), atol=1e-12)
    np.testing.assert_allclose(gz.sum(), 0.0, atol=1e-12)
    # shifting every logit changes nothing
    loss2, gz2 = cross_entropy(np.array([102.0, 99.0]), 1)
    np.testing.assert_allclose(loss2, loss, atol=1e-9)
    np.testing.assert_allclose(gz2, gz, atol=1e-9)


def test_layer_norm_statistics_and_vjp():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4, 6)) * 3.0 + 1.0
    gamma, beta = np.ones(6), np.zeros(6)
    out, cache = layer_norm(x, gamma, beta)
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    gamma = rng.standard_normal(6)
    beta = rng.standard_normal(6)
    probe = rng.standard_normal((3, 4, 6))

    def value(x_, gamma_, beta_):
        return float((layer_norm(x_, gamma_, beta_)[0] * probe).sum())

    out, cache = layer_norm(x, gamma, beta)
    gx, ggamma, gbeta = layer_norm_vjp(cache, probe)
    step = 1e-6
    for arr, grad in ((x, gx), (gamma, ggamma), (beta, gbeta)):
        flat = arr.reshape(-1)
        for f in np.random.default_rng(10).choice(flat.size, 5, replace=False):
            orig = flat[f]
            flat[f] = orig + step
            hi = value(x, gamma, beta)
            flat[f] = orig - step
            lo = value(x, gamma, beta)
            flat[f] = orig
            fd = (hi - lo) / (2 * step)
            assert abs(grad.reshape(-1)[f] - fd) < 1e-5 * max(abs(fd), 1.0)


def test_clip_grad_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[0.0, 4.0]])}
    pre = clip_grad_norm(grads, 1.0)
    np.testing.assert_allclose(pre, 5.0, atol=1e-12)
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    np.testing.assert_allclose(total, 1.0, atol=1e-12)
    np.testing.assert_allclose(grads["a"], [0.6, 0.0], atol=1e-12)

    small = {"a": np.array([0.3, 0.4])}
    pre = clip_grad_norm(small, 1.0)
    np.testing.assert_allclose(pre, 0.5, atol=1e-12)
    np.testing.assert_allclose(small["a"], [0.3, 0.4], atol=1e-12)


def test_sgd_momentum_sequence():
    opt = SgdMomentum(lr=0.1, momentum=0.5)
    params = {"p": np.array([0.0])}
    for want in (-0.1, -0.25, -0.425):
        opt.step(params, {"p": np.array([1.0])})
        np.testing.assert_allclose(params["p"], [want], atol=1e-12)


def test_adam_first_step_is_signed_lr():
    opt = Adam(lr=0.01)
    params = {"p": np.array([1.0, -2.0])}
    opt.step(params, {"p": np.array([3.0, -0.2])})
    np.testing.assert_allclose(params["p"], [1.0 - 0.01, -2.0 + 0.01],
                               rtol=1e-6)


# ---------- synthetic tasks ----------

def test_local_majority_batch_shape_and_determinism():
    shape = GridShape(6, 5)
    imgs, labels = make_local_majority_batch(
        np.random.Generator(np.random.PCG64(11)), 64, shape)
    assert imgs.shape == (64, 6, 5, 1)
    assert set(np.unique(imgs)) <= {0.0, 1.0}
    assert set(np.unique(labels)) == {0, 1}
    imgs2, labels2 = make_local_majority_batch(
        np.random.Generator(np.random.PCG64(11)), 64, shape)
    np.testing.assert_array_equal(imgs, imgs2)
    np.testing.assert_array_equal(labels, labels2)


def _components_oracle(mask):
    """Independent 8-connected component count (iterative flood fill)."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for i in range(h):
        for j in range(w):
            if not mask[i, j] or seen[i, j]:
                continue
            count += 1
            stack = [(i, j)]
            seen[i, j] = True
            while stack:
                ci, cj = stack.pop()
                for ni in range(max(0, ci - 1), min(h, ci + 2)):
                    for nj in range(max(0, cj - 1), min(w, cj + 2)):
                        if mask[ni, nj] and not seen[ni, nj]:
                            seen[ni, nj] = True
                            stack.append((ni, nj))
    return count


def test_scattered_clustered_labels_match_connectivity():
    shape = GridShape(7, 7)
    imgs, labels = make_scattered_clustered_batch(
        np.random.Generator(np.random.PCG64(12)), 48, shape)
    assert imgs.shape == (48, 7, 7, 1)
    for b in range(48):
        mask = imgs[b, :, :, 0] > 0.5
        assert mask.sum() == 6
        want = 1 if _components_oracle(mask) == 1 else 0
        assert labels[b] == want, b
    assert 0 < labels.sum() < 48   # both classes occur
    with pytest.raises(ValueError):
        make_scattered_clustered_batch(
            np.random.Generator(np.random.PCG64(0)), 1, GridShape(2, 2),
            points=5)


# ---------- training loop ----------

def test_train_demo_smoke():
    config = small_config(height=5, width=5, num_heads=1, num_layers=1,
                          ripple_layers=1)
    rows = train_demo(config, steps=6, batch=4, seed=0, lr=0.02)
    assert len(rows) == 6
    assert [r["step"] for r in rows] == list(range(6))
    for row in rows:
        assert np.isfinite(row["loss"]) and row["loss"] > 0
        assert 0.0 <= row["accuracy"] <= 1.0
        assert 0.0 <= row["mean_jsd"] <= 1.0
        assert np.isfinite(row["grad_norm"]) and row["grad_norm"] > 0


def test_train_demo_zero_lr_fixes_params():
    config = small_config()
    params = init_model(config, seed=13)
    frozen = {n: a.copy() for n, a in params.items()}
    train_demo(config, steps=3, batch=2, seed=13, lr=0.0, params=params)
    for name in frozen:
        np.testing.assert_array_equal(params[name], frozen[name])


def test_train_demo_logs_pre_clip_grad_norm():
    # with lr 0 every step sees the initial parameters, so each row's norm
    # is the norm of that step's batch gradient, clipped or not
    config = small_config()
    params = init_model(config, seed=16)
    rng = np.random.Generator(np.random.PCG64(16 + 1))      # train_demo's stream
    want = []
    for _ in range(3):
        imgs, labels = make_local_majority_batch(rng, 2, GridShape(4, 4))
        grads = loss_and_grads(imgs, labels, params, config)[1]
        want.append(float(np.sqrt(sum(float((g * g).sum()) for g in grads.values()))))
    for clip in (1e-3, 0.0, -1.0):
        rows = train_demo(config, steps=3, batch=2, seed=16, lr=0.0, clip=clip,
                          params={n: a.copy() for n, a in params.items()})
        np.testing.assert_allclose([r["grad_norm"] for r in rows], want, rtol=1e-12)
    assert min(want) > 1e-3        # the norms above were logged before clipping


def test_train_demo_mutates_given_params():
    config = small_config()
    params = init_model(config, seed=14)
    before = {n: a.copy() for n, a in params.items()}
    rows = train_demo(config, steps=2, batch=2, seed=14, lr=0.05,
                      params=params)
    assert len(rows) == 2
    assert any(not np.array_equal(params[n], before[n]) for n in before)


DIVERGENCES = [
    ("sgd", 0.0, 500.0, 2, "loss inf"),
    ("sgd", 0.0, 1e100, 1, "the layer output overflowed"),   # finite parameters overflow it
    ("adam", 1.0, 1e308, 1, "the input of block 0 overflowed"),
    ("sgd", 0.0, 1e308, 0, "updated parameters are not finite"),
]


@pytest.mark.parametrize("optimizer, clip, lr, step, what", DIVERGENCES)
def test_train_demo_divergence_raises(optimizer, clip, lr, step, what):
    """Whatever turns non-finite first, the loss, the gradient norm, an
    updated parameter or an activation of the next forward, the run stops
    with one FloatingPointError naming the step, after logging the steps
    before it."""
    rows = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=f"diverged at step {step}: .*{what}"):
            train_demo(small_config(), steps=40, batch=2, seed=0, optimizer=optimizer,
                       lr=lr, clip=clip, log=rows.append)
    assert [row["step"] for row in rows] == list(range(step))


@pytest.mark.parametrize("optimizer, clip, lr, step, what", DIVERGENCES)
def test_train_demo_divergence_leaves_the_last_logged_params(optimizer, clip, lr, step, what):
    """A failed step leaves the caller's dict as it was after the last
    logged step, bitwise: a failed update is taken back."""
    config = small_config()
    params = init_model(config, seed=0)
    logged = [{n: a.copy() for n, a in params.items()}]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=f"diverged at step {step}"):
            train_demo(config, steps=40, batch=2, seed=0, optimizer=optimizer, lr=lr,
                       clip=clip, params=params,
                       log=lambda row: logged.append({n: a.copy() for n, a in params.items()}))
    assert len(logged) == step + 1
    assert params.keys() == logged[-1].keys()
    for name, a in params.items():
        assert a.tobytes() == logged[-1][name].tobytes(), name


def test_loss_and_grads_rejects_non_finite_inputs():
    config = small_config()
    params = init_model(config, seed=0)
    imgs, labels = make_local_majority_batch(np.random.default_rng(3), 2, GridShape(4, 4))
    bad_imgs = imgs.copy()
    bad_imgs[1, 2, 3, 0] = np.nan
    with pytest.raises(ValueError, match="the image batch contains non-finite"):
        loss_and_grads(bad_imgs, labels, params, config)
    bad = dict(params, **{"embed.w": np.full_like(params["embed.w"], np.inf)})
    with pytest.raises(ValueError, match="embed.w contains non-finite"):
        loss_and_grads(imgs, labels, bad, config)


def test_loss_and_grads_rejects_malformed_labels():
    """Labels are one integer in [0, num_classes) per image. Before, -1
    trained on class 1, 0.7 on class 0 and a third label for two images
    was ignored, all silently, while 2 and a short array raised a bare
    IndexError."""
    config = ToyModelConfig()
    params = init_model(config, seed=0)
    imgs, labels = make_local_majority_batch(np.random.default_rng(3), 2,
                                             GridShape(config.height, config.width))
    for bad in ([-1, 1], [0.7, 1], [0, 1, 1], [2, 0], [1], 1, np.array([[0], [1]])):
        with pytest.raises(ValueError, match=r"labels must be one integer in \[0, 2\) per image"):
            loss_and_grads(imgs, bad, params, config)
    want = loss_and_grads(imgs, labels, params, config)[0]
    assert loss_and_grads(imgs, labels.tolist(), params, config)[0] == want


def test_train_demo_adam_and_log_callback():
    config = small_config(height=4, width=4, num_heads=1, num_layers=1)
    seen = []
    rows = train_demo(config, steps=3, batch=2, seed=15, optimizer="adam",
                      lr=1e-3, log=seen.append)
    assert seen == rows


def test_train_demo_validation():
    config = small_config()
    with pytest.raises(ValueError):
        train_demo(config, task="checkerboard", steps=1)
    with pytest.raises(ValueError):
        train_demo(config, optimizer="rmsprop", steps=1)
