"""Head h sliced out of a multi-head layer's stacked parameters or gradients,
and a layer composed of single-head oracle calls."""
import numpy as np

from ripplegrid.attention import AttentionConfig, ripple_naive
from ripplegrid.featmap import FeatureMapParams
from ripplegrid.weights import StickParams, WeightScheme, WeightSchemeKind

# (attention, scheme kind) of a layer: every scheme, then linearized mode
MODES = [("ripple", kind) for kind in WeightSchemeKind] + [("linearized", WeightSchemeKind.UNIFORM)]


def head_arrays(layer, h: int) -> dict:
    """Head ``h``'s arrays of MultiHeadParams or MultiHeadGradients, which
    share field names: wq, wk, wv, w1, w2, b2, plus emb and proj with a stick."""
    fm = layer.featmap
    rows = slice(h * fm.w1.shape[-1], (h + 1) * fm.w1.shape[-1])
    wq, wk, wv = (w[rows] for w in np.split(layer.w_qkv, 3))
    out = dict(wq=wq, wk=wk, wv=wv, w1=fm.w1[h], w2=fm.w2[h], b2=fm.b2[h])
    if layer.stick is not None:
        out.update(emb=layer.stick.unit_embeddings[h], proj=layer.stick.value_projection[h])
    return out


def head_params(params, h: int):
    """Head ``h`` of MultiHeadParams: wq, wk, wv, its feature map and its
    stick (None without one)."""
    a = head_arrays(params, h)
    stick = StickParams(a["emb"], a["proj"]) if "emb" in a else None
    return a["wq"], a["wk"], a["wv"], FeatureMapParams(params.featmap.kind, a["w1"], a["w2"],
                                                        a["b2"]), stick


def naive_layer(x, params, config):
    """A ripple layer's output with each head attended on its own by
    ripple_naive, which sums every group member by member."""
    outs = []
    for h in range(params.featmap.w1.shape[0]):
        wq, wk, wv, featmap, stick = head_params(params, h)
        cfg = AttentionConfig(scheme=WeightScheme(kind=config.scheme_kind, params=stick),
                              partition=config.partition, featmap=featmap,
                              epsilon=config.epsilon)
        outs.append(ripple_naive(x @ wq.T, x @ wk.T, x @ wv.T, cfg, build_tape=False).out)
    return np.concatenate(outs, axis=-1) @ params.w_out.T + params.b_out
