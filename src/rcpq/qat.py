"""Toy quantization-aware distillation with exact bookkeeping.

A frozen full-precision teacher (two linear layers with a ReLU between,
classification head) distills into a student that shares its architecture
but fake-quantizes its weights once per pass over a batch. The loss blends
both KL directions, weighted by the teacher's empirical confidence:

    loss = alpha * KL(P_student || P_teacher) + (1 - alpha) * KL(P_teacher || P_student)

with alpha measured once, before training, as the teacher's mean probability
on the reference labels. Gradients flow through the quantizer's step
functions with the straight-through estimator; the clip and partition logits
get their exact analytic derivatives. The optimizer is Adam (0.9/0.999,
eps 1e-8, no weight decay) with learning rate 1e-3 on weights and 1e-2 on
quantizer logits. Everything runs in float64 with a counter-based RNG
keyed by (seed, stream), so a seed reproduces the loss trace bit-for-bit.

Both layers use the same group size, so the student lives in two buffers:
every weight, layer after layer, as one (groups, G) array, and every
quantizer logit as one (4, groups) array with a row per field (lo_logit,
hi_logit, split1, split2). A pass makes one ``fake_quant`` call and one
``grads`` call on the whole model, each one call of its compiled kernel
where that loads (see ``ldp``), and a training step is one Adam update per
buffer; every operation on a group is the one per-layer calls would make,
so the bits are the same.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ldp
from .calib import ClipSearchConfig, grid_search_clip, ldp_init
from .core import GroupLayout, make_rng
from .errors import ConfigError, DataError, TrainingFailureError
from .rotation import apply_online, randomized_hadamard
from .stats import groupwise_kurtosis

__all__ = [
    "ToyModelSpec",
    "DistillConfig",
    "TrainingReport",
    "cakld",
    "estimate_alpha",
    "train_toy",
    "grad_check",
    "invariance_check",
]

# RNG stream ids within a seed.
_STREAM_TEACHER = 0
_STREAM_CALIB = 1
_STREAM_EVAL = 2
_STREAM_GRADCHECK = 3
_STREAM_BATCH0 = 16

_CALIB_TOKENS = 256  # clip search and alpha estimation
_EVAL_TOKENS = 512
_CLIP_GRID = 16
_FD_DELTA = 1e-4  # finite-difference probe step of grad_check


class ToyModelSpec:
    """The toy model's shape; it is fixed, so nothing here is a setting."""

    __slots__ = ()  # read-only: an instance cannot shadow these values
    in_dim = 64
    hidden = 64
    classes = 16
    group_size = 16
    head_gain = 4.0  # sharpens teacher logits so confidence is informative


TOY = ToyModelSpec()  # the one toy model every entry point builds


@dataclass(frozen=True)
class DistillConfig:
    steps: int = 200
    batch: int = 32
    seed: int = 0
    freeze_partitions: bool = False

    def __post_init__(self):
        if self.steps < 1 or self.batch < 1:
            raise ConfigError(f"steps and batch must be >= 1, got {self.steps} and {self.batch}")


@dataclass
class TrainingReport:
    loss_trace: list[float]
    alpha: float
    initial_loss: float
    final_loss: float
    eval_loss: float
    max_loss_spike: float
    agreement: float
    levels: list[np.ndarray]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def cakld(p_teacher: np.ndarray, p_student: np.ndarray, alpha: float) -> float:
    """Confidence-blended KL between row-wise probability matrices.

    ``alpha`` weights the reverse direction KL(student || teacher); rows must
    already be normalized; entries are floored at 1e-12 before the logs.
    """
    pt = np.asarray(p_teacher, dtype=np.float64)
    ps = np.asarray(p_student, dtype=np.float64)
    if pt.shape != ps.shape or pt.ndim != 2:
        raise DataError("probability matrices must have identical 2-D shapes")
    for name, p in (("teacher", pt), ("student", ps)):
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
            raise DataError(f"{name} rows are not normalized")
    pt = np.maximum(pt, 1e-12)
    ps = np.maximum(ps, 1e-12)
    reverse = (ps * (np.log(ps) - np.log(pt))).sum(axis=1)
    forward = (pt * (np.log(pt) - np.log(ps))).sum(axis=1)
    return float(np.mean(alpha * reverse + (1.0 - alpha) * forward))


def estimate_alpha(probs: np.ndarray, labels: np.ndarray) -> float:
    """Teacher confidence: mean probability at the label."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise ConfigError("need a non-empty (examples, classes) probability matrix")
    return float(p[np.arange(p.shape[0]), labels].mean())


# ---------------------------------------------------------------------------
# Toy model plumbing


def _teacher_weights(seed: int) -> list[np.ndarray]:
    rng = make_rng(seed, _STREAM_TEACHER)
    w1 = rng.standard_normal((TOY.hidden, TOY.in_dim)) / np.sqrt(TOY.in_dim)
    w2 = rng.standard_normal((TOY.classes, TOY.hidden)) / np.sqrt(TOY.hidden)
    w2 *= TOY.head_gain
    return [w1, w2]


_LAYOUTS = (
    GroupLayout(TOY.hidden, TOY.in_dim, TOY.group_size),
    GroupLayout(TOY.classes, TOY.hidden, TOY.group_size),
)
_WEIGHT_SHAPES = tuple((lay.out_channels, lay.in_channels) for lay in _LAYOUTS)
_GROUP_SHAPES = tuple((lay.out_channels, lay.num_groups) for lay in _LAYOUTS)
_FIELDS = ("lo_logit", "hi_logit", "split1", "split2")  # the rows of the logit buffer


def _layer_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive pieces of the 1-D ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _forward_full(weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    h = np.maximum(x @ weights[0].T, 0.0)
    return h @ weights[1].T


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_LR_WEIGHTS, _LR_QUANT = 1e-3, 1e-2


class _Adam:
    """Adam over one array, updated in place on every step."""

    def __init__(self, lr: float, param: np.ndarray):
        self.lr = lr
        self.param = param
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        # In place, each element sees the operations of
        #   m = b1 * m + (1 - b1) * g,  v = b2 * v + (1 - b2) * g * g,
        #   param -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
        # in that order, so the bits are those of the textbook expression.
        self.t += 1
        m, v = self.m, self.v
        m *= _BETA1
        m += (1 - _BETA1) * grad
        v *= _BETA2
        v += (1 - _BETA2) * grad * grad
        step = m / (1 - _BETA1**self.t)
        step *= self.lr
        denom = v / (1 - _BETA2**self.t)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step /= denom
        self.param -= step


@dataclass
class _State:
    teacher: list[np.ndarray]
    w_groups: np.ndarray  # (groups, G): every student weight, layer after layer
    q_flat: np.ndarray  # (4, groups): a row per field of _FIELDS
    quant: ldp.LdpParams  # the whole model's logits: the rows of q_flat
    alpha: float


def _build_state(cfg: DistillConfig) -> _State:
    teacher = _teacher_weights(cfg.seed)
    calib_rng = make_rng(cfg.seed, _STREAM_CALIB)
    calib_x = calib_rng.standard_normal((_CALIB_TOKENS, TOY.in_dim))
    probs = _softmax(_forward_full(teacher, calib_x))
    labels = np.array([calib_rng.choice(TOY.classes, p=row) for row in probs])
    alpha = estimate_alpha(probs, labels)
    # Clip search per layer on that layer's calibration inputs, then the
    # uniform-thirds partition init.
    clip_cfg = ClipSearchConfig(grid=_CLIP_GRID)
    acts = calib_x
    inits = []
    for w, lay in zip(teacher, _LAYOUTS):
        inits.append(ldp_init(grid_search_clip(w, acts, lay, clip_cfg)))
        acts = np.maximum(acts @ w.T, 0.0)
    w_flat = np.concatenate([w.ravel() for w in teacher])
    q_flat = np.array([np.concatenate([getattr(p, f).ravel() for p in inits]) for f in _FIELDS])
    return _State(
        teacher=teacher,
        w_groups=w_flat.reshape(-1, TOY.group_size),
        q_flat=q_flat,
        quant=ldp.LdpParams(*q_flat),
        alpha=alpha,
    )


@dataclass
class _Pass:
    """One forward and backward pass of the fake-quantized student on a batch."""

    loss: float
    codes: np.ndarray  # (groups, G), for the whole model
    wq: list[np.ndarray]  # fake-quantized weights, per layer
    relu_mask: np.ndarray  # first layer's pre-activation > 0
    student_logits: np.ndarray
    teacher_logits: np.ndarray
    upstream: np.ndarray  # (groups, G): d loss / d wq, laid out like w_groups


def _loss_and_upstream(state: _State, x: np.ndarray) -> _Pass:
    """CAKLD loss of the fake-quantized student on ``x``, quantizing the
    whole model in one call, with its unmasked gradients at the
    fake-quantized weights: the point where the straight-through estimator
    hands them to the quantizer.
    """
    teacher_logits = _forward_full(state.teacher, x)
    codes, w_hat = ldp.fake_quant(state.w_groups, state.quant)
    wq = _layer_views(w_hat.reshape(-1), _WEIGHT_SHAPES)
    z1 = x @ wq[0].T
    relu_mask = z1 > 0.0
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ wq[1].T

    log_ps = _log_softmax(z2)
    log_pt = _log_softmax(teacher_logits)
    ps = np.exp(log_ps)
    pt = np.exp(log_pt)
    batch = x.shape[0]
    alpha = state.alpha

    u = log_ps - log_pt
    reverse = (ps * u).sum(axis=1)
    forward = (pt * -u).sum(axis=1)
    loss = float(np.mean(alpha * reverse + (1.0 - alpha) * forward))

    d_reverse = ps * (u - reverse[:, None])
    d_forward = ps - pt
    dz2 = (alpha * d_reverse + (1.0 - alpha) * d_forward) / batch

    upstream = np.empty_like(state.w_groups)
    dwq1, dwq2 = _layer_views(upstream.reshape(-1), _WEIGHT_SHAPES)
    np.matmul(dz2.T, h1, out=dwq2)
    dh1 = dz2 @ wq[1]
    dz1 = dh1 * relu_mask
    np.matmul(dz1.T, x, out=dwq1)
    return _Pass(loss, codes, wq, relu_mask, z2, teacher_logits, upstream)


def _loss_and_grads(state: _State, x: np.ndarray):
    """One pass on ``x`` plus the gradients for weights and quantizer logits.

    Returns ``(pass, weight_grad, logit_grad)``, laid out like
    ``state.w_groups`` and ``state.q_flat``: ``weight_grad`` is the
    straight-through gradient for the raw weights, and ``logit_grad`` has a
    row per field of ``_FIELDS``.
    """
    fwd = _loss_and_upstream(state, x)
    d_group, *d_logits = ldp.grads(state.w_groups, state.quant, fwd.codes, fwd.upstream)
    return fwd, d_group, np.stack(d_logits)


def train_toy(cfg: DistillConfig) -> TrainingReport:
    """Run the distillation loop on the toy model; fully deterministic per seed."""
    state = _build_state(cfg)
    trained = 2 if cfg.freeze_partitions else 4  # frozen: only the clip logits learn
    logits = state.q_flat[:trained]
    opt_w = _Adam(_LR_WEIGHTS, state.w_groups)
    opt_q = _Adam(_LR_QUANT, logits)
    trace: list[float] = []

    for step in range(cfg.steps):
        x = make_rng(cfg.seed, _STREAM_BATCH0 + step).standard_normal((cfg.batch, TOY.in_dim))
        fwd, w_grad, q_grad = _loss_and_grads(state, x)
        if not np.isfinite(fwd.loss):
            raise TrainingFailureError(step)
        trace.append(fwd.loss)
        opt_w.step(w_grad)
        opt_q.step(q_grad[:trained])
        np.clip(logits, -ldp.LOGIT_LIMIT, ldp.LOGIT_LIMIT, out=logits)  # frozen split logits keep their init

    eval_x = make_rng(cfg.seed, _STREAM_EVAL).standard_normal((_EVAL_TOKENS, TOY.in_dim))
    final = _loss_and_upstream(state, eval_x)
    agreement = float(np.mean(final.student_logits.argmax(1) == final.teacher_logits.argmax(1)))

    spikes = np.diff(np.asarray(trace)) if len(trace) > 1 else np.zeros(1)
    levels = ldp.derive_grids(state.w_groups, state.quant).levels  # (groups, 4)
    levels = _layer_views(levels.reshape(-1), [shape + (4,) for shape in _GROUP_SHAPES])
    return TrainingReport(
        loss_trace=trace,
        alpha=state.alpha,
        initial_loss=trace[0],
        final_loss=trace[-1],
        eval_loss=final.loss,
        max_loss_spike=float(spikes.max()),
        agreement=agreement,
        levels=levels,
    )


def _central_difference(arr: np.ndarray, idx: tuple, loss) -> float | None:
    """``(loss(+d) - loss(-d)) / 2d`` in the coordinate ``arr[idx]``, restored
    afterwards; None when ``loss()`` returns None at either probe."""
    original = arr[idx]
    vals = []
    try:
        for offset in (_FD_DELTA, -_FD_DELTA):
            arr[idx] = original + offset
            if (val := loss()) is None:
                return None
            vals.append(val)
    finally:
        arr[idx] = original
    return (vals[0] - vals[1]) / (2 * _FD_DELTA)


def grad_check(points: int = 100, seed: int = 0) -> dict:
    """Analytic quantizer-logit gradients vs central finite differences.

    Coordinates whose probe flips any quantizer code or ReLU sign are
    non-differentiable for the straight-through model and are excluded
    (counted in the report). One base pass gives the codes, ReLU mask and
    analytic gradients; each logit probe is one pass, giving both its flip
    verdict and its loss. Weight gradients are validated at the
    fake-quantized weights, the point where the straight-through estimator
    hands them off to the network.
    """
    cfg = DistillConfig(seed=seed)
    state = _build_state(cfg)
    x = make_rng(seed, _STREAM_GRADCHECK).standard_normal((cfg.batch, TOY.in_dim))
    rng = make_rng(seed, _STREAM_GRADCHECK + 1)
    base, _, base_q_grad = _loss_and_grads(state, x)
    attempts = 0  # shared by both sweeps

    def sweep(draw, loss, budget: int) -> tuple[int, int, float]:
        nonlocal attempts
        tested = excluded = 0
        max_rel = 0.0
        while tested < points and attempts < budget:
            attempts += 1
            arr, idx, analytic = draw()
            fd = _central_difference(arr, idx, loss)
            if fd is None:
                excluded += 1
                continue
            max_rel = max(max_rel, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-10))
            tested += 1
        return tested, excluded, max_rel

    columns = _layer_views(np.arange(state.q_flat.shape[1]), _GROUP_SHAPES)  # per layer, its groups' columns

    def draw_param():
        layer = int(rng.integers(0, len(_LAYOUTS)))
        k = int(rng.integers(0, 4))
        col = columns[layer][tuple(rng.integers(0, s) for s in _GROUP_SHAPES[layer])]
        return state.q_flat, (k, col), base_q_grad[k, col]

    def param_loss() -> float | None:
        probe = _loss_and_upstream(state, x)
        same = np.array_equal(probe.codes, base.codes) and np.array_equal(probe.relu_mask, base.relu_mask)
        return probe.loss if same else None

    tested, excluded, rel_p = sweep(draw_param, param_loss, points * 20)

    # Weight gradients, checked at the quantized weights, which the probes move.
    wq = base.wq
    upstream = _layer_views(base.upstream.reshape(-1), _WEIGHT_SHAPES)
    pt = _softmax(base.teacher_logits)

    def draw_weight():
        layer = int(rng.integers(0, 2))
        i = int(rng.integers(0, wq[layer].shape[0]))
        j = int(rng.integers(0, wq[layer].shape[1]))
        return wq[layer], (i, j), upstream[layer][i, j]

    def weight_loss() -> float | None:
        if not np.array_equal(x @ wq[0].T > 0.0, base.relu_mask):
            return None
        return cakld(pt, _softmax(_forward_full(wq, x)), state.alpha)

    w_tested, w_excluded, rel_w = sweep(draw_weight, weight_loss, points * 40)
    return {
        "max_rel_err": max(rel_p, rel_w),
        "param_points": tested,
        "param_excluded": excluded,
        "weight_points": w_tested,
        "weight_excluded": w_excluded,
    }


def invariance_check(rotation_seed: int = 0, seed: int = 0) -> dict:
    """Full-precision outputs before vs after fusing a rotation pair.

    The input rotation and its inverse baked into the first weight must
    leave outputs unchanged (checked in float64); as a side effect the
    rotation raises the kurtosis of platykurtic weight groups, so the mean
    group kurtosis delta of the rotated weight is reported alongside.
    """
    teacher = _teacher_weights(seed)
    x = make_rng(seed, _STREAM_EVAL).standard_normal((256, TOY.in_dim))
    rot = randomized_hadamard(TOY.in_dim, rotation_seed)

    base = _forward_full(teacher, x)
    # float64 end to end: ``fuse`` narrows to float32, too coarse for this check
    w1_fused64 = teacher[0] @ np.asarray(rot)
    x_rot = apply_online(x, rot)
    rotated = _forward_full([w1_fused64, teacher[1]], x_rot)
    denom = max(1.0, float(np.abs(base).max()))
    deviation = float(np.abs(rotated - base).max()) / denom

    lay = _LAYOUTS[0]
    kurt_base = groupwise_kurtosis(teacher[0], lay).per_group
    kurt_rot = groupwise_kurtosis(w1_fused64, lay).per_group
    return {
        "max_rel_deviation": deviation,
        "mean_kurtosis_delta": float((kurt_rot - kurt_base).mean()),
        "rotation_seed": rotation_seed,
    }
