"""CAKLD loss, confidence estimation, toy training, gradient/invariance harnesses."""

import numpy as np
import pytest

from rcpq.errors import ConfigError, DataError, TrainingFailureError
from rcpq import _native, ldp, qat
from rcpq.qat import (
    TOY,
    DistillConfig,
    ToyModelSpec,
    cakld,
    estimate_alpha,
    grad_check,
    invariance_check,
    train_toy,
)
from rcpq.qat import _LAYOUTS, _build_state, _loss_and_grads, _STREAM_GRADCHECK
from rcpq.calib import ClipSearchConfig, grid_search_clip, ldp_init
from rcpq.core import make_rng


def _kl(p, q):
    """Independent forward KL oracle, natural log."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum(p * (np.log(p) - np.log(q))))


class TestToyModelSpec:
    def test_fixed_shape(self):
        spec = ToyModelSpec()
        assert (spec.in_dim, spec.hidden, spec.classes, spec.group_size) == (64, 64, 16, 16)
        assert spec.head_gain == 4.0
        with pytest.raises(TypeError):
            ToyModelSpec(hidden=8)
        with pytest.raises(AttributeError):
            spec.hidden = 8


class TestCakld:
    def test_identical_distributions(self):
        p = np.array([[0.2, 0.3, 0.5]])
        assert cakld(p, p, alpha=0.7) == pytest.approx(0.0, abs=1e-12)

    def test_spec_numeric_case(self):
        pt = np.array([[0.5, 0.5]])
        ps = np.array([[0.25, 0.75]])
        assert cakld(pt, ps, alpha=0.5) == pytest.approx(0.13733, abs=1e-4)

    def test_blend_endpoints_match_kl_oracles(self):
        rng = make_rng(80)
        pt = rng.dirichlet(np.ones(6), size=4)
        ps = rng.dirichlet(np.ones(6), size=4)
        forward = np.mean([_kl(t, s) for t, s in zip(pt, ps)])
        reverse = np.mean([_kl(s, t) for t, s in zip(pt, ps)])
        assert cakld(pt, ps, alpha=0.0) == pytest.approx(forward, rel=1e-10)
        assert cakld(pt, ps, alpha=1.0) == pytest.approx(reverse, rel=1e-10)

    def test_blend_is_exact_combination(self):
        rng = make_rng(81)
        pt = rng.dirichlet(np.ones(4), size=8)
        ps = rng.dirichlet(np.ones(4), size=8)
        a = 0.37
        expect = a * cakld(pt, ps, 1.0) + (1 - a) * cakld(pt, ps, 0.0)
        assert cakld(pt, ps, a) == pytest.approx(expect, rel=1e-12)

    def test_nonnegative_random_pairs(self):
        rng = make_rng(82)
        for _ in range(50):
            pt = rng.dirichlet(np.ones(5), size=3)
            ps = rng.dirichlet(np.ones(5), size=3)
            assert cakld(pt, ps, rng.uniform()) >= 0.0

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(DataError):
            cakld(np.array([[0.5, 0.6]]), np.array([[0.5, 0.5]]), 0.5)


class TestEstimateAlpha:
    def test_one_hot_teacher(self):
        probs = np.eye(4)[np.array([2, 0, 1])]
        probs = np.clip(probs, 1e-9, 1.0)
        probs /= probs.sum(axis=1, keepdims=True)
        assert estimate_alpha(probs, np.array([2, 0, 1])) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_teacher(self):
        v = 8
        probs = np.full((5, v), 1.0 / v)
        assert estimate_alpha(probs, np.zeros(5, dtype=int)) == pytest.approx(1.0 / v)

    def test_known_mean_label_probability(self):
        rng = make_rng(83)
        n, v = 4000, 5
        target = 0.7
        probs = np.full((n, v), (1 - target) / (v - 1))
        probs[:, 0] = target
        labels = np.array([0 if rng.uniform() < target else rng.integers(1, v) for _ in range(n)])
        # mean probability at a label drawn with matching frequency ~ E[p_label]
        expect = target * target + (1 - target) * (1 - target) / (v - 1)
        assert estimate_alpha(probs, labels) == pytest.approx(expect, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            estimate_alpha(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestTrainToy:
    def test_loss_halves_and_is_deterministic(self):
        cfg = DistillConfig(seed=0, steps=60, batch=32)
        rep1 = train_toy(cfg)
        rep2 = train_toy(cfg)
        assert rep1.loss_trace == rep2.loss_trace  # bit-for-bit
        assert rep1.final_loss < rep1.initial_loss

    def test_zero_learning_rates_freeze_loss(self, monkeypatch):
        # With zero rates every per-step loss equals the untouched model's
        # loss on that batch (batches differ, so compare against a frozen
        # state instead of expecting a constant trace).
        monkeypatch.setattr(qat, "_LR_WEIGHTS", 0.0)
        monkeypatch.setattr(qat, "_LR_QUANT", 0.0)
        cfg = DistillConfig(seed=1, steps=5, batch=16)
        rep = train_toy(cfg)
        state = _build_state(cfg)
        for step, recorded in enumerate(rep.loss_trace):
            x = make_rng(cfg.seed, 16 + step).standard_normal((cfg.batch, 64))
            fwd, _, _ = _loss_and_grads(state, x)
            assert fwd.loss == pytest.approx(recorded, rel=1e-12)

    def test_freeze_partitions_keeps_levels_uniform(self):
        cfg = DistillConfig(seed=2, steps=10, batch=16, freeze_partitions=True)
        rep = train_toy(cfg)
        for levels in rep.levels:
            np.testing.assert_allclose(levels[..., 1], 1 / 3, atol=1e-12)
            np.testing.assert_allclose(levels[..., 2], 2 / 3, atol=1e-12)

    def test_report_fields(self):
        cfg = DistillConfig(seed=3, steps=8, batch=8)
        rep = train_toy(cfg)
        assert len(rep.loss_trace) == 8
        assert 0.0 <= rep.alpha <= 1.0
        assert 0.0 <= rep.agreement <= 1.0
        assert np.isfinite(rep.max_loss_spike)

    def test_one_quantizer_pass_per_layer_and_step(self, monkeypatch):
        # One fake_quant call quantizes the whole student, and the backward
        # takes its codes instead of quantizing again.
        state = _build_state(DistillConfig(seed=5))
        x = make_rng(5, _STREAM_GRADCHECK).standard_normal((8, TOY.in_dim))
        real, calls = ldp.fake_quant, []
        monkeypatch.setattr(ldp, "fake_quant", lambda *args: calls.append(args) or real(*args))
        _loss_and_grads(state, x)
        assert len(calls) == 1
        groups = sum(lay.out_channels * lay.num_groups for lay in _LAYOUTS)
        assert calls[0][0].shape == (groups, TOY.group_size)

    def test_one_quantizer_pass_per_loss_evaluation(self, monkeypatch):
        # Training, its evaluation and every grad_check probe quantize the
        # whole student once per pass; no caller re-runs a batch to read its
        # codes, ReLU mask or logits.
        real_quant, real_pass, calls, passes = ldp.fake_quant, qat._loss_and_upstream, [], []
        monkeypatch.setattr(ldp, "fake_quant", lambda *args: calls.append(args) or real_quant(*args))
        monkeypatch.setattr(qat, "_loss_and_upstream", lambda *args: passes.append(args) or real_pass(*args))
        train_toy(DistillConfig(seed=0, steps=3))
        assert len(calls) == len(passes) == 4  # 3 steps and the evaluation
        calls.clear()
        passes.clear()
        grad_check(5, 1)
        assert len(calls) == len(passes) == 11  # the base pass and 10 probes

    def test_non_finite_loss_stops_training(self, monkeypatch):
        real, steps = qat._loss_and_grads, []

        def nan_at_step_2(state, x):
            steps.append(len(steps))
            fwd, w_grad, q_grad = real(state, x)
            if steps[-1] == 2:
                fwd.loss = float("nan")
            return fwd, w_grad, q_grad

        monkeypatch.setattr(qat, "_loss_and_grads", nan_at_step_2)
        with pytest.raises(TrainingFailureError, match=r"^non-finite loss at step 2$") as err:
            train_toy(DistillConfig(seed=0, steps=5))
        assert err.value.step == 2
        assert steps == [0, 1, 2]

    def test_buffers_back_every_layer(self):
        # The two buffers hold every layer, layer after layer: w_groups its
        # grouped weight and q_flat its initial logits, a row per field. The
        # whole model's LdpParams are q_flat's rows, so an update of the
        # buffer is what the next pass quantizes with.
        cfg = DistillConfig(seed=6)
        state = _build_state(cfg)
        groups = sum(lay.out_channels * lay.num_groups for lay in _LAYOUTS)
        assert state.w_groups.shape == (groups, TOY.group_size)
        assert state.q_flat.shape == (4, groups)
        student, params = _per_layer(state)
        for w, p, teacher, init in zip(student, params, state.teacher, _layer_inits(state.teacher, cfg.seed)):
            assert w.tobytes() == teacher.tobytes()  # the student starts at the teacher
            for field in ("lo_logit", "hi_logit", "split1", "split2"):
                assert getattr(p, field).tobytes() == getattr(init, field).tobytes(), field
        for k, field in enumerate(("lo_logit", "hi_logit", "split1", "split2")):
            assert np.shares_memory(getattr(state.quant, field), state.q_flat[k])
        state.q_flat[2, -1] = 0.5  # split1 of layer 1's last group
        assert state.quant.split1[-1] == 0.5


def _per_layer(state):
    """Each layer's weight and ``LdpParams``, copied out of the state's two buffers."""
    student, params, start = [], [], 0
    for lay in _LAYOUTS:
        cols = slice(start, start + lay.out_channels * lay.num_groups)
        student.append(state.w_groups[cols].reshape(lay.out_channels, lay.in_channels).copy())
        fields = (row[cols].reshape(lay.out_channels, lay.num_groups).copy() for row in state.q_flat)
        params.append(ldp.LdpParams(*fields))
        start = cols.stop
    return student, params


def _layer_inits(teacher, seed):
    """Each layer's ``ldp_init`` of its own clip search, as training starts from it."""
    calib_x = make_rng(seed, qat._STREAM_CALIB).standard_normal((qat._CALIB_TOKENS, TOY.in_dim))
    inits, acts = [], calib_x
    for w, lay in zip(teacher, _LAYOUTS):
        inits.append(ldp_init(grid_search_clip(w, acts, lay, ClipSearchConfig(grid=qat._CLIP_GRID))))
        acts = np.maximum(acts @ w.T, 0.0)
    return inits


class _ListAdam:
    """Adam over a list of arrays, one update per array: the per-layer
    optimizer the buffered one must reproduce."""

    def __init__(self, lr, params):
        self.lr, self.params, self.t = lr, params, 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        for param, m, v, grad in zip(self.params, self.m, self.v, grads):
            m[...] = qat._BETA1 * m + (1 - qat._BETA1) * grad
            v[...] = qat._BETA2 * v + (1 - qat._BETA2) * grad * grad
            m_hat = m / (1 - qat._BETA1**self.t)
            v_hat = v / (1 - qat._BETA2**self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + qat._ADAM_EPS)


def _per_layer_pass(teacher, student, params, alpha, x):
    """The loss and gradients of one batch, one fake_quant and one grads call per layer."""
    codes, wq = [], []
    for w, p, lay in zip(student, params, _LAYOUTS):
        c, w_hat = ldp.fake_quant(lay.grouped(w), p)
        codes.append(c)
        wq.append(w_hat.reshape(w.shape))
    z1 = x @ wq[0].T
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ wq[1].T
    teacher_logits = np.maximum(x @ teacher[0].T, 0.0) @ teacher[1].T
    log_ps = z2 - z2.max(axis=1, keepdims=True)
    log_ps = log_ps - np.log(np.exp(log_ps).sum(axis=1, keepdims=True))
    log_pt = teacher_logits - teacher_logits.max(axis=1, keepdims=True)
    log_pt = log_pt - np.log(np.exp(log_pt).sum(axis=1, keepdims=True))
    ps, pt = np.exp(log_ps), np.exp(log_pt)
    u = log_ps - log_pt
    reverse = (ps * u).sum(axis=1)
    forward = (pt * -u).sum(axis=1)
    loss = float(np.mean(alpha * reverse + (1.0 - alpha) * forward))
    d_reverse = ps * (u - reverse[:, None])
    dz2 = (alpha * d_reverse + (1.0 - alpha) * (ps - pt)) / x.shape[0]
    upstream = [(dz2 @ wq[1] * (z1 > 0.0)).T @ x, dz2.T @ h1]
    w_grads, p_grads = [], []
    for w, p, lay, c, dwq in zip(student, params, _LAYOUTS, codes, upstream):
        d_group, *d_logits = ldp.grads(lay.grouped(w), p, c, lay.grouped(dwq))
        w_grads.append(d_group.reshape(w.shape))
        p_grads.append(d_logits)
    return loss, w_grads, p_grads


class TestBufferedLoopMatchesPerLayerLoop:
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_loss_trace_and_levels_bit_for_bit(self, seed, freeze):
        cfg = DistillConfig(seed=seed, steps=20, freeze_partitions=freeze)
        rep = train_toy(cfg)

        state = _build_state(cfg)
        student, params = _per_layer(state)  # the starting point; the loop below runs on copies
        trained = 2 if freeze else 4
        logits = [[p.lo_logit, p.hi_logit, p.split1, p.split2][:trained] for p in params]
        opt_w = _ListAdam(qat._LR_WEIGHTS, student)
        opt_q = _ListAdam(qat._LR_QUANT, [arr for layer in logits for arr in layer])
        trace = []
        for step in range(cfg.steps):
            x = make_rng(seed, 16 + step).standard_normal((cfg.batch, TOY.in_dim))
            loss, w_grads, p_grads = _per_layer_pass(state.teacher, student, params, state.alpha, x)
            trace.append(loss)
            opt_w.step(w_grads)
            opt_q.step([g for layer in p_grads for g in layer[:trained]])
            for arr in opt_q.params:
                np.clip(arr, -ldp.LOGIT_LIMIT, ldp.LOGIT_LIMIT, out=arr)

        assert [v.hex() for v in rep.loss_trace] == [v.hex() for v in trace]
        levels = [ldp.derive_grids(lay.grouped(w), p).levels for w, p, lay in zip(student, params, _LAYOUTS)]
        for got, want in zip(rep.levels, levels):
            assert got.tobytes() == want.tobytes()


class TestKernelsMatchNumpy:
    # The compiled encoder and backward pass give the numpy references' bits,
    # so training without them takes the same steps.
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_loss_trace_and_levels_bit_for_bit(self, seed, freeze, monkeypatch):
        cfg = DistillConfig(seed=seed, steps=20, freeze_partitions=freeze)
        compiled = train_toy(cfg)
        monkeypatch.setattr(_native, "kernel", lambda name: None)
        reference = train_toy(cfg)
        assert [v.hex() for v in compiled.loss_trace] == [v.hex() for v in reference.loss_trace]
        assert compiled.eval_loss.hex() == reference.eval_loss.hex()
        for got, want in zip(compiled.levels, reference.levels):
            assert got.tobytes() == want.tobytes()


class TestGradCheck:
    def test_hundred_points_within_tolerance(self):
        rep = grad_check(points=100, seed=0)
        assert rep["param_points"] == 100
        assert rep["weight_points"] == 100
        assert rep["max_rel_err"] <= 1e-4

    def test_threshold_points_are_excluded_not_failed(self):
        rep = grad_check(points=40, seed=1)
        assert rep["param_excluded"] >= 0  # recorded, never fatal
        assert rep["max_rel_err"] <= 1e-4

    def test_zero_upstream_zero_grads(self):
        cfg = DistillConfig(seed=4)
        state = _build_state(cfg)
        zeros = np.zeros_like(state.w_groups)
        codes, _ = ldp.fake_quant(state.w_groups, state.quant)
        d_group, d_lo, d_hi, d_s1, d_s2 = ldp.grads(state.w_groups, state.quant, codes, zeros)
        for g in (d_group, d_lo, d_hi, d_s1, d_s2):
            assert np.all(g == 0.0)


class TestSteConsistency:
    def test_first_order_decrease_on_quant_logits(self):
        # a tiny gradient step on the quantizer logits moves the loss by
        # -eps * ||g||^2 + O(eps^2) when no code flips
        hits = 0
        state_seed = 0
        while hits < 10 and state_seed < 30:
            state_seed += 1
            cfg = DistillConfig(seed=state_seed)
            state = _build_state(cfg)
            x = make_rng(state_seed, _STREAM_GRADCHECK).standard_normal((32, TOY.in_dim))
            base, _, q_grad = _loss_and_grads(state, x)
            gnorm2 = float((q_grad**2).sum())
            if gnorm2 < 1e-12:
                continue
            eps = 1e-6 / np.sqrt(gnorm2)
            state.q_flat -= eps * q_grad  # every layer's four logit fields
            moved, _, _ = _loss_and_grads(state, x)
            predicted = -eps * gnorm2
            actual = moved.loss - base.loss
            if actual == 0.0:
                continue
            assert actual == pytest.approx(predicted, rel=5e-2)
            hits += 1
        assert hits == 10


class TestInvarianceCheck:
    @pytest.mark.parametrize("rotation_seed", range(5))
    def test_random_rotations_within_tolerance(self, rotation_seed):
        rep = invariance_check(rotation_seed=rotation_seed, seed=3)
        assert rep["max_rel_deviation"] <= 1e-9

    def test_uniform_weights_kurtosis_rises(self):
        # platykurtic weights: rotation must raise the mean group kurtosis
        from rcpq.core import GroupLayout
        from rcpq.rotation import randomized_hadamard
        from rcpq.stats import groupwise_kurtosis

        rng = make_rng(85)
        w = rng.uniform(-1, 1, size=(64, 64))
        lay = GroupLayout(64, 64, 16)
        rot = randomized_hadamard(64, 11)
        delta = (
            groupwise_kurtosis(w @ rot, lay).per_group - groupwise_kurtosis(w, lay).per_group
        ).mean()
        assert delta > 0.0
