import struct

import numpy as np
import pytest

from glogtda.errors import (
    FormatError,
    LengthError,
    ParameterError,
    ShapeError,
    UndefinedMetricError,
)
from glogtda.learn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MlpModel,
    TrainConfig,
    accuracy,
    auc,
    forward,
    init_model,
    load_checkpoint,
    loss_and_grads,
    model_dims_for,
    save_checkpoint,
    train,
)


def zero_model(dims):
    weights = tuple(np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:]))
    biases = tuple(np.zeros(o) for o in dims[1:])
    return MlpModel(weights, biases)


# --- init ----------------------------------------------------------------------


def test_init_deterministic():
    a = init_model((8, 4, 3, 2, 2), seed=11)
    b = init_model((8, 4, 3, 2, 2), seed=11)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = init_model((8, 4, 3, 2, 2), seed=12)
    assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))


def test_init_fan_in_bound_and_zero_biases():
    m = init_model((100, 30, 20, 10, 4), seed=0)
    for w in m.weights:
        assert np.abs(w).max() <= np.sqrt(6.0 / w.shape[1])
    for b in m.biases:
        assert (b == 0).all()


def test_model_dims_for():
    assert model_dims_for(5000, 9) == (5000, 256, 128, 64, 9)


# --- forward -------------------------------------------------------------------


def test_zero_model_uniform_softmax():
    m = zero_model((6, 4, 4, 4, 5))
    p = forward(m, np.ones(6))
    np.testing.assert_allclose(p, 0.2, rtol=1e-12)
    batch = forward(m, np.ones((3, 6)))
    assert batch.shape == (3, 5)
    np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_stabilized_against_huge_logits():
    m = zero_model((2, 3, 3, 3, 2))
    biases = list(m.biases)
    biases[-1] = np.array([1000.0, 0.0])
    m = MlpModel(m.weights, tuple(biases))
    p = forward(m, np.zeros(2))
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_shift_invariance():
    m = init_model((5, 4, 3, 2, 3), seed=1)
    shifted = MlpModel(m.weights, m.biases[:-1] + (m.biases[-1] + 7.5,))
    x = np.random.default_rng(2).random((4, 5))
    np.testing.assert_allclose(forward(m, x), forward(shifted, x), atol=1e-12)


def test_forward_matches_extended_precision_oracle():
    rng = np.random.default_rng(3)
    m = init_model((7, 5, 4, 3, 3), seed=4)
    x = rng.random(7)
    a = x.astype(np.longdouble)
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        a = np.maximum(a @ w.T.astype(np.longdouble) + b.astype(np.longdouble), 0)
    logits = a @ m.weights[-1].T.astype(np.longdouble) + m.biases[-1].astype(np.longdouble)
    e = np.exp(logits - logits.max())
    want = (e / e.sum()).astype(np.float64)
    np.testing.assert_allclose(forward(m, x), want, atol=1e-12)


def test_forward_shape_error():
    m = init_model((5, 4, 3, 2, 2), seed=0)
    with pytest.raises(ShapeError):
        forward(m, np.zeros(6))


# --- gradients -------------------------------------------------------------------


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    m = init_model((20, 8, 6, 4, 3), seed=6)
    x = rng.random((12, 20))
    y = rng.integers(0, 3, 12)
    _, gw, gb = loss_and_grads(m, x, y)
    flat_params = list(m.weights) + list(m.biases)
    flat_grads = list(gw) + list(gb)
    h = 1e-5
    checked = 0
    for _ in range(10):
        pi = int(rng.integers(0, len(flat_params)))
        arr = flat_params[pi]
        idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        lp, _, _ = loss_and_grads(m, x, y)
        arr[idx] = orig - h
        lm, _, _ = loss_and_grads(m, x, y)
        arr[idx] = orig
        fd = (lp - lm) / (2 * h)
        an = flat_grads[pi][idx]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4
        checked += 1
    assert checked == 10


# --- training ---------------------------------------------------------------------


def separable_data(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, d))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    x[y == 1] += 2.0
    return x, y


def test_train_separable_toy():
    x, y = separable_data(200, 4, 7)
    m = init_model((4, 256, 128, 64, 2), seed=8)
    cfg = TrainConfig(epochs=100, patience=100, rng_seed=9)
    best, history = train(m, x, y, x, y, cfg)
    preds = forward(best, x).argmax(axis=1)
    assert accuracy(preds, y) >= 0.99
    assert len(history.rows) <= 100


def test_early_stopping_patience_one():
    x, y = separable_data(40, 4, 10)
    # constant validation scores: every val sample identical, labels mixed
    val_x = np.zeros((6, 4))
    val_y = np.array([0, 1, 0, 1, 0, 1])
    m = init_model((4, 256, 128, 64, 2), seed=11)
    cfg = TrainConfig(epochs=50, patience=1, rng_seed=12)
    _, history = train(m, x, y, val_x, val_y, cfg)
    assert len(history.rows) == 2


def test_first_adam_step_closed_form():
    # one epoch, one full batch: t=1 bias corrections cancel, so the update is
    # exactly lr * g / (|g| + eps)
    x, y = separable_data(24, 5, 30)
    cfg = TrainConfig(epochs=1, patience=1, batch_size=24, rng_seed=31)
    m0 = init_model((5, 256, 128, 64, 2), seed=32)
    perm = np.random.default_rng(cfg.rng_seed).permutation(24)
    _, gw, gb = loss_and_grads(m0, x[perm], y[perm])
    trained, _ = train(m0, x, y, x, y, cfg)
    for p0, g, p1 in zip(
        m0.weights + m0.biases, gw + gb, trained.weights + trained.biases
    ):
        want = p0 - cfg.learning_rate * g / (np.sqrt(g * g) + ADAM_EPS)
        # bias-correction factors cancel only up to double rounding (1 ulp)
        np.testing.assert_allclose(p1, want, rtol=1e-12, atol=1e-15)


def test_train_equals_textbook_adam_loop():
    # constant validation scores tie every epoch, so train returns the model
    # after its last step: 3 epochs of 4 batches, the last one short
    x, y = separable_data(30, 5, 40)
    val_x, val_y = np.zeros((2, 5)), np.array([0, 1])
    cfg = TrainConfig(epochs=3, patience=3, batch_size=8, rng_seed=41)
    m0 = init_model((5, 256, 128, 64, 2), seed=42)
    trained, history = train(m0, x, y, val_x, val_y, cfg)
    assert len(history.rows) == 3

    params = [p.copy() for p in m0.weights + m0.biases]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(cfg.rng_seed)
    t = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            model = MlpModel(tuple(params[:4]), tuple(params[4:]))
            _, gw, gb = loss_and_grads(model, x[idx], y[idx])
            t += 1
            for i, g in enumerate(gw + gb):
                m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g**2
                m_hat = m[i] / (1 - ADAM_BETA1**t)
                v_hat = v[i] / (1 - ADAM_BETA2**t)
                params[i] = params[i] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    assert t == 12
    for got, want in zip(trained.weights + trained.biases, params):
        assert np.array_equal(got, want)


def test_training_determinism():
    x, y = separable_data(60, 5, 13)
    cfg = TrainConfig(epochs=5, patience=5, rng_seed=14)
    m1, h1 = train(init_model((5, 256, 128, 64, 2), 15), x, y, x, y, cfg)
    m2, h2 = train(init_model((5, 256, 128, 64, 2), 15), x, y, x, y, cfg)
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        assert a.tobytes() == b.tobytes()
    assert h1.rows == h2.rows


def test_train_rejects_empty_split():
    x, y = separable_data(10, 4, 16)
    m = init_model((4, 256, 128, 64, 2), seed=0)
    with pytest.raises(ParameterError):
        train(m, np.zeros((0, 4)), np.zeros(0, dtype=int), x, y, TrainConfig())


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(patience=200, epochs=100)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.0)


# --- metrics ----------------------------------------------------------------------


def test_accuracy():
    assert accuracy([1, 0, 1, 1], [1, 0, 1, 1]) == 1.0
    assert accuracy([0, 1], [1, 0]) == 0.0
    assert accuracy([1, 0, 1, 0], [1, 0, 1, 1]) == 0.75
    with pytest.raises(ShapeError):
        accuracy([1], [1, 0])


def scores2(p1):
    p1 = np.asarray(p1, dtype=float)
    return np.column_stack([1 - p1, p1])


def test_auc_examples():
    assert auc(scores2([0.9, 0.8, 0.3, 0.2]), [1, 1, 0, 0]) == 1.0
    assert auc(scores2([0.2, 0.3, 0.8, 0.9]), [1, 1, 0, 0]) == 0.0
    assert auc(scores2([0.5, 0.5]), [1, 0]) == 0.5


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(17)
    s = rng.random(50)
    y = rng.integers(0, 2, 50)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    a1 = auc(scores2(s), y)
    a2 = auc(scores2(np.exp(3 * s)), y)  # strictly monotone transform
    assert a1 == pytest.approx(a2, abs=1e-12)


def test_auc_multiclass_macro_skips_absent():
    scores = np.array(
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.7, 0.2, 0.1], [0.2, 0.7, 0.1]]
    )
    y = np.array([0, 1, 0, 1])  # class 2 absent
    got = auc(scores, y)
    # manual macro average over present classes
    from glogtda.learn import _binary_auc

    want = np.mean([_binary_auc(scores[:, 0], y == 0), _binary_auc(scores[:, 1], y == 1)])
    assert got == pytest.approx(want)


def test_auc_undefined_cases():
    with pytest.raises(UndefinedMetricError):
        auc(scores2([0.4, 0.6]), [1, 1])
    with pytest.raises(ParameterError):
        auc(np.ones((3, 1)), [0, 1, 0])


def test_auc_uniform_random_scores_near_half():
    rng = np.random.default_rng(21)
    n = 10_000
    y = np.tile([0, 1], n // 2)
    got = auc(scores2(rng.random(n)), y)
    assert abs(got - 0.5) <= 0.02


def test_auc_mann_whitney_against_pair_counting():
    rng = np.random.default_rng(18)
    s = np.round(rng.random(40), 1)  # force ties
    y = rng.integers(0, 2, 40)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    pos, neg = s[y == 1], s[y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    want = wins / (len(pos) * len(neg))
    assert auc(scores2(s), y) == pytest.approx(want, abs=1e-12)


# --- checkpoints --------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    m = init_model((9, 5, 4, 3, 2), seed=19)
    path = tmp_path / "model.bin"
    save_checkpoint(path, m)
    loaded = load_checkpoint(path)
    assert loaded.layer_dims == m.layer_dims
    for a, b in zip(m.weights + m.biases, loaded.weights + loaded.biases):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(FormatError):
        load_checkpoint(path)
    m = init_model((4, 3, 3, 3, 2), seed=20)
    save_checkpoint(path, m)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(LengthError):
        load_checkpoint(path)
    # a header cut short, and a layer count that runs past the end
    for data in (b"GLM1", b"GLM1" + struct.pack("<3I", 3, 4, 2)):
        path.write_bytes(data)
        with pytest.raises(LengthError):
            load_checkpoint(path)
    # fewer than two layer dims, or a zero dim (with its 2 biases, a model
    # with no inputs)
    for dims, params in (((), b""), ((4,), b""), ((0, 2), bytes(16))):
        path.write_bytes(b"GLM1" + struct.pack(f"<{1 + len(dims)}I", len(dims), *dims) + params)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.type is FormatError


def test_history_csv():
    from glogtda.learn import TrainHistory

    h = TrainHistory([(1, 0.5, 0.75)])
    assert h.to_csv() == "epoch,train_loss,val_auc\n1,0.5,0.75\n"
