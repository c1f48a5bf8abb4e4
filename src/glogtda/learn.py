"""MLP classifier on feature vectors: forward/backward in numpy, Adam,
early stopping on validation AUC, and the ACC/AUC metrics.

The architecture is fixed at [D, 256, 128, 64, K]: three ReLU hidden layers
and a softmax output, trained with mini-batch cross-entropy. All randomness
(initialization, epoch shuffles) flows from a single integer seed, so runs
are bit-reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    LengthError,
    ParameterError,
    ShapeError,
    UndefinedMetricError,
)

MAGIC_MODEL = b"GLM1"

HIDDEN_WIDTHS = (256, 128, 64)

# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpModel:
    weights: tuple[np.ndarray, ...]  # layer i: (width_{i+1}, width_i)
    biases: tuple[np.ndarray, ...]

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights) + (self.weights[-1].shape[0],)

    def copy(self) -> "MlpModel":
        return MlpModel(
            tuple(w.copy() for w in self.weights),
            tuple(b.copy() for b in self.biases),
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 32
    patience: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.learning_rate, self.epochs, self.batch_size, self.patience) <= 0:
            raise ParameterError("learning_rate, epochs, batch_size, patience must be > 0")
        if self.patience > self.epochs:
            raise ParameterError("patience must not exceed epochs")


def init_model(dims: tuple[int, ...], seed: int) -> MlpModel:
    """Uniform(-sqrt(6/fan_in), sqrt(6/fan_in)) weights, zero biases."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ParameterError(f"bad layer dims {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(tuple(weights), tuple(biases))


def model_dims_for(feature_dim: int, num_classes: int) -> tuple[int, ...]:
    return (feature_dim, *HIDDEN_WIDTHS, num_classes)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities; accepts a single vector or a (N, D) batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.weights[0].shape[1]:
        raise ShapeError(
            f"input dim {a.shape[1]} != model dim {model.weights[0].shape[1]}"
        )
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
    probs = _softmax(a @ model.weights[-1].T + model.biases[-1])
    return probs[0] if single else probs


def loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and gradients for every parameter."""
    acts = [np.asarray(x, dtype=np.float64)]
    pre = []
    a = acts[0]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    logits = a @ model.weights[-1].T + model.biases[-1]
    probs = _softmax(logits)
    n = len(y)
    loss = -np.log(np.clip(probs[np.arange(n), y], 1e-300, None)).mean()

    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w, grads_b = [], []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(delta.T @ acts[layer])
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (pre[layer - 1] > 0.0)
    return loss, tuple(reversed(grads_w)), tuple(reversed(grads_b))


@dataclass
class TrainHistory:
    rows: list[tuple[int, float, float]]  # (epoch, train_loss, val_auc)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_auc"]
        lines += [f"{e},{repr(l)},{repr(a)}" for e, l, a in self.rows]
        return "\n".join(lines) + "\n"


def train(
    model: MlpModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    cfg: TrainConfig,
) -> tuple[MlpModel, TrainHistory]:
    """Mini-batch Adam; keeps the snapshot with the best validation AUC.

    Early-stops after cfg.patience epochs without AUC improvement (the
    counter resets on every improvement). Returns the best snapshot.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64).reshape(-1)
    val_y = np.asarray(val_y, dtype=np.int64).reshape(-1)
    if len(train_x) == 0 or len(val_x) == 0:
        raise ParameterError("train and validation splits must be nonempty")
    rng = np.random.default_rng(cfg.rng_seed)

    model = model.copy()  # trained in place
    params = (*model.weights, *model.biases)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0

    best_auc = -np.inf
    best_model = model.copy()
    stale = 0
    history = TrainHistory([])
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(len(train_x))
        losses, weights_of = [], []
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            loss, gw, gb = loss_and_grads(model, train_x[idx], train_y[idx])
            losses.append(loss)
            weights_of.append(len(idx))
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            for p, mp, vp, g in zip(params, m, v, (*gw, *gb)):
                mp *= ADAM_BETA1
                mp += (1.0 - ADAM_BETA1) * g
                vp *= ADAM_BETA2
                vp += (1.0 - ADAM_BETA2) * (g * g)
                p -= cfg.learning_rate * (mp / bc1) / (np.sqrt(vp / bc2) + ADAM_EPS)
        train_loss = float(np.average(losses, weights=weights_of))
        val_auc = auc(forward(model, val_x), val_y)
        history.rows.append((epoch, train_loss, val_auc))
        if val_auc >= best_auc:
            # ties keep the more-trained model; only strict gains reset patience
            best_model = model.copy()
        if val_auc > best_auc:
            best_auc = val_auc
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best_model, history


def accuracy(predictions, truth) -> float:
    """Fraction of exact label matches."""
    predictions = np.asarray(predictions).reshape(-1)
    truth = np.asarray(truth).reshape(-1)
    if predictions.shape != truth.shape:
        raise ShapeError("predictions and truth must have equal length")
    return float((predictions == truth).mean())


def _binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("binary AUC needs both classes in the truth")
    order = np.sort(scores)
    lo = np.searchsorted(order, scores, side="left")
    hi = np.searchsorted(order, scores, side="right")
    ranks = (lo + hi + 1) / 2.0  # 1-based mid-ranks; ties share their mean rank
    r_pos = ranks[positive].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc(scores, truth) -> float:
    """Threshold-free ranking metric on per-class probability scores.

    Binary: probability that a positive outranks a negative, ties counting
    one half. Multi-class: macro average of one-vs-rest AUCs, skipping
    classes absent from the truth.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64).reshape(-1)
    if scores.ndim != 2 or scores.shape[0] != truth.size:
        raise ShapeError(f"scores must be (N, K), got {scores.shape}")
    k = scores.shape[1]
    if k < 2:
        raise ParameterError("need at least two classes")
    if k == 2:
        return _binary_auc(scores[:, 1], truth == 1)
    vals = []
    for cls in range(k):
        pos = truth == cls
        if 0 < pos.sum() < truth.size:
            vals.append(_binary_auc(scores[:, cls], pos))
    if not vals:
        raise UndefinedMetricError("no class with both positives and negatives")
    return float(np.mean(vals))


# --- checkpoints -------------------------------------------------------------


def save_checkpoint(path, model: MlpModel) -> None:
    """GLM1 binary: magic, u32 layer count, u32 dims, then per-layer row-major
    float64 weights followed by biases."""
    dims = model.layer_dims
    with open(path, "wb") as fh:
        fh.write(MAGIC_MODEL)
        fh.write(struct.pack("<I", len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> MlpModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC_MODEL:
        raise FormatError("bad checkpoint magic")
    if len(data) < 8:
        raise LengthError("truncated checkpoint header")
    (n_dims,) = struct.unpack_from("<I", data, 4)
    offset = 8 + 4 * n_dims
    if offset > len(data):
        raise LengthError("truncated checkpoint layer dims")
    dims = struct.unpack_from(f"<{n_dims}I", data, 8)
    if n_dims < 2 or min(dims) < 1:
        raise FormatError(f"bad checkpoint layer dims {dims}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w_bytes = fan_out * fan_in * 8
        if offset + w_bytes + fan_out * 8 > len(data):
            raise LengthError("truncated checkpoint")
        w = np.frombuffer(data, "<f8", count=fan_out * fan_in, offset=offset)
        offset += w_bytes
        b = np.frombuffer(data, "<f8", count=fan_out, offset=offset)
        offset += fan_out * 8
        weights.append(w.reshape(fan_out, fan_in).copy())
        biases.append(b.copy())
    if offset != len(data):
        raise LengthError("trailing bytes in checkpoint")
    return MlpModel(tuple(weights), tuple(biases))
