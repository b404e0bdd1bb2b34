"""Comparison models: two local diffusion PDEs and a small neural surrogate.

Both PDE baselines are realized as one-cell-horizon cases of the nonlocal
solver, so they share its grid, initial condition, stepping and curve
extraction code path exactly; the classical model is the fractal one with a
frozen exponent.  The surrogate is a tiny fully-connected network fitted to
the breakthrough samples directly, with no transport structure at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarsen import CoarseDensity
from .errors import ConfigurationError
from .nonlocal_diffusion import DynamicKernel, solve


def fractal_kernel(D_bar: float, q: float, cell_width: float) -> DynamicKernel:
    """Nearest-neighbor kernel equivalent to c_t = (D/t^q) c_xx.

    The second difference splits into two exchange terms of weight D/l1^2,
    and the coefficient's time dependence maps to exponent -q.  A negative
    diffusivity fails the kernel's own check on its weights.
    """
    w = D_bar / cell_width ** 2
    return DynamicKernel(phi=np.array([w, 0.0, w]), p=-q,
                         horizon_cells=1, cell_width=cell_width)


def solve_fractal(D_bar: float, q: float, initial, times,
                  cell_width: float) -> CoarseDensity:
    """Implicit solve of the power-law-coefficient diffusion equation.

    Requires q < 1 so the coefficient is integrable across the first step
    from t = 0 (enforced by the shared stepper).
    """
    return solve(fractal_kernel(D_bar, q, cell_width), initial, times)


def solve_classical(D0_bar: float, initial, times,
                    cell_width: float) -> CoarseDensity:
    return solve_fractal(D0_bar, 0.0, initial, times, cell_width)


# ---------------------------------------------------------------------------
# neural surrogate


@dataclass(frozen=True)
class SurrogateNet:
    """Fully-connected (x, t) -> value network with a softplus output.

    Inputs are affinely mapped to [-1, 1] using the training ranges stored
    on the net, so evaluation is self-contained.
    """

    weights: tuple
    biases: tuple
    x_range: tuple
    t_range: tuple

    def record(self) -> dict:
        return {
            "model": "mlp",
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "normalization": {"x_range": list(self.x_range),
                              "t_range": list(self.t_range)},
        }

    @classmethod
    def from_record(cls, record: dict) -> "SurrogateNet":
        return cls(
            weights=tuple(np.asarray(w, dtype=float) for w in record["weights"]),
            biases=tuple(np.asarray(b, dtype=float) for b in record["biases"]),
            x_range=tuple(record["normalization"]["x_range"]),
            t_range=tuple(record["normalization"]["t_range"]),
        )


def _normalize(value, lo, hi):
    if hi <= lo:
        return np.zeros_like(np.asarray(value, dtype=float))
    return 2.0 * (np.asarray(value, dtype=float) - lo) / (hi - lo) - 1.0


def _forward(weights, biases, inputs: np.ndarray):
    """Forward pass returning the output and per-layer activations."""
    activations = [inputs]
    a = inputs
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(a @ w + b)
        activations.append(a)
    z_out = a @ weights[-1] + biases[-1]
    return np.logaddexp(0.0, z_out), z_out, activations


def surrogate_eval(net: SurrogateNet, x, t) -> np.ndarray:
    """Evaluate the surrogate; always finite and strictly positive."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape, t.shape)
    xn = np.broadcast_to(_normalize(x, *net.x_range), shape).ravel()
    tn = np.broadcast_to(_normalize(t, *net.t_range), shape).ravel()
    out, _, _ = _forward(net.weights, net.biases, np.column_stack([xn, tn]))
    return out[:, 0].reshape(shape)


def init_surrogate(seed: int, x_range, t_range,
                   hidden_layers: int = 3, width: int = 4) -> SurrogateNet:
    """Small random network with the given normalization ranges."""
    rng = np.random.default_rng(seed)
    sizes = [2] + [width] * hidden_layers + [1]
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return SurrogateNet(weights=tuple(weights), biases=tuple(biases),
                        x_range=tuple(x_range), t_range=tuple(t_range))


def dataset_arrays(curves) -> tuple[np.ndarray, np.ndarray]:
    """Flatten breakthrough curves into (x, t) inputs and target values."""
    curves = list(curves)
    if not curves:
        raise ConfigurationError("cannot train on an empty dataset")
    xs, ts, ys = [], [], []
    for curve in sorted(curves, key=lambda c: c.location):
        xs.append(np.full(len(curve.times), curve.location))
        ts.append(curve.times)
        ys.append(curve.values)
    return (np.column_stack([np.concatenate(xs), np.concatenate(ts)]),
            np.concatenate(ys))


def train_surrogate(curves, *, epochs: int = 20_000, learning_rate: float = 1e-3,
                    seed: int = 0, hidden_layers: int = 3,
                    width: int = 4) -> SurrogateNet:
    """Fit the surrogate to breakthrough samples by full-batch Adam.

    Full batches keep the run deterministic for a given seed; the loss is the
    mean squared error over all (location, time) samples.  All weights and
    biases live in one flat buffer, each layer's arrays being views into it,
    and the gradients in a second one, so each Adam update is one pass of
    elementwise operations over every parameter.
    """
    from scipy.special import expit

    inputs_raw, targets = dataset_arrays(curves)
    x_range = (float(inputs_raw[:, 0].min()), float(inputs_raw[:, 0].max()))
    t_range = (float(inputs_raw[:, 1].min()), float(inputs_raw[:, 1].max()))
    net = init_surrogate(seed, x_range, t_range, hidden_layers, width)
    inputs = np.column_stack([_normalize(inputs_raw[:, 0], *x_range),
                              _normalize(inputs_raw[:, 1], *t_range)])
    y = targets[:, None]
    n = inputs.shape[0]

    initial = net.weights + net.biases
    params = np.concatenate([p.ravel() for p in initial])
    grads = np.zeros_like(params)
    n_layers = len(net.weights)
    weights, biases = _unflatten(params, initial, n_layers)
    grads_w, grads_b = _unflatten(grads, initial, n_layers)
    moment1 = np.zeros_like(params)
    moment2 = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for step in range(1, epochs + 1):
        out, z_out, activations = _forward(weights, biases, inputs)
        # backward, written straight into the gradient buffer
        delta = (2.0 / n) * (out - y) * expit(z_out)
        np.matmul(activations[-1].T, delta, out=grads_w[-1])
        _column_sums(delta, grads_b[-1])
        # one output column: a broadcast product, with no sum to round
        back = delta * weights[-1].T
        for layer in range(n_layers - 2, -1, -1):
            back = back * (1.0 - activations[layer + 1] ** 2)
            np.matmul(activations[layer].T, back, out=grads_w[layer])
            _column_sums(back, grads_b[layer])
            if layer:
                back = back @ weights[layer].T
        # Adam update with bias correction
        moment1 *= beta1
        moment1 += (1 - beta1) * grads
        moment2 *= beta2
        moment2 += (1 - beta2) * grads ** 2
        m_hat = moment1 / (1 - beta1 ** step)
        v_hat = moment2 / (1 - beta2 ** step)
        params -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    return SurrogateNet(weights=weights, biases=biases,
                        x_range=x_range, t_range=t_range)


def _column_sums(array: np.ndarray, out: np.ndarray) -> None:
    """``np.sum(array, axis=0, out=out)``, bit for bit: np.sum adds two or
    more columns row after row, as einsum does in a quarter of the time,
    and one column pairwise."""
    if array.shape[1] == 1:
        np.sum(array, axis=0, out=out)
    else:
        np.einsum("ij->j", array, out=out)


def _unflatten(buffer: np.ndarray, shapes_of, n_layers: int):
    """Views of ``buffer`` shaped like ``shapes_of``, split as (weights, biases)."""
    views, start = [], 0
    for array in shapes_of:
        views.append(buffer[start:start + array.size].reshape(array.shape))
        start += array.size
    return tuple(views[:n_layers]), tuple(views[n_layers:])
