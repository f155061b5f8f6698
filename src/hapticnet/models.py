"""Model graphs: the grouped haptic CNN, the haptic LSTM, and the fusion head.

A Model is an ordered list of layers.  Layers are parameter holders with
pure forward/backward functions (the cache returned by forward carries
everything backward needs), so forward passes are reentrant.  Once a model
is built or loaded, only ``training`` changes its parameters, and its SGD
step, ``training.sgd_momentum_step``, is the one update rule.  All layers
accept a leading batch axis.

Every layer has parameters, ``forward(x, cache=True) -> (out, cache)`` and
``backward(cache, grad_out, input_grad=True) -> (grad_in, param_grads)``.
The Model sets both keywords: ``Model.forward`` asks for no cache, and
``Model.backward`` asks every layer but the first for its input gradient.
Every layer told not to build its input gradient returns None for it, so
no model builds the gradient of its input; the fusion head, one dense
layer, builds no input gradient at all.  A layer told to keep no cache may
return None for it; one whose cache is cheap ignores the keyword.  A layer
reshapes what it reads itself: the dense layer flattens its trailing
input shape and the LSTM reads the (C, T) instance time-major.

The three networks are made only by their builders, which ``BUILDERS``
names by the kind of model each returns.  A built model records that kind
and the builder's arguments other than the seed, so a checkpoint stores
which builder to call instead of a description of the graph.
"""

from dataclasses import fields
from math import prod

import numpy as np

from .engine import (
    ConvSpec,
    LayerParams,
    LstmParams,
    conv1d_backward,
    conv1d_forward,
    derive_seed,
    inner_product,
    inner_product_backward,
    lstm_backward,
    lstm_forward,
    relu,
    relu_backward,
)
from .errors import InvalidInputError, InvalidSpecError
from .haptic import INSTANCE_CHANNELS, RESAMPLE_LEN


class Layer:
    """Base of every layer.  Its ``reinit``, which its ``__init__`` calls,
    sets ``params`` to a parameter dataclass."""

    def param_items(self):
        """[(name, array)] for the fields of ``params``, in field order."""
        return [(f.name, getattr(self.params, f.name)) for f in fields(self.params)]


class Conv1dLayer(Layer):
    """Grouped temporal convolution followed by a ReLU.

    A (C, T) instance and a (B, C, T) batch run the same kernel, so an
    instance's output does not depend on the batch it is scored in.
    """

    def __init__(self, name, spec: ConvSpec, seed):
        self.name = name
        self.spec = spec
        self.reinit(seed)

    def forward(self, x, cache=True):
        pre, conv_cache = conv1d_forward(x, self.spec, self.params)
        return relu(pre), (conv_cache, pre)

    def backward(self, cache, grad_out, input_grad=True):
        conv_cache, pre = cache
        grad_x, gw, gb = conv1d_backward(self.spec, self.params, conv_cache,
                                         relu_backward(pre, grad_out), input_grad=input_grad)
        return grad_x, {"weights": gw, "bias": gb}

    def reinit(self, seed):
        self.params = LayerParams.for_conv(self.spec, seed)


class DenseLayer(Layer):
    """Affine map, optionally rectified, over a trailing ``in_shape``.

    The trailing axes are flattened into one feature axis on the way in and
    the input gradient is reshaped back to them.
    """

    def __init__(self, name, in_shape, out_dim, seed, activation=None):
        self.name = name
        self.in_shape = tuple(in_shape)
        self.out_dim = out_dim
        self.activation = activation
        self.reinit(seed)

    def forward(self, x, cache=True):
        lead = x.shape[:x.ndim - len(self.in_shape)]
        if x.shape[len(lead):] != self.in_shape:
            raise InvalidInputError(
                f"dense layer {self.name!r} expects trailing shape {self.in_shape}, "
                f"got input shape {x.shape}")
        x = x.reshape(lead + (-1,))
        pre = inner_product(x, self.params)
        if self.activation == "relu":
            return relu(pre), (x, pre)
        return pre, (x, None)

    def backward(self, cache, grad_out, input_grad=True):
        x, pre = cache
        if self.activation == "relu":
            grad_out = relu_backward(pre, grad_out)
        grad_x, gw, gb = inner_product_backward(x, self.params, grad_out, input_grad=input_grad)
        if grad_x is not None:
            grad_x = grad_x.reshape(x.shape[:-1] + self.in_shape)
        return grad_x, {"weights": gw, "bias": gb}

    def reinit(self, seed):
        self.params = LayerParams.for_dense(prod(self.in_shape), self.out_dim, seed)


class LstmLayer(Layer):
    """LSTM over a channel-major (..., C, T) instance, read time-major as
    (..., T, C); the input gradient is swapped back to (..., C, T)."""

    def __init__(self, name, input_size, hidden_size, seed):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.reinit(seed)

    def forward(self, x, cache=True):
        if x.ndim not in (2, 3):
            raise InvalidInputError(f"lstm layer {self.name!r} reads a (C, T) instance or "
                                    f"(B, C, T) batch, got shape {x.shape}")
        seq = np.swapaxes(x, -1, -2)
        if not cache:
            return lstm_forward(seq, self.params), None
        return lstm_forward(seq, self.params, return_cache=True)

    def backward(self, cache, grad_out, input_grad=True):
        grad_seq, gwx, gwh, gb = lstm_backward(self.params, cache, grad_out,
                                               input_grad=input_grad)
        grad_x = None if grad_seq is None else np.swapaxes(grad_seq, -1, -2)
        return grad_x, {"w_x": gwx, "w_h": gwh, "bias": gb}

    def reinit(self, seed):
        self.params = LstmParams.create(self.input_size, self.hidden_size, seed)


class Model:
    """Ordered, non-empty list of layers with a scalar score output.

    Every layer has parameters, and the last is the classifier.  A tap
    names a layer; tapping returns that layer's output, after its
    activation, and stops there: no later layer runs.
    """

    # the arguments, other than the seed, of the builder that made the
    # model; None for a model put together by hand
    builder_args = None

    def __init__(self, layers, kind="model"):
        self.layers = list(layers)
        self.kind = kind
        if not self.layers:
            raise InvalidSpecError(f"model {kind!r} has no layers")
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise InvalidSpecError(f"duplicate layer names: {names}")

    def layer(self, name):
        for l in self.layers:
            if l.name == name:
                return l
        raise InvalidSpecError(f"no layer named {name!r} in {self.kind}")

    def forward(self, x, tap=None):
        """Score of shape lead-dims (last axis squeezed) or, given a ``tap``,
        that layer's output alone: a tapped forward stops at its tap and runs
        no later layer.

        Scoring runs every layer with ``cache=False``: a layer whose cache
        costs work of its own, the LSTM with its per-step BPTT state, skips
        building it.
        """
        if tap is not None:
            self.layer(tap)  # fail fast on unknown taps
        h = x
        for l in self.layers:
            h, _ = l.forward(h, cache=False)
            if l.name == tap:
                return h
        return h[..., 0]

    def forward_cached(self, x):
        """Forward pass keeping per-layer caches for a later backward."""
        caches = []
        h = x
        for l in self.layers:
            h, cache = l.forward(h)
            caches.append(cache)
        return h[..., 0], caches

    def backward(self, caches, grad_score):
        """Backprop a score gradient; returns param grads keyed 'layer.param'.

        Only parameter gradients leave this method, so the first layer gets
        ``input_grad=False``: the gradient of the network input is never
        built.
        """
        grad = np.asarray(grad_score)[..., None]
        grads = {}
        for i in range(len(self.layers) - 1, -1, -1):
            l = self.layers[i]
            grad, layer_grads = l.backward(caches[i], grad, input_grad=i > 0)
            for pname, g in layer_grads.items():
                grads[f"{l.name}.{pname}"] = g
        return grads

    def named_params(self):
        """Yield (qualified name, value array) in graph order."""
        for l in self.layers:
            for pname, value in l.param_items():
                yield f"{l.name}.{pname}", value


# Haptic CNN shape: three stride-2 grouped convolutions keep the 32 signal
# groups separate (kernel 7/5/3, pads 3/2/1) so 150 steps shrink to 19
# before the fully connected layer mixes channels.
HAPTIC_CONV_SPECS = (
    ConvSpec(32, 64, 7, stride=2, pad=3, groups=32),
    ConvSpec(64, 64, 5, stride=2, pad=2, groups=32),
    ConvSpec(64, 64, 3, stride=2, pad=1, groups=32),
)
LSTM_HIDDEN = 10


def conv_stack_out_len():
    """Time steps left after the conv stack: 150 -> 19."""
    t = RESAMPLE_LEN
    for spec in HAPTIC_CONV_SPECS:
        t = spec.out_len(t)
    return t


def build_haptic_cnn(seed=0) -> Model:
    """32x150 input -> three grouped conv+ReLU blocks -> fc over the flattened
    64x19 conv3 output -> score."""
    layers = []
    for i, spec in enumerate(HAPTIC_CONV_SPECS, start=1):
        layers.append(Conv1dLayer(f"conv{i}", spec,
                                  derive_seed(seed, f"conv{i}.weights")))
    conv3_shape = (HAPTIC_CONV_SPECS[-1].out_channels, conv_stack_out_len())
    layers.append(DenseLayer("fc", conv3_shape, 1, derive_seed(seed, "fc.weights")))
    # tapping "conv3" yields the rectified conv3 output
    return _built(Model(layers, kind="haptic_cnn"))


def build_haptic_lstm(seed=0) -> Model:
    """Same 32x150 input read time-major: LSTM(10) -> fc(10)+ReLU -> score."""
    layers = [
        LstmLayer("lstm", INSTANCE_CHANNELS, LSTM_HIDDEN, derive_seed(seed, "lstm.weights")),
        DenseLayer("fc1", (LSTM_HIDDEN,), LSTM_HIDDEN, derive_seed(seed, "fc1.weights"),
                   activation="relu"),
        DenseLayer("fc2", (LSTM_HIDDEN,), 1, derive_seed(seed, "fc2.weights")),
    ]
    return _built(Model(layers, kind="haptic_lstm"))


def build_linear_classifier(feature_dim, seed=0) -> Model:
    """Single affine scorer over a fixed feature vector (the fusion head)."""
    layers = [DenseLayer("fc", (feature_dim,), 1, derive_seed(seed, "fc.weights"))]
    return _built(Model(layers, kind="fusion"), feature_dim=feature_dim)


def _built(model, **args):
    """``model``, recording ``args`` as its builder's arguments."""
    model.builder_args = args
    return model


# each builder under the kind of the model it returns
BUILDERS = {
    "haptic_cnn": build_haptic_cnn,
    "haptic_lstm": build_haptic_lstm,
    "fusion": build_linear_classifier,
}
