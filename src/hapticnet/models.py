"""Model graphs: the grouped haptic CNN, the haptic LSTM, and the fusion head.

A Model is an ordered list of layers.  Layers are parameter holders with
pure forward/backward functions (the cache returned by forward carries
everything backward needs), so forward passes are reentrant; only the
optimizer mutates parameters.  All layers accept a leading batch axis.

Every layer has ``forward(x, cache=True) -> (out, cache)`` and
``backward(cache, grad_out, input_grad=True) -> (grad_in, param_grads)``.
The Model sets both keywords from the graph: ``Model.forward`` asks for
no cache, and ``Model.backward`` asks a layer for its input gradient only
when a layer before it has parameters.  A layer told not to may return None
in place of what was not asked for; one whose cache or input gradient is
cheap ignores the keyword.
"""

from dataclasses import fields

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
from .errors import HapticNetError, InvalidInputError, InvalidSpecError
from .haptic import INSTANCE_CHANNELS, RESAMPLE_LEN


class Layer:
    """Base of every layer.  A layer with parameters sets ``params`` to a
    parameter dataclass in its ``reinit``, which its ``__init__`` calls."""

    params = None

    def param_items(self):
        """[(name, array)] for the fields of ``params``, in field order."""
        if self.params is None:
            return []
        return [(f.name, getattr(self.params, f.name)) for f in fields(self.params)]


class Conv1dLayer(Layer):
    """Grouped temporal convolution followed by a ReLU.

    A (C, T) instance and a (B, C, T) batch run the same kernel, so an
    instance's output does not depend on the batch it is scored in.
    """

    kind = "conv1d"

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

    def describe(self):
        return {"kind": self.kind, "name": self.name, "spec": self.spec.to_dict()}


class DenseLayer(Layer):
    kind = "dense"

    def __init__(self, name, in_dim, out_dim, seed, activation=None):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.reinit(seed)

    def forward(self, x, cache=True):
        pre = inner_product(x, self.params)
        if self.activation == "relu":
            return relu(pre), (x, pre)
        return pre, (x, None)

    def backward(self, cache, grad_out, input_grad=True):
        x, pre = cache
        if self.activation == "relu":
            grad_out = relu_backward(pre, grad_out)
        grad_x, gw, gb = inner_product_backward(x, self.params, grad_out)
        return grad_x, {"weights": gw, "bias": gb}

    def reinit(self, seed):
        self.params = LayerParams.for_dense(self.in_dim, self.out_dim, seed)

    def describe(self):
        return {"kind": self.kind, "name": self.name, "in_dim": self.in_dim,
                "out_dim": self.out_dim, "activation": self.activation}


class LstmLayer(Layer):
    kind = "lstm"

    def __init__(self, name, input_size, hidden_size, seed):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.reinit(seed)

    def forward(self, x, cache=True):
        if not cache:
            return lstm_forward(x, self.params), None
        return lstm_forward(x, self.params, return_cache=True)

    def backward(self, cache, grad_out, input_grad=True):
        grad_seq, gwx, gwh, gb = lstm_backward(self.params, cache, grad_out,
                                               input_grad=input_grad)
        return grad_seq, {"w_x": gwx, "w_h": gwh, "bias": gb}

    def reinit(self, seed):
        self.params = LstmParams.create(self.input_size, self.hidden_size, seed)

    def describe(self):
        return {"kind": self.kind, "name": self.name,
                "input_size": self.input_size, "hidden_size": self.hidden_size}


class FlattenLayer(Layer):
    kind = "flatten"

    def __init__(self, name, in_shape):
        self.name = name
        self.in_shape = tuple(in_shape)

    def forward(self, x, cache=True):
        if x.shape[x.ndim - len(self.in_shape):] != self.in_shape:
            raise InvalidInputError(
                f"flatten {self.name!r} expects trailing shape {self.in_shape}, "
                f"got input shape {x.shape}")
        lead = x.shape[:x.ndim - len(self.in_shape)]
        return x.reshape(lead + (-1,)), lead

    def backward(self, cache, grad_out, input_grad=True):
        return grad_out.reshape(cache + self.in_shape), {}

    def describe(self):
        return {"kind": self.kind, "name": self.name, "in_shape": list(self.in_shape)}


class TimeMajorLayer(Layer):
    """(..., C, T) -> (..., T, C) so sequence models read time steps."""

    kind = "time_major"

    def __init__(self, name):
        self.name = name

    def forward(self, x, cache=True):
        return np.swapaxes(x, -1, -2), None

    def backward(self, cache, grad_out, input_grad=True):
        return np.swapaxes(grad_out, -1, -2), {}

    def describe(self):
        return {"kind": self.kind, "name": self.name}


class Model:
    """Ordered layer list with a scalar score output.

    A tap names a layer; tapping returns that layer's output, after its
    activation.
    """

    def __init__(self, layers, input_shape, kind="model"):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.kind = kind
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise InvalidSpecError(f"duplicate layer names: {names}")

    def layer(self, name):
        for l in self.layers:
            if l.name == name:
                return l
        raise InvalidSpecError(f"no layer named {name!r} in {self.kind}")

    def forward(self, x, tap=None):
        """Score of shape lead-dims (last axis squeezed); optionally also the
        output of the tap layer.

        Scoring runs every layer with ``cache=False``: a layer whose cache
        costs work of its own, the LSTM with its per-step BPTT state, skips
        building it.
        """
        if tap is not None:
            self.layer(tap)  # fail fast on unknown taps
        tapped = None
        h = x
        for l in self.layers:
            h, _ = l.forward(h, cache=False)
            if l.name == tap:
                tapped = h
        score = h[..., 0]
        return (score, tapped) if tap is not None else score

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

        Only parameter gradients leave this method, so the pass stops at the
        first parameterized layer, which gets ``input_grad=False``: the
        gradient of the network input is never built.
        """
        grad = np.asarray(grad_score)[..., None]
        grads = {}
        first = next((i for i, l in enumerate(self.layers) if l.param_items()),
                     len(self.layers))
        for i in range(len(self.layers) - 1, first - 1, -1):
            l = self.layers[i]
            grad, layer_grads = l.backward(caches[i], grad, input_grad=i > first)
            for pname, g in layer_grads.items():
                grads[f"{l.name}.{pname}"] = g
        return grads

    def named_params(self):
        """Yield (qualified name, value array) in graph order."""
        for l in self.layers:
            for pname, value in l.param_items():
                yield f"{l.name}.{pname}", value

    def classifier_layer(self):
        """The final parameterized layer (the loss-facing classifier)."""
        for l in reversed(self.layers):
            if l.param_items():
                return l
        raise InvalidSpecError("model has no parameterized layers")

    def parameter_count(self):
        return sum(v.size for _, v in self.named_params())

    def describe(self):
        return {
            "kind": self.kind,
            "input_shape": list(self.input_shape),
            "layers": [l.describe() for l in self.layers],
        }


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
    """32x150 input -> three grouped conv+ReLU blocks -> flatten -> score."""
    layers = []
    for i, spec in enumerate(HAPTIC_CONV_SPECS, start=1):
        layers.append(Conv1dLayer(f"conv{i}", spec,
                                  derive_seed(seed, f"conv{i}.weights")))
    t_out = conv_stack_out_len()
    flat = HAPTIC_CONV_SPECS[-1].out_channels * t_out
    layers.append(FlattenLayer("flatten", in_shape=(HAPTIC_CONV_SPECS[-1].out_channels, t_out)))
    layers.append(DenseLayer("fc", flat, 1, derive_seed(seed, "fc.weights")))
    # tapping "conv3" yields the rectified conv3 output
    return Model(layers, input_shape=(INSTANCE_CHANNELS, RESAMPLE_LEN), kind="haptic_cnn")


def build_haptic_lstm(seed=0) -> Model:
    """Same 32x150 input read time-major: LSTM(10) -> fc(10)+ReLU -> score."""
    layers = [
        TimeMajorLayer("time_major"),
        LstmLayer("lstm", INSTANCE_CHANNELS, LSTM_HIDDEN, derive_seed(seed, "lstm.weights")),
        DenseLayer("fc1", LSTM_HIDDEN, LSTM_HIDDEN, derive_seed(seed, "fc1.weights"),
                   activation="relu"),
        DenseLayer("fc2", LSTM_HIDDEN, 1, derive_seed(seed, "fc2.weights")),
    ]
    return Model(layers, input_shape=(INSTANCE_CHANNELS, RESAMPLE_LEN), kind="haptic_lstm")


def build_linear_classifier(feature_dim, seed=0) -> Model:
    """Single affine scorer over a fixed feature vector (the fusion head)."""
    layers = [DenseLayer("fc", feature_dim, 1, derive_seed(seed, "fc.weights"))]
    return Model(layers, input_shape=(feature_dim,), kind="fusion")


_LAYER_BUILDERS = {
    "conv1d": lambda d: Conv1dLayer(d["name"], ConvSpec(**d["spec"]), seed=0),
    "dense": lambda d: DenseLayer(d["name"], d["in_dim"], d["out_dim"], seed=0,
                                  activation=d["activation"]),
    "lstm": lambda d: LstmLayer(d["name"], d["input_size"], d["hidden_size"], seed=0),
    "flatten": lambda d: FlattenLayer(d["name"], d["in_shape"]),
    "time_major": lambda d: TimeMajorLayer(d["name"]),
}

# the activations each layer kind runs; a conv layer is always conv+ReLU
_ACTIVATIONS = {"conv1d": ("relu",), "dense": (None, "relu")}


def model_from_description(desc: dict) -> Model:
    """Rebuild a Model skeleton from Model.describe() output.

    Parameters are initialized with seed 0 placeholders and must be loaded
    from checkpoint tensors afterwards.  Keys the graph does not use, such as
    the empty tap alias map and the conv layers' ``"activation": "relu"``
    that older descriptions carry, are ignored.  An activation the layer
    does not run (anything but ``None`` or ``"relu"`` on a dense layer, or
    anything but ``"relu"`` on a conv layer) fails, naming the layer.  A
    zero input of ``input_shape`` is run through the rebuilt layers, so an
    input shape or a flatten shape that the graph cannot take fails here,
    naming the layer, rather than at the first score.
    """
    if not isinstance(desc, dict):
        raise InvalidSpecError(f"graph description is a {type(desc).__name__}, not an object")
    for key in ("layers", "input_shape"):
        if key not in desc:
            raise InvalidSpecError(f"graph description lacks field {key!r}")
    layers = []
    for i, d in enumerate(desc["layers"]):
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind not in _LAYER_BUILDERS:
            raise InvalidSpecError(f"graph layer {i}: unknown layer kind {kind!r}")
        where = f"graph layer {i} ({kind} {d.get('name')!r})"
        try:
            layers.append(_LAYER_BUILDERS[kind](d))
        except KeyError as e:
            raise InvalidSpecError(f"{where} lacks field {e}") from None
        except TypeError as e:  # a field of the wrong type, or one the layer does not take
            raise InvalidSpecError(f"{where} has a bad field: {e}") from None
        if kind in _ACTIVATIONS and d.get("activation", "relu") not in _ACTIVATIONS[kind]:
            raise InvalidSpecError(f"{where} has activation {d['activation']!r}, which it "
                                   f"does not run; it runs {list(_ACTIVATIONS[kind])}")
    shape = desc["input_shape"]
    if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in shape):
        raise InvalidSpecError(f"graph input_shape {shape!r} is not a list of positive sizes")
    model = Model(layers, input_shape=shape, kind=desc.get("kind", "model"))
    h = np.zeros(model.input_shape)
    for i, l in enumerate(model.layers):
        try:
            h, _ = l.forward(h, cache=False)
        except (HapticNetError, ValueError) as e:
            raise InvalidSpecError(
                f"graph input_shape {shape} does not fit layer {i} "
                f"({l.kind} {l.name!r}): {e}") from None
    return model
