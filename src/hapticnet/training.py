"""Two-phase training: logistic-loss pretraining, hinge-loss fine-tuning.

Both phases run minibatch SGD with classical momentum at the fixed ``LR``
and ``MOMENTUM``; the model decides which phases run (see ``train``).
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .engine import LOSSES, derive_seed, sgd_momentum_step
from .errors import InvalidInputError, InvalidSpecError, NonFiniteGradientError

LR = 0.01        # SGD step size of both phases
MOMENTUM = 0.9   # classical momentum of both phases


@dataclass
class TrainSchedule:
    """Epoch counts, batch size and shuffle seed of one run: ``epochs`` of
    logistic pretraining, ``finetune_epochs`` of hinge fine-tuning."""

    epochs: int = 200
    batch_size: int = 1000
    seed: int = 0
    finetune_epochs: int = None  # defaults to ``epochs``

    def __post_init__(self):
        if self.finetune_epochs is None:
            self.finetune_epochs = self.epochs
        for field in ("epochs", "batch_size", "finetune_epochs"):
            count = getattr(self, field)
            if isinstance(count, bool) or not isinstance(count, Integral) or count < 1:
                raise InvalidSpecError(
                    f"bad schedule: {field} must be a positive integer, got {count!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise InvalidSpecError(f"bad schedule: seed must be an integer, got {self.seed!r}")


@dataclass
class TrainResult:
    model: object
    loss_curve: list            # per-epoch mean training loss, both phases
    phase_boundaries: dict      # phase name -> (start epoch, end epoch)
    diverged: bool = False


def _check_training_inputs(instances, labels):
    x = np.asarray(instances, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.shape[0] == 0:
        raise InvalidInputError("no training instances")
    if y.shape != (x.shape[0],):
        raise InvalidInputError(f"labels shape {y.shape} != ({x.shape[0]},)")
    if not np.all(np.abs(y) == 1.0):
        raise InvalidInputError("labels must be -1 or +1")
    finite = np.isfinite(x).reshape(x.shape[0], -1).all(axis=1)
    if not finite.all():
        raise InvalidInputError(
            f"training instance {np.flatnonzero(~finite)[0]} holds a non-finite value")
    return x, y


def _snapshot(params):
    return [v.copy() for _, v in params]


def _restore(params, snap):
    for (_, v), sv in zip(params, snap):
        v[:] = sv


# a diverging step overflows; the checks below report that through the
# result, so numpy's overflow and invalid-value warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def _run_phase(model, x, y, loss_name, epochs, schedule, rng, curve):
    """One loss phase of minibatch SGD; returns False on divergence.

    The phase owns the momentum: every parameter's velocity starts at zero
    here and is dropped when the phase ends.
    """
    loss_fn = LOSSES[loss_name]
    n = x.shape[0]
    batch = min(schedule.batch_size, n)
    params = list(model.named_params())
    velocities = [np.zeros_like(v) for _, v in params]
    snap = _snapshot(params)
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        try:
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                xb, yb = x[idx], y[idx]
                score, caches = model.forward_cached(xb)
                losses, grad_s = loss_fn(score, yb)
                grads = model.backward(caches, grad_s / idx.size)
                for (name, value), vel in zip(params, velocities):
                    sgd_momentum_step(value, vel, grads[name], lr=LR, momentum=MOMENTUM,
                                      name=name)
                epoch_loss += float(np.sum(losses))
        except NonFiniteGradientError:
            _restore(params, snap)
            return False
        mean_loss = epoch_loss / n
        if not np.isfinite(mean_loss):
            _restore(params, snap)
            return False
        curve.append(mean_loss)
        snap = _snapshot(params)
    return True


def train(model, instances, labels, schedule: TrainSchedule) -> TrainResult:
    """Train ``model`` in place following the schedule.

    A model of more than one layer runs logistic pretraining for
    ``epochs``, reinitializes its last layer (the classifier), then
    fine-tunes every layer with hinge loss for ``finetune_epochs``.  A model
    that is its classifier alone, such as the fusion head, has nothing the
    reinit would keep from pretraining, so it runs the hinge phase alone.
    Each phase starts its momentum from zero.  Batches are drawn from a
    seeded shuffle each epoch.  On divergence the last finite epoch's
    parameters are restored and the result is flagged.
    """
    x, y = _check_training_inputs(instances, labels)
    rng = np.random.Generator(np.random.PCG64(derive_seed(schedule.seed, "batch-shuffle")))
    curve = []
    boundaries = {}

    def phase(loss_name, epochs):
        start = len(curve)
        ok = _run_phase(model, x, y, loss_name, epochs, schedule, rng, curve)
        boundaries[loss_name] = (start, len(curve))
        return ok

    if len(model.layers) == 1:
        ok = phase("hinge", schedule.finetune_epochs)
    else:
        ok = phase("logistic", schedule.epochs)
        if ok:
            classifier = model.layers[-1]
            classifier.reinit(derive_seed(schedule.seed, f"{classifier.name}.reinit"))
            ok = phase("hinge", schedule.finetune_epochs)

    return TrainResult(model=model, loss_curve=curve,
                       phase_boundaries=boundaries, diverged=not ok)
