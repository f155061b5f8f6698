"""Run one workload, measure it, check it, and name every metric.

`run` returns the result dict the command prints: the end-to-end metrics
from an untraced run, or the per-layer metrics from a traced one.  A run is
made of rounds, each one set-up and one timed pass, so set-up times are
sampled over the whole run as pass times are.  It ends on a whole cycle of
the workload's passes (see pb_workloads).  Per-layer times and counts are
given per round.
"""

import contextlib
import ctypes
import glob
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

from hapticnet import evaluation, features, haptic, models, synth, training, visual
from hapticnet.engine import LOSSES
from hapticnet.io import formats, manifest as manifests

from pb_trace import Ledger, Tracer
from pb_workloads import FULL, WORKLOADS

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "inst_per_s": "inst/s",
    "item_ms": "ms",
    "input_mb": "MB",
}

# spans reported as time, as "<span>_s"
TIMED_SPANS = (
    "synth.make_trial", "io.write_trial", "io.read_trial", "io.validate",
    "io.read_feature_maps", "haptic.pca_fit", "haptic.augment", "engine.loss",
    "engine.sgd", "training.train", "features.extract", "features.combine",
    "features.fuse_train", "visual.pool", "evaluation.split", "evaluation.evaluate",
)
# spans also reported as a call count, as "<span>_calls"
CALL_SPANS = ("synth.make_trial", "io.write_trial", "io.read_trial")
MODEL_LAYERS = ("conv1", "conv2", "conv3", "fc", "lstm", "fc1", "fc2", "fusion_fc")


def _layer_metric_units():
    units = {}
    for span in CALL_SPANS:
        units[span + "_s"] = "s"
        units[span + "_calls"] = "count"
    units["io.bytes_written"] = "B"
    units["io.bytes_read"] = "B"
    for span in TIMED_SPANS:
        units.setdefault(span + "_s", "s")
    units["haptic.zscore_calls"] = "count"
    units["haptic.instances"] = "count"
    for layer in MODEL_LAYERS:
        units[f"models.{layer}.fwd_s"] = "s"
        units[f"models.{layer}.bwd_s"] = "s"
        units[f"models.{layer}.fwd_calls"] = "count"
    units["training.steps"] = "count"
    units["training.epochs"] = "count"
    units["training.other_s"] = "s"
    units["evaluation.score_calls"] = "count"
    units["proc.user_s"] = "s"
    units["proc.sys_s"] = "s"
    units["proc.minflt"] = "count"
    return units


PER_LAYER = _layer_metric_units()


def _count_bytes(key, *suffixes):
    def after(ledger, args, _):
        for suffix in ("",) + suffixes:
            path = str(args[0]) + suffix
            if os.path.exists(path):
                ledger.counts[key] += os.path.getsize(path)
    return after


def _count_instances(ledger, _, instances):
    ledger.counts["haptic.instances"] += len(instances)


def _count_epochs(ledger, _, result):
    ledger.counts["training.epochs"] += len(result.loss_curve)


def _instrumented(tracer, build, prefix):
    """A model builder whose models have traced layer forward and backward."""
    def built(*args, **kwargs):
        model = build(*args, **kwargs)
        for layer in model.layers:
            if layer.param_items():
                tracer.patch(layer, "forward", f"models.{prefix}{layer.name}.fwd")
                tracer.patch(layer, "backward", f"models.{prefix}{layer.name}.bwd")
        return model
    return built


def instrument(tracer):
    """Wrap the public functions of every hapticnet layer the workloads reach."""
    t = tracer
    t.patch(synth, "make_trial", "synth.make_trial")
    t.patch(formats, "write_trial_file", "io.write_trial",
            _count_bytes("io.bytes_written", ".meta.json"))
    t.patch(formats, "write_feature_maps", "io.write_feature_maps",
            _count_bytes("io.bytes_written"))
    t.patch(formats, "read_trial_file", "io.read_trial", _count_bytes("io.bytes_read"))
    t.patch(formats, "read_feature_maps", "io.read_feature_maps", _count_bytes("io.bytes_read"))
    t.patch(manifests, "validate", "io.validate")
    t.patch(haptic, "pca_fit", "haptic.pca_fit")
    t.patch(haptic, "augment", "haptic.augment", _count_instances)
    t.patch(haptic, "zscore_normalize", "haptic.zscore")
    for loss in list(LOSSES):
        t.patch_item(LOSSES, loss, "engine.loss")
    t.patch(training, "sgd_momentum_step", "engine.sgd")
    t.patch(training, "train", "training.train", _count_epochs)
    t.patch(features, "extract_activations", "features.extract")
    t.patch(features, "combine_instances", "features.combine")
    t.patch(features, "fuse_and_train", "features.fuse_train")
    t.patch(visual, "pool_normalize", "visual.pool")
    t.patch(evaluation, "make_split", "evaluation.split")
    t.patch(evaluation, "evaluate", "evaluation.evaluate")
    for builder in ("build_haptic_cnn", "build_haptic_lstm"):
        t.swap(models, builder, _instrumented(t, getattr(models, builder), ""))
    t.swap(features, "build_linear_classifier",
           _instrumented(t, features.build_linear_classifier, "fusion_"))


def layer_values(ledger):
    """Per-layer metric values from one ledger's totals (proc.* excluded)."""
    values = {}
    for span in TIMED_SPANS:
        values[span + "_s"] = ledger.time[span]
    for span in CALL_SPANS:
        values[span + "_calls"] = ledger.calls[span]
    for layer in MODEL_LAYERS:
        span = f"models.{layer}"
        values[span + ".fwd_s"] = ledger.time[span + ".fwd"]
        values[span + ".bwd_s"] = ledger.time[span + ".bwd"]
        values[span + ".fwd_calls"] = ledger.calls[span + ".fwd"]
    for key in ("io.bytes_written", "io.bytes_read", "haptic.instances", "training.epochs"):
        values[key] = ledger.counts[key]
    values["haptic.zscore_calls"] = ledger.calls["haptic.zscore"]
    values["evaluation.score_calls"] = ledger.calls["evaluation.score"]
    values["training.steps"] = ledger.calls_under[("training.train", "engine.loss")]
    values["training.other_s"] = ledger.self_time("training.train")
    return values


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _tail(values, high):
    """The worst value with ten samples beyond it; None below forty samples."""
    if len(values) < 40:
        return None
    ordered = sorted(values)
    return ordered[-11] if high else ordered[10]


def _fast(values, high):
    """The 2nd percentile from the fast end: the 98th of a rate, the 2nd of a time.

    On a shared host a core switches between states up to 2x apart in
    speed, for seconds to minutes at a time, in a mix that differs from run
    to run.  The fast end of many short samples comes from the fast state
    and so moves less between runs than the median does.
    """
    q = statistics.quantiles(values, n=50)
    return q[-1] if high else q[0]


def fast_rate(epochs):
    """Instances per second over every kind of epoch, at the fast end.

    Each kind's 98th-percentile rate stands for all of its instances, so a
    slower kind weighs by the time its instances take.
    """
    total = seconds = 0.0
    for pairs in epochs.values():
        n = sum(i for i, _ in pairs)
        total += n
        seconds += n / _fast([i / s for i, s in pairs], high=True)
    return total / seconds


def fast_item_s(items):
    """Latency of one item at the fast end: each kind's 2nd percentile, weighted by count."""
    count = sum(len(v) for v in items.values())
    return sum(len(v) * _fast(v, high=False) for v in items.values()) / count


def run(workload, seed, seconds, trace, work_dir, size=FULL):
    """One benchmark run; returns (result printed last, record of the run)."""
    tracer = Tracer()
    if trace:
        instrument(tracer)
    data_dir = work_dir / f"data-{os.getpid()}"
    wl = WORKLOADS[workload](seed, size, data_dir, tracer if trace else None)
    ledger = Ledger()
    setup_s, pass_s = [], []
    rusage = {"proc.user_s": 0.0, "proc.sys_s": 0.0, "proc.minflt": 0}
    try:
        tracer.ledger = ledger
        start = perf_counter()
        while not pass_s or len(pass_s) % wl.cycle or perf_counter() - start < seconds:
            wl.reset()
            t0 = perf_counter()
            wl.setup()
            setup_s.append(perf_counter() - t0)
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = perf_counter()
            wl.run_pass()
            pass_s.append(perf_counter() - t0)
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            rusage["proc.user_s"] += ru1.ru_utime - ru0.ru_utime
            rusage["proc.sys_s"] += ru1.ru_stime - ru0.ru_stime
            rusage["proc.minflt"] += ru1.ru_minflt - ru0.ru_minflt
        tracer.ledger = None
        problems = wl.checks()
    finally:
        tracer.ledger = None
        tracer.restore()
        wl.close()
        with contextlib.suppress(OSError):
            work_dir.rmdir()  # only when no other run is using it

    rounds = len(pass_s)
    samples = wl.samples
    by_kind = {}
    for kind, pairs in samples.epochs.items():
        rates = [i / s for i, s in pairs]
        by_kind[f"inst_per_s.{kind}"] = {"fast": _fast(rates, high=True),
                                         "median": statistics.median(rates),
                                         "tail": _tail(rates, high=False)}
    for kind, times in samples.items.items():
        ms = [1e3 * s for s in times]
        by_kind[f"item_ms.{kind}"] = {"fast": _fast(ms, high=False),
                                      "median": statistics.median(ms),
                                      "tail": _tail(ms, high=True)}
    proc = {name: total / rounds for name, total in rusage.items()}
    if trace:
        metrics = {name: value / rounds for name, value in layer_values(ledger).items()}
        metrics.update(proc)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.fmean(pass_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "inst_per_s": fast_rate(samples.epochs),
            "item_ms": 1e3 * fast_item_s(samples.items),
            "input_mb": wl.input_bytes / 1e6,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": wl.ops.attempted,
        "failed": wl.ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "samples": {"rounds": rounds,
                    **{f"epochs.{k}": len(v) for k, v in samples.epochs.items()},
                    **{f"items.{k}": len(v) for k, v in samples.items.items()}},
        "setup_s": setup_s,
        "pass_s": pass_s,
        "pass_s_median": statistics.median(pass_s),
        "by_kind": by_kind,
        "proc_per_pass": proc,
        "problems": problems,
        "errors": wl.ops.errors,
        "machine": machine_record(),
        "argv": sys.argv,
    }
    return result, record
