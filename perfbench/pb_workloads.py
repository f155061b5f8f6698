"""The benchmark's two workloads, the glue they need, and their checks.

Every workload has a set-up and a timed pass; a run repeats rounds of
one set-up followed by one pass until its seconds are spent and its last
cycle is whole.  A cycle is one round on ingest, and one round per split
on cnn_lstm, whose round k handles split k mod 3.  All inputs derive from
the run seed.  hapticnet has no experiment runner yet, so this module
carries the thin glue one would own: reading a manifest into HapticTrials,
fitting the per-EP electrode PCA on a split's training objects, and looping
over (adjective, seed) splits.
"""

import shutil
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from hapticnet import evaluation, features, haptic, models, synth, training, visual
from hapticnet.errors import HapticNetError
from hapticnet.io import formats, manifest as manifests

import pb_oracles as oracles

# The adjectives whose classes synth guarantees two objects each.
ADJECTIVES = ("absorbent", "bumpy", "compressible")
# make_split's 90/10 default raises InfeasibleSplitError for some label
# counts synth can draw (16 objects with 14 positive); at 70/30 every count
# from 2 to n-2 is feasible.  Over seeds 1 to 1000 the test side held 7 of
# 24 objects every time, and 2 or 3 of 8.
SPLIT_RATIO = 0.7
# Absorbent is a pure function of the factor haptic sees at full strength,
# and the fusion head fits the training objects, so its fused AUC has a
# floor; the haptic-only AUCs after a few epochs of the default schedule
# have none.
ABSORBENT_FUSED_AUC_FLOOR = 0.5
INSTANCES_PER_TRIAL = len(haptic.FINGERS) * len(haptic.OFFSETS)
# The haptic networks train in minibatches of 128, the step shape of the
# baseline timings in ROADMAP.md.  With 24 objects a split trains on 17
# objects, 170 instances, so every epoch is one step of 128 and one of 42.
BATCH_SIZE = 128


@dataclass(frozen=True)
class Size:
    objects: int = 24              # cnn_lstm: 17 train, 7 test per split
    ingest_objects: int = 8        # 64 trial files, rounds of about 3 s; no step shape
    adjectives: tuple = ADJECTIVES
    cnn_epochs: tuple = (6, 2)     # (logistic, hinge) epochs of the two-phase schedule
    lstm_epochs: tuple = (8, 4)
    fusion_epochs: int = 50


FULL = Size()
# Small enough for the test suite: two splits (a cycle of two rounds), short training.
SMOKE = Size(objects=6, ingest_objects=6, adjectives=("absorbent", "bumpy"),
             cnn_epochs=(2, 1), lstm_epochs=(2, 1), fusion_epochs=5)


class Samples:
    """Repeated short measurements inside one run, by the kind of work.

    `epochs` holds (instances, seconds) pairs: a training epoch of a
    network, or an augment call on ingest.  `items` holds the latency of
    one item: a single-instance score of a network, or a trial-file read.
    """

    def __init__(self):
        self.epochs = defaultdict(list)
        self.items = defaultdict(list)


def object_labels(label_rows):
    return {obj: labels for obj, _, labels in label_rows}


def fit_pca(trials, train_ids):
    """Per-EP electrode PCA over z-scored samples of the training objects only."""
    train = [t for t in trials if t.object_id in train_ids]
    pca = {}
    for ep in haptic.EPS:
        blocks = []
        for trial in train:
            for finger in haptic.FINGERS:
                chans = trial.channels(finger, ep)
                blocks.append(np.stack(
                    [haptic.zscore_normalize(chans[e]) for e in haptic.ELECTRODES], axis=1))
        pca[ep] = haptic.pca_fit(np.concatenate(blocks))
    return pca


def read_trials(root, manifest, read_s, ops):
    """Read every trial file of a manifest into HapticTrials, timing each read."""
    signals = {}
    for entry in manifest.trials:
        t0 = perf_counter()
        chans = ops.attempt(formats.read_trial_file, root / entry["path"])
        read_s.append(perf_counter() - t0)
        if chans is not None:
            key = (entry["object_id"], entry["trial"])
            signals.setdefault(key, {})[(entry["finger"], entry["ep"])] = chans
    return [haptic.HapticTrial(object_id=obj, trial_index=t, signals=s)
            for (obj, t), s in sorted(signals.items())]


class Ops:
    """Counts operations attempted and failed; a failed one yields None."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except HapticNetError as e:
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {e}")
            return None


class Workload:
    cycle = 1   # rounds in one cycle of the workload's passes

    def __init__(self, seed, size, data_dir, tracer):
        self.seed = seed
        self.size = size
        self.data_dir = data_dir
        self.tracer = tracer
        self.config = synth.two_cue_config(n_objects=self.n_objects(size), n_trials=1,
                                           seed=seed)
        self.samples = Samples()
        self.ops = Ops()
        self.input_bytes = 0
        self.rounds = 0
        self.first = {}         # full outputs of the first pass of each turn, for the checks
        self.summaries = {}     # a small fingerprint of every pass, by turn

    @property
    def turn(self):
        """Which pass of the cycle the current round makes."""
        return self.rounds % self.cycle

    def run_pass(self):
        out = self.timed_pass()
        self.first.setdefault(self.turn, out)
        self.summaries.setdefault(self.turn, []).append(self.summary(out))
        self.rounds += 1

    def checks(self):
        problems = []
        for turn, out in sorted(self.first.items()):
            problems += self.check(turn, out)
        if any(s != seq[0] for seq in self.summaries.values() for s in seq):
            problems.append("passes with the same inputs gave different outputs")
        return problems

    def close(self):
        pass


class Ingest(Workload):
    """Disk path: generate, validate, read, PCA-fit and augment."""

    @staticmethod
    def n_objects(size):
        return size.ingest_objects

    def reset(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def setup(self):
        self.manifest_path = synth.synth_generate(self.config, self.data_dir)
        self.input_bytes = sum(p.stat().st_size for p in self.data_dir.rglob("*") if p.is_file())

    def close(self):
        self.reset()

    def timed_pass(self):
        root = self.data_dir
        manifest = manifests.load_manifest(self.manifest_path)
        findings = manifests.validate(manifest, root)
        labels = object_labels(formats.read_labels_csv(root / manifest.labels_path))
        trials = read_trials(root, manifest, self.samples.items["read"], self.ops)
        grids = {v["object_id"]: self.ops.attempt(formats.read_feature_maps, root / v["path"])
                 for v in manifest.visual}
        splits = [self.ops.attempt(self.split_task, manifest.object_ids(), labels, adj, trials)
                  for adj in self.size.adjectives]
        return {"findings": findings, "trials": trials, "grids": grids, "splits": splits}

    def split_task(self, object_ids, labels, adjective, trials):
        split = evaluation.make_split(object_ids, labels, adjective,
                                      ratio=SPLIT_RATIO, seed=self.seed)
        pca = fit_pca(trials, set(split.train_ids))
        per_trial = []
        for trial in trials:
            t0 = perf_counter()
            instances = haptic.augment(trial, pca)
            self.samples.epochs["augment"].append((len(instances), perf_counter() - t0))
            per_trial.append(instances)
        return {"split": split, "pca": pca, "instances": per_trial}

    def summary(self, out):
        return (len(out["findings"]), tuple(
            None if s is None else
            (s["split"].test_ids, float(sum(i.values.sum() for it in s["instances"] for i in it)))
            for s in out["splits"]))

    def check(self, _, out):
        problems = [f"validate: {f}" for f in out["findings"]]
        ids, z, _ = synth.object_factors(self.config)
        factors = dict(zip(ids, z))
        for trial in out["trials"]:
            expected = synth.make_trial(self.config, trial.object_id,
                                        factors[trial.object_id], trial.trial_index)
            for key, chans in trial.signals.items():
                for name, values in chans.items():
                    ref = expected.signals[key][name]
                    if values.shape != ref.shape or np.any(np.abs(values - ref) > 6e-8 * np.abs(ref)):
                        problems.append(f"{trial.object_id}/{trial.trial_index} {key} {name}: "
                                        "read-back differs from make_trial beyond %.8g")
        for obj, grids in out["grids"].items():
            ref = synth.make_visual_grids(self.config, obj, factors[obj])
            if grids is None or not np.allclose(grids, ref, rtol=1.2e-7, atol=0):
                problems.append(f"{obj}: feature maps differ from make_visual_grids beyond float32")
        for task in out["splits"]:
            if task is None:
                continue
            split, pca = task["split"], task["pca"]
            problems += check_pca(out["trials"], split, pca)
            if len(task["instances"]) != len(out["trials"]) or any(
                    len(i) != INSTANCES_PER_TRIAL for i in task["instances"]):
                problems.append(f"{split.adjective}: augment did not give "
                                f"{INSTANCES_PER_TRIAL} instances per trial")
            problems += check_instances(out["trials"][0], task["instances"][0], pca)
        return problems


def check_pca(trials, split, pca):
    """The split's PCA against an eigh refit on its training objects alone."""
    problems = []
    train = set(split.train_ids)
    for ep in haptic.EPS:
        samples = np.concatenate([oracles.electrode_matrix(t.signals[(f, ep)])
                                  for t in trials if t.object_id in train
                                  for f in haptic.FINGERS])
        model = pca[ep]
        ref = oracles.eigh_pca(samples, model.components.shape[1])
        problems += [f"{split.adjective} PCA {ep}: {p}" for p in oracles.pca_matches(
            model.mean, model.components, model.explained_variance_ratio, ref)]
    return problems


def check_instances(trial, instances, pca):
    """One trial's instances against the plain-numpy re-derivation."""
    projection = {ep: (m.mean, m.components) for ep, m in pca.items()}
    problems = []
    for inst in instances:
        ref = oracles.instance(trial.signals, inst.finger, inst.offset, projection)
        if not np.allclose(inst.values, ref, rtol=0, atol=1e-10):
            problems.append(f"instance {inst.object_id} f{inst.finger} o{inst.offset}: "
                            "differs from the re-derivation")
    return problems


class CnnLstm(Workload):
    """In-memory path: both haptic networks of the paper on the same splits.

    A round sets up one split (adjective k mod 3 in round k) and runs two
    tasks on it: the CNN with conv3 extraction, late fusion and two AUCs,
    then the LSTM with its haptic-only AUC.  A round lasts 3 to 5 s.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.cycle = len(self.size.adjectives)
        self.tasks = {}         # (split, pca, instances) of each turn, for the checks

    @staticmethod
    def n_objects(size):
        return size.objects

    def reset(self):
        pass

    def setup(self):
        ids, z, label_rows = synth.object_factors(self.config)
        self.labels = object_labels(label_rows)
        self.trials = trials = [synth.make_trial(self.config, obj, z[i], 0)
                                for i, obj in enumerate(ids)]
        self.grids = {obj: synth.make_visual_grids(self.config, obj, z[i])
                      for i, obj in enumerate(ids)}
        split = evaluation.make_split(ids, self.labels, self.size.adjectives[self.turn],
                                      ratio=SPLIT_RATIO, seed=self.seed)
        pca = fit_pca(trials, set(split.train_ids))
        instances = [i for t in trials for i in haptic.augment(t, pca)]
        self.task = (split, pca, instances)
        self.tasks.setdefault(self.turn, self.task)
        self.input_bytes = (sum(i.values.nbytes for i in instances)
                            + sum(g.nbytes for g in self.grids.values()))

    def timed_pass(self):
        split, _, instances = self.task
        return {"cnn": self.ops.attempt(self.cnn_task, split, instances),
                "lstm": self.ops.attempt(self.lstm_task, split, instances)}

    def train(self, net, model, x, y, epochs):
        """training.train, stamping each step so epochs can be timed."""
        schedule = training.TrainSchedule(epochs=epochs[0], finetune_epochs=epochs[1],
                                          batch_size=BATCH_SIZE, seed=self.seed)
        stamps = []
        forward_cached = model.forward_cached

        def stamped(xb):
            stamps.append(perf_counter())
            return forward_cached(xb)

        model.forward_cached = stamped
        result = training.train(model, x, y, schedule)
        stamps.append(perf_counter())
        n = x.shape[0]
        steps_per_epoch = -(-n // min(schedule.batch_size, n))
        starts = stamps[:-1:steps_per_epoch] + [stamps[-1]]
        self.samples.epochs[net] += [(n, b - a) for a, b in zip(starts, starts[1:])]
        return result

    def scorer(self, fn, record, net=None):
        """Score one instance per call, keeping every score (and, for a net, its latency)."""
        if self.tracer is not None:
            fn = self.tracer.wrap(fn, "evaluation.score")
        items = self.samples.items[net] if net else None

        def score(x):
            t0 = perf_counter()
            s = fn(x)
            if items is not None:
                items.append(perf_counter() - t0)
            record.append(float(s))
            return s
        return score

    def train_haptic(self, net, model, epochs, split, instances):
        train_ids = set(split.train_ids)
        train = [i for i in instances if i.object_id in train_ids]
        x = np.stack([i.values for i in train])
        y = np.array([1.0 if self.labels[i.object_id][split.adjective] else -1.0 for i in train])
        return self.train(net, model, x, y, epochs)

    def haptic_auc(self, net, model, split, instances):
        """Every test instance scored on its own through evaluate."""
        truth = {obj: lab[split.adjective] for obj, lab in self.labels.items()}
        scores = []
        auc = evaluation.evaluate(self.scorer(model.forward, scores, net),
                                  [(i.object_id, i.values) for i in instances], truth, split)
        return auc, scores

    def cnn_task(self, split, instances):
        """The paper's headline path: CNN, conv3 features, late fusion, two AUCs."""
        adj = split.adjective
        model = models.build_haptic_cnn(self.seed)
        result = self.train_haptic("cnn", model, self.size.cnn_epochs, split, instances)
        feats = features.extract_activations(model, instances, "conv3")
        by_object = {}
        for f in feats:
            by_object.setdefault(f.object_id, []).append(f)
        haptic_feats = {obj: features.combine_instances(fs, INSTANCES_PER_TRIAL)
                        for obj, fs in by_object.items()}
        visual_feats = {}
        for obj, grids in self.grids.items():
            views = [visual.pool_normalize(visual.VisualFeatureMap(obj, v, g))
                     for v, g in enumerate(grids)]
            visual_feats[obj] = features.FeatureVector(
                object_id=obj, index=(), values=visual.combine_views(views).vector)
        train_ids = sorted(split.train_ids)
        signs = {obj: 1.0 if lab[adj] else -1.0 for obj, lab in self.labels.items()}
        fusion = features.fuse_and_train(
            [haptic_feats[o] for o in train_ids], [visual_feats[o] for o in train_ids],
            {o: signs[o] for o in train_ids},
            training.TrainSchedule(epochs=self.size.fusion_epochs, seed=self.seed))
        fused = features.fuse_features(list(haptic_feats.values()), list(visual_feats.values()))
        truth = {obj: lab[adj] for obj, lab in self.labels.items()}
        fused_scores = []
        fused_auc = evaluation.evaluate(self.scorer(fusion.model.forward, fused_scores),
                                        [(f.object_id, f.values) for f in fused], truth, split)
        haptic_auc, haptic_scores = self.haptic_auc("cnn", model, split, instances)
        return {"model": model, "train": result, "conv3": feats, "fusion": fusion,
                "fused_auc": fused_auc, "fused_scores": fused_scores,
                "fused_labels": [1 if truth[f.object_id] else -1
                                 for f in fused if f.object_id in split.test_ids],
                "haptic_auc": haptic_auc, "haptic_scores": haptic_scores}

    def lstm_task(self, split, instances):
        """Haptic LSTM trained and scored one instance at a time; no conv runs."""
        model = models.build_haptic_lstm(self.seed)
        result = self.train_haptic("lstm", model, self.size.lstm_epochs, split, instances)
        haptic_auc, haptic_scores = self.haptic_auc("lstm", model, split, instances)
        return {"model": model, "train": result,
                "haptic_auc": haptic_auc, "haptic_scores": haptic_scores}

    def summary(self, out):
        return tuple(None if t is None else (t["haptic_auc"], t.get("fused_auc"),
                                             tuple(t["train"].loss_curve))
                     for t in out.values())

    def check(self, turn, out):
        split, pca, instances = self.tasks[turn]
        problems = check_pca(self.trials, split, pca)
        problems += check_instances(self.trials[0], instances[:INSTANCES_PER_TRIAL], pca)
        for net, task in out.items():
            if task is not None:
                problems += self.check_net(f"{split.adjective} {net}", split, instances, task)
        if out["cnn"] is not None:
            problems += self.check_fusion(split, out["cnn"])
        return problems

    def check_net(self, what, split, instances, task):
        problems = []
        result = task["train"]
        curve = np.asarray(result.loss_curve)
        lo, hi = result.phase_boundaries["logistic"]
        if result.diverged or not np.all(np.isfinite(curve)):
            problems.append(f"{what}: training diverged or gave a non-finite loss")
        elif hi - lo < 2 or not curve[lo + 1:hi].min() < curve[lo]:
            problems.append(f"{what}: the logistic phase did not lower the loss")
        test_ids = set(split.test_ids)
        test = [i for i in instances if i.object_id in test_ids]
        y = [1 if self.labels[i.object_id][split.adjective] else -1 for i in test]
        problems += check_auc(f"{what} haptic", task["haptic_auc"], task["haptic_scores"], y)
        batched = task["model"].forward(np.stack([i.values for i in test]))
        single = np.asarray(task["haptic_scores"])
        if not np.allclose(single, batched, rtol=1e-9, atol=1e-12):
            problems.append(f"{what}: single-instance scores differ from batched scores "
                            f"by {np.max(np.abs(single - batched)):.3g}")
        return problems

    def check_fusion(self, split, task):
        problems = []
        if min(f.values.min() for f in task["conv3"]) < 0.0:
            problems.append(f"{split.adjective}: negative conv3 feature")
        if not np.all(np.isfinite(task["fusion"].loss_curve)):
            problems.append(f"{split.adjective}: fusion training gave a non-finite loss")
        problems += check_auc(f"{split.adjective} fused", task["fused_auc"],
                              task["fused_scores"], task["fused_labels"])
        if split.adjective == "absorbent" and not task["fused_auc"] >= ABSORBENT_FUSED_AUC_FLOOR:
            problems.append(f"absorbent: fused AUC {task['fused_auc']} "
                            f"below {ABSORBENT_FUSED_AUC_FLOOR}")
        return problems


def check_auc(what, auc, scores, labels):
    ref = oracles.pair_count_auc(scores, labels)
    if abs(auc - ref) > 1e-12:
        return [f"{what} AUC {auc} differs from the pairwise count {ref}"]
    return []


WORKLOADS = {"ingest": Ingest, "cnn_lstm": CnnLstm}
