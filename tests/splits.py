"""A small pinned training set for tests that train a haptic network end to end."""

import numpy as np

from hapticnet import evaluation, synth
from hapticnet.haptic import ELECTRODES, EPS, FINGERS, augment, pca_fit, zscore_normalize


def pinned_split_instances():
    """Instances and +-1 labels of a small synth dataset, split by object."""
    config = synth.separable_config(n_objects=8, n_trials=1, seed=4)
    ids, z, labels = synth.object_factors(config)
    trials = [synth.make_trial(config, o, zo, 0) for o, zo in zip(ids, z)]
    split = evaluation.make_split(ids, {o: lab for o, _, lab in labels},
                                  evaluation.ADJECTIVES[0], ratio=0.7, seed=4)
    train_trials = [t for t in trials if t.object_id in split.train_ids]
    pca = {ep: pca_fit(np.concatenate([
        np.stack([zscore_normalize(t.signals[(f, ep)][e]) for e in ELECTRODES], axis=1)
        for t in train_trials for f in FINGERS])) for ep in EPS}
    truth = {o: lab[evaluation.ADJECTIVES[0]] for o, _, lab in labels}
    insts = [inst for t in train_trials for inst in augment(t, pca)]
    x = np.stack([inst.values for inst in insts])
    y = np.array([1.0 if truth[inst.object_id] else -1.0 for inst in insts])
    return x, y
