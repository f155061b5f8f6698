"""Object-level splits, ROC-AUC, and report aggregation."""

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .engine import derive_seed
from .errors import (
    InfeasibleSplitError,
    InvalidInputError,
    LeakageError,
    UndefinedAUCError,
)

# The 24 binary adjectives, in their fixed table order.
ADJECTIVES = (
    "absorbent", "bumpy", "compressible", "cool", "crinkly", "fuzzy",
    "hairy", "hard", "metallic", "nice", "porous", "rough",
    "scratchy", "slippery", "smooth", "soft", "solid", "springy",
    "squishy", "sticky", "textured", "thick", "thin", "unpleasant",
)


@dataclass(frozen=True)
class SplitPlan:
    """Train/test partition at object granularity for one adjective."""

    adjective: str
    seed: int
    train_ids: tuple
    test_ids: tuple

    def __post_init__(self):
        overlap = set(self.train_ids) & set(self.test_ids)
        if overlap:
            raise LeakageError(f"objects on both sides: {sorted(overlap)}")


def make_split(objects, labels, adjective, ratio=0.9, seed=0) -> SplitPlan:
    """Seeded stratified 90/10 object split with both classes on both sides.

    ``labels`` maps object id -> {adjective: bool}; each object is listed
    once and has a label for ``adjective``.  The test size is the
    rounded share, else one more or one fewer; failing those, it keeps the
    rounded share (at least 2) and caps the test positives at one below it.
    The counts do not depend on the seed, which only picks the objects.
    The ids are sorted first, so the split depends on the set of objects
    and not on the order they are listed in; ids that cannot be sorted
    raise InvalidInputError.
    """
    if not (isinstance(ratio, Real) and 0.0 < ratio < 1.0):  # NaN fails this too
        raise InvalidInputError(f"split ratio must lie strictly between 0 and 1, got {ratio!r}")
    if adjective not in ADJECTIVES:
        raise InvalidInputError(f"unknown adjective {adjective!r}")
    objects = list(objects)
    try:
        objects.sort()
    except TypeError as e:
        raise InvalidInputError(f"{adjective}: object ids cannot be sorted: {e}") from None
    repeated = [o for o, count in Counter(objects).items() if count > 1]
    if repeated:
        raise InvalidInputError(f"{adjective}: objects {repeated} are listed more than once")
    unlabeled = [o for o in objects if adjective not in labels.get(o, ())]
    if unlabeled:
        raise InvalidInputError(f"{adjective}: objects {unlabeled} have no label for it")

    pos = [o for o in objects if labels[o][adjective]]
    neg = [o for o in objects if not labels[o][adjective]]
    if len(pos) < 2 or len(neg) < 2:
        raise InfeasibleSplitError(
            f"{adjective}: needs >=2 positive and >=2 negative objects, "
            f"has {len(pos)} and {len(neg)}"
        )
    n = len(objects)
    base_test = max(1, round((1.0 - ratio) * n))
    last_test = max(2, base_test)
    candidates = [(n_test, len(pos) - 1)
                  for n_test in (base_test, base_test + 1, max(2, base_test - 1))]
    candidates.append((last_test, min(len(pos), last_test) - 1))
    for n_test, max_test_pos in candidates:
        n_test_pos = int(np.clip(round(n_test * len(pos) / n), 1, max_test_pos))
        n_test_neg = n_test - n_test_pos
        if 1 <= n_test_neg <= len(neg) - 1:
            break
    else:
        raise InfeasibleSplitError(
            f"{adjective}: no test size near {base_test} of {n} objects leaves "
            f"both classes on both sides ({len(pos)} positive, {len(neg)} negative)"
        )
    # the "/0" suffix keeps every seed's split what earlier versions returned
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, f"split/{adjective}/0")))
    pos_order = [pos[i] for i in rng.permutation(len(pos))]
    neg_order = [neg[i] for i in rng.permutation(len(neg))]
    test = sorted(pos_order[:n_test_pos] + neg_order[:n_test_neg])
    train = sorted(set(objects) - set(test))
    return SplitPlan(adjective=adjective, seed=seed,
                     train_ids=tuple(train), test_ids=tuple(test))


def roc_auc(scores, labels) -> float:
    """Tie-adjusted Mann-Whitney AUC via midranks.

    Equals the fraction of (positive, negative) pairs with score_pos >
    score_neg, counting ties as one half; identical to brute-force pair
    counting (both produce exact multiples of 0.5 before the division).
    A NaN score raises InvalidInputError naming its index.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise InvalidInputError(f"scores {s.shape} and labels {y.shape} must be 1-D and equal")
    nan = np.flatnonzero(np.isnan(s))
    if nan.size:
        raise InvalidInputError(f"score {nan[0]} is NaN, which has no rank")
    pos_mask = y > 0
    n_pos = int(pos_mask.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError(f"need both classes, got {n_pos} positive / {n_neg} negative")
    # the 1-based midrank of a run of c tied scores ending at rank r is
    # r - (c - 1) / 2, an exact half-integer
    _, tie_run, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[tie_run]
    u = ranks[pos_mask].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate(score_fn, features, labels, split: SplitPlan) -> float:
    """AUC of ``score_fn`` over the split's test objects.

    ``features`` is a list of (object_id, x) pairs (one or many per object);
    ``labels`` maps object id -> bool for the split's adjective.  Training
    objects are never scored; ``SplitPlan`` already rejects an id on both
    sides with LeakageError.  A test object without features or without a
    label raises InvalidInputError before anything is scored.
    """
    test_ids = set(split.test_ids)
    covered = {obj for obj, _ in features}
    missing = test_ids - covered
    if missing:
        raise InvalidInputError(f"no features for test objects: {sorted(missing)}")
    unlabeled = test_ids - set(labels)
    if unlabeled:
        raise InvalidInputError(f"no labels for test objects: {sorted(unlabeled)}")
    scores, truth = [], []
    for obj, x in features:
        if obj in test_ids:
            scores.append(float(score_fn(x)))
            truth.append(1.0 if labels[obj] else -1.0)
    return roc_auc(np.asarray(scores), np.asarray(truth))


@dataclass
class EvalReport:
    """Per-adjective AUCs (averaged over seeds) plus the overall mean."""

    per_adjective: dict        # adjective -> mean AUC
    per_adjective_seeds: dict  # adjective -> {seed: AUC}
    mean_auc: float
    fingerprint: str
    n_seeds: int

    def to_kv_text(self) -> str:
        lines = [f"fingerprint={self.fingerprint}", f"n_seeds={self.n_seeds}"]
        for adj in sorted(self.per_adjective):
            lines.append(f"auc.{adj}={self.per_adjective[adj]:.6f}")
            for seed in sorted(self.per_adjective_seeds[adj]):
                lines.append(f"auc.{adj}.seed{seed}={self.per_adjective_seeds[adj][seed]:.6f}")
        lines.append(f"mean_auc={self.mean_auc:.6f}")
        return "\n".join(lines) + "\n"

    def to_table_csv(self) -> str:
        lines = ["adjective,mean_auc,n_seeds"]
        for adj in sorted(self.per_adjective):
            lines.append(f"{adj},{self.per_adjective[adj]:.6f},{len(self.per_adjective_seeds[adj])}")
        lines.append(f"__mean__,{self.mean_auc:.6f},{self.n_seeds}")
        return "\n".join(lines) + "\n"


def config_fingerprint(payload: dict) -> str:
    """Stable short hash of a configuration (schedule, seeds, adjectives...)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def aggregate(per_seed_aucs: dict, config: dict = None) -> EvalReport:
    """Combine {seed: {adjective: auc}} into an EvalReport.

    Every seed must cover the same adjective set; per-adjective means are
    taken over seeds, the overall mean is unweighted over adjectives.
    """
    if not per_seed_aucs:
        raise InvalidInputError("no evaluation results to aggregate")
    seeds = sorted(per_seed_aucs)
    adjective_sets = [set(per_seed_aucs[s]) for s in seeds]
    expected = adjective_sets[0]
    if not expected:
        raise InvalidInputError("no adjectives in evaluation results")
    for s, present in zip(seeds, adjective_sets):
        if present != expected:
            raise InvalidInputError(
                f"seed {s} covers {sorted(present)}, expected {sorted(expected)}"
            )
    per_adjective = {}
    per_adjective_seeds = {}
    for adj in sorted(expected):
        vals = {s: float(per_seed_aucs[s][adj]) for s in seeds}
        per_adjective_seeds[adj] = vals
        per_adjective[adj] = float(np.mean(list(vals.values())))
    mean_auc = float(np.mean(list(per_adjective.values())))
    payload = dict(config or {})
    payload["seeds"] = seeds
    payload["adjectives"] = sorted(expected)
    return EvalReport(
        per_adjective=per_adjective,
        per_adjective_seeds=per_adjective_seeds,
        mean_auc=mean_auc,
        fingerprint=config_fingerprint(payload),
        n_seeds=len(seeds),
    )
