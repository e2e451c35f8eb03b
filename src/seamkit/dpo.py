"""Preference pairs by strict dominance and direct preference post-training.

A candidate is preferred to another only when it is strictly better on every
gated metric (both distortion and island count in joint mode; one metric in
the single-metric ablation modes).  The training objective is the standard
pairwise logistic loss on scaled policy/reference log-ratio margins; at
policy == reference it equals ln 2 exactly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from seamkit import autodiff as ad
from seamkit.metrics import SeamMetrics
from seamkit.model import (
    ModelError,
    ParameterStore,
    TrainingError,
    _encode_condition_t,
    _sequence_logprob_t,
    _token_array,
    sequence_logprob,
)
from seamkit.sampling import ConditioningClouds
from seamkit.tokenizer import SeamSet, TokenSequence, canonicalize, encode

logger = logging.getLogger(__name__)

LN2 = float(np.log(2.0))

PAIRING_MODES = ("joint", "distortion-only", "density-only")


class DPOError(Exception):
    pass


@dataclass(frozen=True)
class DPOConfig:
    """Post-training hyperparameters.

    Defaults: beta 0.1; 2,500 steps at learning rate 1e-6 (full-scale
    settings; the desk harness overrides steps and learning rate).
    """

    beta: float = 0.1
    learning_rate: float = 1e-6
    steps: int = 2500
    pairing_mode: str = "joint"
    divergence_factor: float = 10.0
    divergence_patience: int = 100

    def __post_init__(self):
        if self.beta <= 0:
            raise DPOError("beta must be positive")
        if self.pairing_mode not in PAIRING_MODES:
            raise DPOError(f"pairing_mode must be one of {PAIRING_MODES}")


@dataclass(frozen=True)
class ScoredSeams:
    """A candidate seam set together with its evaluation record."""

    seams: SeamSet
    metrics: SeamMetrics


@dataclass(frozen=True)
class PreferencePair:
    """Condition clouds plus a strictly-ordered (positive, negative) candidate pair."""

    condition: ConditioningClouds
    positive: ScoredSeams
    negative: ScoredSeams
    mode: str = "joint"

    def __post_init__(self):
        if not dominates(self.positive.metrics, self.negative.metrics, self.mode):
            raise DPOError(
                "positive candidate does not strictly dominate the negative "
                f"in mode {self.mode!r}"
            )


def dominates(a: SeamMetrics, b: SeamMetrics, mode: str = "joint") -> bool:
    """Strict dominance of a over b under the given pairing mode."""
    if mode == "joint":
        return a.distortion < b.distortion and a.fragments < b.fragments
    if mode == "distortion-only":
        return a.distortion < b.distortion
    if mode == "density-only":
        return a.fragments < b.fragments
    raise DPOError(f"unknown pairing mode {mode!r}")


def build_pairs(
    candidates, mode: str = "joint", condition: ConditioningClouds | None = None
) -> list[PreferencePair]:
    """All ordered pairs (i, j) where candidate i strictly dominates j.

    ``candidates`` is a sequence of ScoredSeams (or (SeamSet, SeamMetrics)
    tuples).  Zero pairs is a valid outcome and is logged.
    """
    if mode not in PAIRING_MODES:
        raise DPOError(f"pairing_mode must be one of {PAIRING_MODES}")
    scored = [
        c if isinstance(c, ScoredSeams) else ScoredSeams(seams=c[0], metrics=c[1])
        for c in candidates
    ]
    if len(scored) < 2:
        raise DPOError("need at least 2 candidates")
    pairs = []
    for i in range(len(scored)):
        for j in range(len(scored)):
            if i == j:
                continue
            if dominates(scored[i].metrics, scored[j].metrics, mode):
                pairs.append(
                    PreferencePair(
                        condition=condition,
                        positive=scored[i],
                        negative=scored[j],
                        mode=mode,
                    )
                )
    if not pairs:
        logger.info("no dominated pairs among %d candidates (mode=%s)", len(scored), mode)
    return pairs


# ---------------------------------------------------------------------------
# Loss


def pair_tokens(pair: PreferencePair) -> tuple[TokenSequence, TokenSequence]:
    return (
        encode(canonicalize(pair.positive.seams)),
        encode(canonicalize(pair.negative.seams)),
    )


def dpo_margin_loss(margins, beta: float):
    """-log sigma(beta * margin), elementwise; margins may be a Tensor or array."""
    m = margins if isinstance(margins, ad.Tensor) else ad.Tensor(np.asarray(margins, dtype=float))
    return ad.scale(ad.log_sigmoid(ad.scale(m, beta)), -1.0)


def _reference_logprobs(pairs, reference: ParameterStore) -> list[tuple[float, float]]:
    out = []
    for pair in pairs:
        if pair.condition is None:
            raise DPOError("preference pair carries no condition clouds")
        from seamkit.model import encode_condition

        cond = encode_condition(pair.condition, reference)
        tp, tn = pair_tokens(pair)
        out.append(
            (
                sequence_logprob(tp, cond, reference),
                sequence_logprob(tn, cond, reference),
            )
        )
    return out


def _dpo_loss_t(pairs, policy_tensors, config, ref_logprobs, beta: float):
    """Graph of the batch loss; returns (loss Tensor, margin floats)."""
    terms = []
    margins = []
    cond_cache: dict[int, object] = {}  # pairs sharing clouds reuse the embedding
    for pair, (ref_pos, ref_neg) in zip(pairs, ref_logprobs):
        cond = cond_cache.get(id(pair.condition))
        if cond is None:
            cond = _encode_condition_t(pair.condition, policy_tensors, config)
            cond_cache[id(pair.condition)] = cond
        tp, tn = pair_tokens(pair)
        lp_pos = _sequence_logprob_t(_token_array(tp), cond, policy_tensors, config)
        lp_neg = _sequence_logprob_t(_token_array(tn), cond, policy_tensors, config)
        if not (np.isfinite(lp_pos.value) and np.isfinite(lp_neg.value)):
            raise DPOError(f"non-finite log-probability for pair {len(terms)}")
        margin = ad.sub(
            ad.sub(lp_pos, ad.Tensor(ref_pos)), ad.sub(lp_neg, ad.Tensor(ref_neg))
        )
        margins.append(float(margin.value))
        terms.append(dpo_margin_loss(margin, beta))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / len(terms)), margins


def dpo_loss(
    policy: ParameterStore,
    reference: ParameterStore,
    pairs,
    beta: float,
) -> float:
    """Mean of -log sigma(beta * ((logpi - logref)+ - (logpi - logref)-))."""
    pairs = list(pairs)
    if not pairs:
        raise DPOError("empty pair batch")
    refs = _reference_logprobs(pairs, reference)
    p = policy.as_tensors()
    loss, _ = _dpo_loss_t(pairs, p, policy.config, refs, beta)
    return float(loss.value)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class DPOStepLog:
    step: int
    loss: float
    accuracy: float


def dpo_train(
    policy: ParameterStore,
    reference: ParameterStore,
    dataset,
    config: DPOConfig,
) -> tuple[ParameterStore, list[DPOStepLog]]:
    """Run config.steps SGD steps on the preference objective.

    The reference store is read-only throughout.  Logs loss and preference
    accuracy (fraction of pairs with positive margin) per step.  Aborts when
    the loss stays above divergence_factor * ln 2 for divergence_patience
    consecutive steps.
    """
    dataset = list(dataset)
    if not dataset:
        logger.info("empty preference dataset: policy returned unchanged")
        return policy.copy(), []
    refs = _reference_logprobs(dataset, reference)
    history: list[DPOStepLog] = []
    bad_streak = 0
    for step in range(config.steps):
        p = policy.as_tensors(trainable=True)
        loss, margins = _dpo_loss_t(dataset, p, policy.config, refs, config.beta)
        value = float(loss.value)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite DPO loss at step {step}")
        accuracy = float(np.mean([m > 0 for m in margins]))
        history.append(DPOStepLog(step=step, loss=value, accuracy=accuracy))
        if value > config.divergence_factor * LN2:
            bad_streak += 1
            if bad_streak >= config.divergence_patience:
                raise TrainingError(
                    f"DPO diverged: loss {value:.3f} above "
                    f"{config.divergence_factor} * ln2 for {bad_streak} steps"
                )
        else:
            bad_streak = 0
        ad.backward(loss)
        new = policy.copy()
        for name in policy.trainable_names():
            g = p[name].grad
            if g is not None:
                new.arrays[name] = new.arrays[name] - config.learning_rate * g
        policy = new
    return policy, history


# ---------------------------------------------------------------------------
# Preference dataset records (line-delimited)


@dataclass(frozen=True)
class PairRecord:
    """Stored description of one preference pair.

    Seam payloads live in separate seam text files (one per candidate);
    records reference candidates by index.
    """

    mesh_path: str
    seed: int
    positive_index: int
    negative_index: int
    positive_metrics: SeamMetrics
    negative_metrics: SeamMetrics
    mode: str = "joint"

    def to_json(self) -> str:
        return json.dumps(
            {
                "mesh": self.mesh_path,
                "seed": self.seed,
                "positive_index": self.positive_index,
                "negative_index": self.negative_index,
                "positive_metrics": self.positive_metrics.to_dict(),
                "negative_metrics": self.negative_metrics.to_dict(),
                "mode": self.mode,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "PairRecord":
        d = json.loads(line)
        return cls(
            mesh_path=d["mesh"],
            seed=int(d["seed"]),
            positive_index=int(d["positive_index"]),
            negative_index=int(d["negative_index"]),
            positive_metrics=SeamMetrics.from_dict(d["positive_metrics"]),
            negative_metrics=SeamMetrics.from_dict(d["negative_metrics"]),
            mode=d.get("mode", "joint"),
        )


def write_pair_records(records) -> str:
    return "".join(r.to_json() + "\n" for r in records)


def read_pair_records(text: str) -> list[PairRecord]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            out.append(PairRecord.from_json(line))
    return out
