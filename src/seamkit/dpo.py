"""Preference pairs by strict dominance and direct preference post-training.

A candidate is preferred to another only when it is strictly better on every
gated metric (both distortion and island count in joint mode; one metric in
the single-metric ablation modes).  The training objective is the standard
pairwise logistic loss on scaled policy/reference log-ratio margins; at
policy == reference it equals ln 2 exactly.

Pairs are scored on the one grouped path NLL pretraining also uses: each pair
is an item (condition, (positive, negative)) of ``model._group_conditions``,
so each condition is prepared once per ``dpo_train``, encoded once per pass,
and its distinct sequences are scored in one right-padded decode.  The
reference log-probabilities are those of the same path under the reference
store.  When that store is the starting policy (same config, bit-identical
arrays), they are read off step 0's policy pass; otherwise one separate pass
without gradients computes them.  Each step is one ``model._sgd_step``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import reduce

import numpy as np

from seamkit import autodiff as ad
from seamkit.metrics import SeamMetrics
from seamkit.model import (
    ParameterStore,
    TrainingError,
    _ConditionBatch,
    _group_conditions,
    _group_logprobs_t,
    _sgd_step,
)
from seamkit.sampling import ConditioningClouds
from seamkit.tokenizer import SeamSet, TokenSequence, canonicalize, encode

logger = logging.getLogger(__name__)

LN2 = float(np.log(2.0))

PAIRING_MODES = ("joint", "distortion-only", "density-only")
DIVERGENCE_FACTOR = 10.0  # dpo_train aborts when the loss stays above
DIVERGENCE_PATIENCE = 100  # DIVERGENCE_FACTOR * ln 2 for this many steps


class DPOError(Exception):
    pass


@dataclass(frozen=True)
class DPOConfig:
    """Post-training hyperparameters; each pair carries its own pairing mode.

    Defaults: beta 0.1; 2,500 steps at learning rate 1e-6 (full-scale
    settings; the desk harness overrides steps and learning rate).
    """

    beta: float = 0.1
    learning_rate: float = 1e-6
    steps: int = 2500

    def __post_init__(self):
        if self.beta <= 0:
            raise DPOError("beta must be positive")


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
    scored = [
        c if isinstance(c, ScoredSeams) else ScoredSeams(seams=c[0], metrics=c[1])
        for c in candidates
    ]
    if len(scored) < 2:
        raise DPOError("need at least 2 candidates")
    # strict dominance is irreflexive, so no candidate is paired with itself
    pairs = [
        PreferencePair(condition=condition, positive=a, negative=b, mode=mode)
        for a in scored
        for b in scored
        if dominates(a.metrics, b.metrics, mode)
    ]
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
    """-log sigma(beta * margin), elementwise: a Tensor for Tensor margins,
    an array for array-like ones."""
    return ad.scale(ad.log_sigmoid(ad.scale(margins, beta)), -1.0)


def _batch_pairs(pairs, config) -> _ConditionBatch:
    """The pairs as (condition, (positive, negative)) items, grouped by
    condition content (``model._group_conditions``); a batch passes through."""
    if isinstance(pairs, _ConditionBatch):
        return pairs
    items = []
    for pair in pairs:
        if pair.condition is None:
            raise DPOError("preference pair carries no condition clouds")
        items.append((pair.condition, tuple(t.tokens for t in pair_tokens(pair))))
    return _group_conditions(items, config)


def _pair_logprobs(batch: _ConditionBatch, lps) -> list[tuple[float, float]]:
    """Per pair, the (positive, negative) values of ``_group_logprobs_t`` output."""
    return [
        (float(ad._value(lps[g][pos])), float(ad._value(lps[g][neg])))
        for g, pos, neg in batch.index
    ]


def _reference_logprobs(pairs, reference: ParameterStore) -> list[tuple[float, float]]:
    """Per pair, the reference log-probabilities of (positive, negative).

    Runs the policy's code path on the store's arrays, which builds no graph
    and gives the Tensor path's values bit for bit, so at policy == reference
    every margin is exactly 0.
    """
    batch = _batch_pairs(pairs, reference.config)
    return _pair_logprobs(batch, _group_logprobs_t(batch, reference.arrays, reference.config))


def _same_store(a: ParameterStore, b: ParameterStore) -> bool:
    """Whether two stores have the same config and bit-identical arrays."""
    return (
        a.config == b.config
        and list(a.arrays) == list(b.arrays)
        and all(
            x.shape == b.arrays[k].shape and x.tobytes() == b.arrays[k].tobytes()
            for k, x in a.arrays.items()
        )
    )


def _log_ratios_t(batch: _ConditionBatch, lps, ref_logprobs) -> list[tuple]:
    """Per pair, (log pi - log ref) of the positive and of the negative, from
    the policy's ``_group_logprobs_t`` output ``lps``."""
    out = []
    for k, ((g, pos, neg), (ref_pos, ref_neg)) in enumerate(zip(batch.index, ref_logprobs)):
        lp_pos, lp_neg = lps[g][pos], lps[g][neg]
        if not (np.isfinite(ad._value(lp_pos)) and np.isfinite(ad._value(lp_neg))):
            raise DPOError(f"non-finite log-probability for pair {k}")
        out.append((ad.sub(lp_pos, ref_pos), ad.sub(lp_neg, ref_neg)))
    return out


def _margin_loss_t(log_ratios, beta: float):
    """Mean pairwise loss over per-pair log-ratios; returns (loss, margin
    floats), the loss a Tensor when the log-ratios are."""
    terms = []
    margins = []
    for chosen, rejected in log_ratios:
        margin = ad.sub(chosen, rejected)
        margins.append(float(ad._value(margin)))
        terms.append(dpo_margin_loss(margin, beta))
    return ad.scale(reduce(ad.add, terms), 1.0 / len(terms)), margins


def _dpo_loss_t(pairs, p, config, ref_logprobs, beta: float):
    """The batch loss on the grouped path over parameters ``p`` (Tensors
    give a graph, arrays a value); returns (loss, margin floats).  The
    per-pair terms are summed in pair order."""
    batch = _batch_pairs(pairs, config)
    lps = _group_logprobs_t(batch, p, config)
    return _margin_loss_t(_log_ratios_t(batch, lps, ref_logprobs), beta)


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
    batch = _batch_pairs(pairs, policy.config)
    refs = _reference_logprobs(batch, reference)
    loss, _ = _dpo_loss_t(batch, policy.arrays, policy.config, refs, beta)
    return float(loss)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class DPOStepLog:
    """Diagnostics of one step, taken before its parameter update.

    ``reward_chosen``/``reward_rejected`` are the pair means of the implicit
    rewards beta * (log pi - log pi_ref) of the positives and the negatives;
    ``margin_mean``/``margin_min`` summarize the per-pair reward margins
    (chosen minus rejected reward); ``grad_norm`` is the L2 norm of the loss
    gradient over all trainable parameters.
    """

    step: int
    loss: float
    accuracy: float
    reward_chosen: float
    reward_rejected: float
    margin_mean: float
    margin_min: float
    grad_norm: float


def dpo_train(
    policy: ParameterStore,
    reference: ParameterStore,
    dataset,
    config: DPOConfig,
) -> tuple[ParameterStore, list[DPOStepLog]]:
    """Run config.steps SGD steps on the preference objective.

    The reference store is read-only throughout.  The pairs are tokenized
    and grouped, and their conditions prepared, once (``_batch_pairs``).
    When the reference has the policy's config and bit-identical arrays,
    its log-probabilities are those of step 0's policy pass and no separate
    reference pass runs; otherwise one pass over the reference store
    computes them before step 0.  Logs loss, preference accuracy (fraction
    of pairs with positive margin) and the ``DPOStepLog`` reward diagnostics
    per step.  Aborts when the loss stays above DIVERGENCE_FACTOR * ln 2 for
    DIVERGENCE_PATIENCE consecutive steps.
    """
    dataset = list(dataset)
    if not dataset:
        logger.info("empty preference dataset: policy returned unchanged")
        return policy.copy(), []
    batch = _batch_pairs(dataset, policy.config)
    refs = None if _same_store(policy, reference) else _reference_logprobs(batch, reference)
    history: list[DPOStepLog] = []
    bad_streak = 0
    for step in range(config.steps):
        p = policy.as_tensors()
        lps = _group_logprobs_t(batch, p, policy.config)
        if refs is None:
            refs = _pair_logprobs(batch, lps)
        ratios = _log_ratios_t(batch, lps, refs)
        loss, margins = _margin_loss_t(ratios, config.beta)
        value = float(loss.value)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite DPO loss at step {step}")
        ad.backward(loss)
        grads = [p[name].grad for name in policy.trainable_names()]
        rewards = config.beta * np.array([[c.value, r.value] for c, r in ratios])
        reward_margins = rewards[:, 0] - rewards[:, 1]
        history.append(
            DPOStepLog(
                step=step,
                loss=value,
                accuracy=float(np.mean([m > 0 for m in margins])),
                reward_chosen=float(rewards[:, 0].mean()),
                reward_rejected=float(rewards[:, 1].mean()),
                margin_mean=float(reward_margins.mean()),
                margin_min=float(reward_margins.min()),
                grad_norm=float(np.sqrt(sum(np.sum(g * g) for g in grads if g is not None))),
            )
        )
        if value > DIVERGENCE_FACTOR * LN2:
            bad_streak += 1
            if bad_streak >= DIVERGENCE_PATIENCE:
                raise TrainingError(
                    f"DPO diverged: loss {value:.3f} above "
                    f"{DIVERGENCE_FACTOR} * ln2 for {bad_streak} steps"
                )
        else:
            bad_streak = 0
        policy = _sgd_step(policy, p, config.learning_rate)
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
        if not isinstance(d, dict):
            raise TypeError(f"a record is a JSON object, not {type(d).__name__}")
        mode = d.get("mode", "joint")
        if mode not in PAIRING_MODES:
            raise ValueError(f"mode must be one of {PAIRING_MODES}, got {mode!r}")
        record = cls(
            mesh_path=d["mesh"],
            seed=int(d["seed"]),
            positive_index=int(d["positive_index"]),
            negative_index=int(d["negative_index"]),
            positive_metrics=SeamMetrics.from_dict(d["positive_metrics"]),
            negative_metrics=SeamMetrics.from_dict(d["negative_metrics"]),
            mode=mode,
        )
        if record.positive_index == record.negative_index:
            raise ValueError(
                f"positive_index and negative_index are both {record.positive_index}: "
                "a pair needs two distinct candidates"
            )
        if not dominates(record.positive_metrics, record.negative_metrics, mode):
            raise ValueError(
                f"positive metrics do not strictly dominate the negative's in mode {mode!r}"
            )
        return record


def write_pair_records(records) -> str:
    return "".join(r.to_json() + "\n" for r in records)


def read_pair_records(text: str) -> list[PairRecord]:
    """Parse pair records, one JSON object per non-blank line.

    A line that is not JSON, lacks a key, holds a value of the wrong type,
    names the same candidate as positive and negative, or whose positive
    does not strictly dominate its negative in the record's mode raises
    ``DPOError`` naming its 1-based line number.
    """
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(PairRecord.from_json(line))
        except json.JSONDecodeError as exc:
            raise DPOError(f"line {line_no}: not a JSON record ({exc})") from exc
        except KeyError as exc:
            raise DPOError(f"line {line_no}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DPOError(f"line {line_no}: malformed record ({exc})") from exc
    return out
