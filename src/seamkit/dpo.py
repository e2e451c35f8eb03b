"""Preference pairs by strict dominance and direct preference post-training.

A candidate is preferred to another only when it is strictly better on every
gated metric (both distortion and island count in joint mode; one metric in
the single-metric ablation modes).  ``PairRecord``, the stored pair, is the
one place the pair rules are checked.

Training sees no metrics: a pair is the item ``(clouds, (chosen_tokens,
rejected_tokens))`` of ``model._group_conditions``, scored on the grouped
path NLL pretraining also uses.  The objective is the standard pairwise
logistic loss on scaled policy/reference log-ratio margins; at policy ==
reference it equals ln 2 exactly.  The reference log-probabilities come
from the same path under the reference store, read off step 0's policy
pass when the reference is the policy object itself.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from seamkit import autodiff as ad
from seamkit.metrics import SeamMetrics, json_field
from seamkit.model import (
    ParameterStore,
    TrainingError,
    _backward_per_group,
    _ConditionBatch,
    _group_conditions,
    _group_logprobs_t,
    _sgd_step,
)

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
    settings; the desk harness overrides steps and learning rate).  The
    ranges are those of the CLI settings: beta finite and > 0, the learning
    rate finite and >= 0, steps an int >= 0; anything else raises
    ``DPOError`` naming the field.
    """

    beta: float = 0.1
    learning_rate: float = 1e-6
    steps: int = 2500

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise DPOError(f"beta must be > 0 and finite, got {self.beta!r}")
        if not 0 <= self.learning_rate < math.inf:
            raise DPOError(f"learning_rate must be >= 0 and finite, got {self.learning_rate!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 0:
            raise DPOError(f"steps must be an int >= 0, got {self.steps!r}")


def dominates(a: SeamMetrics, b: SeamMetrics, mode: str = "joint") -> bool:
    """Strict dominance of a over b under the given pairing mode."""
    if mode == "joint":
        return a.distortion < b.distortion and a.fragments < b.fragments
    if mode == "distortion-only":
        return a.distortion < b.distortion
    if mode == "density-only":
        return a.fragments < b.fragments
    raise DPOError(f"unknown pairing mode {mode!r}")


def build_pairs(metrics, mode: str = "joint") -> list[tuple[int, int]]:
    """Every ordered index pair (i, j) where ``metrics[i]`` strictly dominates
    ``metrics[j]`` in ``mode``, in row-major order.

    ``metrics`` is a sequence of at least two ``SeamMetrics``.  Zero pairs is
    a valid outcome and is logged.
    """
    if len(metrics) < 2:
        raise DPOError("need at least 2 candidates")
    # strict dominance is irreflexive, so no candidate is paired with itself
    pairs = [
        (i, j) for i, a in enumerate(metrics) for j, b in enumerate(metrics) if dominates(a, b, mode)
    ]
    if not pairs:
        logger.info("no dominated pairs among %d candidates (mode=%s)", len(metrics), mode)
    return pairs


# ---------------------------------------------------------------------------
# Loss


def _pair_logprobs(batch: _ConditionBatch, lps) -> list[tuple]:
    """Per pair, the (chosen, rejected) entries of ``_group_logprobs_t``
    output ``lps``."""
    return [(lps[g][chosen], lps[g][rejected]) for g, chosen, rejected in batch.index]


def _reference_logprobs(batch: _ConditionBatch, reference: ParameterStore) -> list[tuple]:
    """Per pair, the reference log-probabilities (arrays) of (chosen, rejected).

    Runs the policy's code path on the store's arrays, which builds no graph
    and gives the Tensor path's values bit for bit, so at policy == reference
    every margin is exactly 0.
    """
    return _pair_logprobs(batch, _group_logprobs_t(batch, reference.arrays, reference.config))


def _pair_term(k: int, logprobs, ref_logprobs, beta: float) -> tuple:
    """-log sigma(beta * margin) of pair ``k``, where margin is (log pi - log
    ref) of the chosen minus that of the rejected.

    ``logprobs`` and ``ref_logprobs`` are the pair's (chosen, rejected).
    Returns (term, chosen log-ratio, rejected log-ratio, margin): the term a
    Tensor when ``logprobs`` are, the rest floats.
    """
    (lp_c, lp_r), (ref_c, ref_r) = logprobs, ref_logprobs
    if not (np.isfinite(ad._value(lp_c)) and np.isfinite(ad._value(lp_r))):
        raise DPOError(f"non-finite log-probability for pair {k}")
    chosen, rejected = ad.sub(lp_c, ref_c), ad.sub(lp_r, ref_r)
    margin = ad.sub(chosen, rejected)
    term = ad.scale(ad.log_sigmoid(ad.scale(margin, beta)), -1.0)
    return term, *(float(ad._value(x)) for x in (chosen, rejected, margin))


def _policy_pass(batch: _ConditionBatch, policy: ParameterStore, refs, beta: float) -> tuple:
    """One forward and backward pass of the objective, the mean over pairs of
    ``_pair_term``, one condition group at a time
    (``model._backward_per_group``): a group's share is the sum of its
    pairs' terms over the number of pairs.

    ``refs`` holds each pair's reference (chosen, rejected)
    log-probabilities, or is None when the reference is the policy itself;
    the pass then fills them in from its own values, so every margin is
    exactly 0.  Returns (parameter tensors holding the gradient, refs, per
    pair (term, chosen log-ratio, rejected log-ratio, margin) floats).
    """
    n_pairs = len(batch.index)
    own_refs = refs is None
    refs = [None] * n_pairs if own_refs else refs
    values: list = [None] * n_pairs

    def share(items, logprobs):
        terms = []
        for k in items:
            _, chosen, rejected = batch.index[k]
            lps = (logprobs[chosen], logprobs[rejected])
            if own_refs:
                refs[k] = (lps[0].value, lps[1].value)
            term, *ratios_and_margin = _pair_term(k, lps, refs[k], beta)
            terms.append(term)
            values[k] = (float(term.value), *ratios_and_margin)
        return ad.scale(reduce(ad.add, terms), 1.0 / n_pairs)

    return _backward_per_group(batch, policy, share), refs, values


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class DPOStepLog:
    """Diagnostics of one step, taken before its parameter update.

    ``reward_chosen``/``reward_rejected`` are the pair means of the implicit
    rewards beta * (log pi - log pi_ref) of the positives and the negatives;
    ``margin_mean``/``margin_min`` summarize the per-pair reward margins
    (chosen minus rejected reward); ``grad_norm`` is the L2 norm of the loss
    gradient over every parameter array.
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
    """Run config.steps SGD steps on the preference objective, each moving
    every parameter array (``model._sgd_step``).

    ``dataset`` is a list of ``(clouds, (chosen_tokens, rejected_tokens))``
    items: ``ConditioningClouds`` and two complete int64 token arrays, the
    chosen one preferred (``PairRecord`` checks why).  The items are grouped,
    and their conditions prepared, once (``model._group_conditions``).  Both
    stores are read-only, so the reference may be the policy object itself,
    which saves a copy of every array.  When it is, the reference
    log-probabilities are those of step 0's policy pass; any other store
    gets one pass of its own before step 0 (``_reference_logprobs``, which
    gives the policy pass's values bit for bit).  The reference is dropped
    once its log-probabilities are read and the starting policy at step 0's
    update, so when the caller keeps no name for them either (as ``seamkit
    dpo`` does; CPython 3.11 and later move a call's arguments to the
    callee) the starting store is released after step 0 and later steps
    hold one parameter store.  Each step runs forward and
    backward once per condition group and accumulates the gradients before
    its one update (``_policy_pass``), so peak memory is set by the largest
    condition group, not by the dataset.  Logs loss, preference accuracy
    (fraction of pairs with positive margin) and the ``DPOStepLog`` reward
    diagnostics per step, each computed from per-pair floats in pair order.
    Aborts when the loss stays above DIVERGENCE_FACTOR * ln 2 for
    DIVERGENCE_PATIENCE consecutive steps.
    """
    if not dataset:
        logger.info("empty preference dataset: policy returned unchanged")
        return policy.copy(), []
    batch = _group_conditions(dataset, policy.config)
    refs = None if reference is policy else _reference_logprobs(batch, reference)
    del reference  # read: from here on only `policy` names a store
    history: list[DPOStepLog] = []
    bad_streak = 0
    for step in range(config.steps):
        p, refs, values = _policy_pass(batch, policy, refs, config.beta)
        value = reduce(operator.add, (term for term, *_ in values)) * (1.0 / len(values))
        if not np.isfinite(value):
            raise TrainingError(f"non-finite DPO loss at step {step}")
        grads = [t.grad for t in p.values()]
        rewards = config.beta * np.array([[chosen, rejected] for _, chosen, rejected, _ in values])
        reward_margins = rewards[:, 0] - rewards[:, 1]
        history.append(
            DPOStepLog(
                step=step,
                loss=value,
                accuracy=float(np.mean([margin > 0 for *_, margin in values])),
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
        del p, grads  # spent: free this step's gradients before the next pass
    return policy, history


# ---------------------------------------------------------------------------
# Preference dataset records (line-delimited)


@dataclass(frozen=True)
class PairRecord:
    """Stored description of one preference pair.

    Seam payloads live in separate seam text files (one per candidate);
    records reference candidates by index.  Construction, and so reading,
    raises ``ValueError`` unless the mode is one of ``PAIRING_MODES``, the
    indices differ and the positive's metrics strictly dominate the
    negative's in that mode.
    """

    mesh_path: str
    seed: int
    positive_index: int
    negative_index: int
    positive_metrics: SeamMetrics
    negative_metrics: SeamMetrics
    mode: str = "joint"

    def __post_init__(self):
        if self.mode not in PAIRING_MODES:
            raise ValueError(f"mode must be one of {PAIRING_MODES}, got {self.mode!r}")
        if self.positive_index == self.negative_index:
            raise ValueError(
                f"positive_index and negative_index are both {self.positive_index}: "
                "a pair needs two distinct candidates"
            )
        if not dominates(self.positive_metrics, self.negative_metrics, self.mode):
            raise ValueError(
                f"positive metrics do not strictly dominate the negative's in mode {self.mode!r}"
            )

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
        return cls(
            mesh_path=json_field(d, "mesh", str),
            seed=json_field(d, "seed", int),
            positive_index=json_field(d, "positive_index", int),
            negative_index=json_field(d, "negative_index", int),
            positive_metrics=SeamMetrics.from_dict(d["positive_metrics"]),
            negative_metrics=SeamMetrics.from_dict(d["negative_metrics"]),
            mode=d.get("mode", "joint"),
        )


def write_pair_records(records) -> str:
    return "".join(r.to_json() + "\n" for r in records)


def record_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) of every non-blank line: the
    lines ``read_pair_records`` parses, in order."""
    return [(n, line.strip()) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]


def read_pair_records(text: str) -> list[PairRecord]:
    """Parse pair records, one JSON object per non-blank line.

    A line that is not JSON, lacks a key, holds a value of the wrong type
    (``metrics.json_field``: ``mesh`` a string, ``seed`` and the indices
    ints >= 0, the metrics as ``SeamMetrics.from_dict`` reads them), or
    breaks a ``PairRecord`` rule raises ``DPOError`` naming its 1-based line
    number.
    """
    out = []
    for line_no, line in record_lines(text):
        try:
            out.append(PairRecord.from_json(line))
        except json.JSONDecodeError as exc:
            raise DPOError(f"line {line_no}: not a JSON record ({exc})") from exc
        except KeyError as exc:
            raise DPOError(f"line {line_no}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DPOError(f"line {line_no}: malformed record ({exc})") from exc
    return out
