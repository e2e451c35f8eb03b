"""Preference pairs by strict dominance and direct preference post-training.

A candidate is preferred to another only when it is strictly better on every
gated metric (both distortion and island count in joint mode; one metric in
the single-metric ablation modes).  The training objective is the standard
pairwise logistic loss on scaled policy/reference log-ratio margins; at
policy == reference it equals ln 2 exactly.

The loss is computed per condition, not per pair.  Pairs are grouped by the
content of their conditioning clouds (equal point arrays, whatever object
holds them), and each group's token sequences are deduplicated: a positive
shared by several pairs is scored once.  Each group encodes its condition
once and scores its unique sequences in one teacher-forced decode, right-
padded to a common length (``model._sequence_logprobs_t``).  The reference
log-probabilities come from the same code path on a store without gradients.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from seamkit import autodiff as ad
from seamkit.metrics import SeamMetrics
from seamkit.model import (
    ParameterStore,
    TrainingError,
    _encode_condition_t,
    _sequence_logprobs_t,
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


@dataclass(frozen=True)
class _PairBatch:
    """Pairs grouped by condition, each group's token sequences deduplicated.

    ``groups[g]`` is (condition clouds, unique token arrays); ``index[i]`` is
    pair i's (group, positive sequence, negative sequence).
    """

    groups: list
    index: list


def _batch_pairs(pairs) -> _PairBatch:
    """Group pairs by the content of their clouds, in order of first use.

    Pairs whose clouds hold equal point arrays share a group even when they
    carry distinct ``ConditioningClouds`` objects.
    """
    if isinstance(pairs, _PairBatch):
        return pairs
    groups: list = []
    index: list = []
    group_ids: dict = {}
    seq_ids: list[dict] = []
    for pair in pairs:
        clouds = pair.condition
        if clouds is None:
            raise DPOError("preference pair carries no condition clouds")
        key = tuple(
            (pts.shape, np.ascontiguousarray(pts, dtype=np.float64).tobytes())
            for pts in (clouds.topo_points, clouds.geom_points)
        )
        g = group_ids.setdefault(key, len(groups))
        if g == len(groups):
            groups.append((clouds, []))
            seq_ids.append({})
        seqs = groups[g][1]
        ids = []
        for tokens in pair_tokens(pair):
            i = seq_ids[g].setdefault(tokens.tokens.tobytes(), len(seqs))
            if i == len(seqs):
                seqs.append(tokens.tokens)
            ids.append(i)
        index.append((g, *ids))
    return _PairBatch(groups=groups, index=index)


def _group_logprobs_t(batch: _PairBatch, p, config) -> list[list]:
    """Log-probability Tensors of every group's sequences: one condition
    encoding and one padded decode per group."""
    return [
        _sequence_logprobs_t(seqs, _encode_condition_t(clouds, p, config), p, config)
        for clouds, seqs in batch.groups
    ]


def _reference_logprobs(pairs, reference: ParameterStore) -> list[tuple[float, float]]:
    """Per pair, the reference log-probabilities of (positive, negative).

    Runs the policy's code path on a store without gradients, so at policy ==
    reference every margin is exactly 0.
    """
    batch = _batch_pairs(pairs)
    lps = _group_logprobs_t(batch, reference.as_tensors(), reference.config)
    return [(float(lps[g][i].value), float(lps[g][j].value)) for g, i, j in batch.index]


def _log_ratios_t(pairs, policy_tensors, config, ref_logprobs) -> list[tuple]:
    """Per pair, (log pi - log ref) of the positive and of the negative."""
    batch = _batch_pairs(pairs)
    lps = _group_logprobs_t(batch, policy_tensors, config)
    out = []
    for k, ((g, i, j), (ref_pos, ref_neg)) in enumerate(zip(batch.index, ref_logprobs)):
        lp_pos, lp_neg = lps[g][i], lps[g][j]
        if not (np.isfinite(lp_pos.value) and np.isfinite(lp_neg.value)):
            raise DPOError(f"non-finite log-probability for pair {k}")
        out.append((ad.sub(lp_pos, ad.Tensor(ref_pos)), ad.sub(lp_neg, ad.Tensor(ref_neg))))
    return out


def _margin_loss_t(log_ratios, beta: float):
    """Mean pairwise loss over per-pair log-ratios; returns (loss Tensor, margin floats)."""
    terms = []
    margins = []
    for chosen, rejected in log_ratios:
        margin = ad.sub(chosen, rejected)
        margins.append(float(margin.value))
        terms.append(dpo_margin_loss(margin, beta))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / len(terms)), margins


def _dpo_loss_t(pairs, policy_tensors, config, ref_logprobs, beta: float):
    """Graph of the batch loss; returns (loss Tensor, margin floats).

    The pairs are grouped by condition content and each group's token
    sequences are deduplicated (``_batch_pairs``): the encoder runs once per
    group and the decoder once per group, over its unique sequences
    right-padded to one batch.  Each sequence's log-probability sums its own
    rows only, and the per-pair terms are summed in pair order.
    """
    return _margin_loss_t(_log_ratios_t(pairs, policy_tensors, config, ref_logprobs), beta)


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

    The reference store is read-only throughout.  The pairs are grouped and
    tokenized once (``_batch_pairs``).  Logs loss, preference accuracy
    (fraction of pairs with positive margin) and the ``DPOStepLog`` reward
    diagnostics per step.  Aborts when the loss stays above
    divergence_factor * ln 2 for divergence_patience consecutive steps.
    """
    dataset = list(dataset)
    if not dataset:
        logger.info("empty preference dataset: policy returned unchanged")
        return policy.copy(), []
    batch = _batch_pairs(dataset)
    refs = _reference_logprobs(batch, reference)
    history: list[DPOStepLog] = []
    bad_streak = 0
    for step in range(config.steps):
        p = policy.as_tensors(trainable=True)
        ratios = _log_ratios_t(batch, p, policy.config, refs)
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
        if value > config.divergence_factor * LN2:
            bad_streak += 1
            if bad_streak >= config.divergence_patience:
                raise TrainingError(
                    f"DPO diverged: loss {value:.3f} above "
                    f"{config.divergence_factor} * ln2 for {bad_streak} steps"
                )
        else:
            bad_streak = 0
        new = policy.copy()
        for name, g in zip(policy.trainable_names(), grads):
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
        if not isinstance(d, dict):
            raise TypeError(f"a record is a JSON object, not {type(d).__name__}")
        mode = d.get("mode", "joint")
        if mode not in PAIRING_MODES:
            raise ValueError(f"mode must be one of {PAIRING_MODES}, got {mode!r}")
        return cls(
            mesh_path=d["mesh"],
            seed=int(d["seed"]),
            positive_index=int(d["positive_index"]),
            negative_index=int(d["negative_index"]),
            positive_metrics=SeamMetrics.from_dict(d["positive_metrics"]),
            negative_metrics=SeamMetrics.from_dict(d["negative_metrics"]),
            mode=mode,
        )


def write_pair_records(records) -> str:
    return "".join(r.to_json() + "\n" for r in records)


def read_pair_records(text: str) -> list[PairRecord]:
    """Parse pair records, one JSON object per non-blank line.

    A line that is not JSON, lacks a key or holds a value of the wrong type
    raises ``DPOError`` naming its 1-based line number.
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
