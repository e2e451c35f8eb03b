"""Preference pairs by strict dominance and direct preference post-training.

A candidate is preferred to another only when it is strictly better on every
gated metric (both distortion and island count in joint mode; one metric in
the single-metric ablation modes).  ``PairRecord``, the stored pair, is the
one place the pair rules are checked.

Training sees no metrics: a pair is the item ``(clouds, (chosen_tokens,
rejected_tokens))`` of ``model._group_conditions``, and ``dpo_train`` runs
the training loop NLL pretraining also runs (``model.train``), supplying
only the per-pair term and the step log.  The objective is the standard
pairwise logistic loss on scaled policy/reference log-ratio margins.  The
reference is the starting policy (Rafailov et al. 2023): its
log-probabilities are read off step 0's pass, where every margin is 0 and
the loss is ln 2 exactly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from seamkit import autodiff as ad
from seamkit.metrics import SeamMetrics, json_field
from seamkit.model import ParameterStore, TrainingError, _group_conditions, train

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
    dataset,
    config: DPOConfig,
) -> tuple[ParameterStore, list[DPOStepLog]]:
    """Run config.steps SGD steps on the preference objective, each moving
    every parameter array, in the one training loop (``model.train``).

    ``dataset`` is a list of ``(clouds, (chosen_tokens, rejected_tokens))``
    items: ``ConditioningClouds`` and two complete int64 token arrays, the
    chosen one preferred (``PairRecord`` checks why).  The items are grouped
    and checked once, up front (``model._group_conditions``); each condition
    is prepared at its first pass, so a run of zero steps prepares none.
    The objective is the mean over pairs of ``_pair_term``.  The reference
    is the starting policy: its log-probabilities are those of step 0's
    pass.  ``policy`` is read-only and goes to ``model.train`` with no name
    kept here, so when the caller keeps none either (as ``seamkit dpo``
    does) the starting store is released at step 0's update.  Logs loss,
    preference accuracy (fraction of pairs with positive margin) and the
    ``DPOStepLog`` reward diagnostics per step, each computed from per-pair
    floats in pair order.  Aborts when the loss stays above
    DIVERGENCE_FACTOR * ln 2 for DIVERGENCE_PATIENCE consecutive steps.

    The log and the trained store are reproducible byte for byte only at a
    fixed BLAS thread count: the thread count changes the summation order
    inside matrix products, and so the last bits of every float.  The
    2-step desk run on the benchmark's seed-0 ``dpo`` inputs writes
    different ``.log.jsonl`` bytes under ``OPENBLAS_NUM_THREADS=1`` and
    ``=2``; their final losses are 3e-16 apart.
    """
    if not dataset:
        logger.info("empty preference dataset: policy returned unchanged")
        return policy.copy(), []
    batch = _group_conditions(dataset, policy.config)
    refs: list = [None] * len(batch.index)  # filled in by step 0's pass
    ratios: list = [None] * len(batch.index)  # per pair (chosen, rejected, margin)
    history: list[DPOStepLog] = []

    def term(k, logprobs):
        if refs[k] is None:  # step 0: the policy is the reference
            refs[k] = tuple(lp.value for lp in logprobs)
        value, *ratios[k] = _pair_term(k, logprobs, refs[k], config.beta)
        return value

    def on_step(step, loss, grads):
        rewards = config.beta * np.array([[chosen, rejected] for chosen, rejected, _ in ratios])
        reward_margins = rewards[:, 0] - rewards[:, 1]
        history.append(
            DPOStepLog(
                step=step,
                loss=loss,
                accuracy=float(np.mean([margin > 0 for *_, margin in ratios])),
                reward_chosen=float(rewards[:, 0].mean()),
                reward_rejected=float(rewards[:, 1].mean()),
                margin_mean=float(reward_margins.mean()),
                margin_min=float(reward_margins.min()),
                grad_norm=float(np.sqrt(sum(np.sum(g * g) for g in grads.values() if g is not None))),
            )
        )
        recent = history[-DIVERGENCE_PATIENCE:]
        if len(recent) == DIVERGENCE_PATIENCE and all(h.loss > DIVERGENCE_FACTOR * LN2 for h in recent):
            raise TrainingError(
                f"DPO diverged: loss {loss:.3f} above "
                f"{DIVERGENCE_FACTOR} * ln2 for {DIVERGENCE_PATIENCE} steps"
            )

    # no name left here: the starting store is freed at step 0's update
    stores = [policy]
    del policy
    weight = 1.0 / len(batch.index)
    return train(stores.pop(), batch, term, weight, config.steps, config.learning_rate, on_step), history


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
