"""Gradient-based trajectory refinement.

Treats the per-frame parameters of an initial trajectory as trainable,
minimizes the composite objective with AdamW under a cosine learning-rate
schedule, and reports per-iteration losses. The run is deterministic: no
randomness is involved, so repeated runs on the same inputs are bitwise
identical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .errors import DegenerateObservationError, DivergedError
from .formats import dump_json
from .hand_model import NUM_SHAPE_PARAMS, HandSkeleton
from .objective import (
    REPROJECTION_NORMS,
    LossWeights,
    SequenceObservation,
    TrajectoryParams,
    _split_flat,
    loss_components,
    make_flat_objective,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SmootherConfig:
    """Settings of one refinement run.

    weight_decay defaults to 0: the parameters are scene coordinates, not
    network weights, and decaying them would bias the trajectory toward the
    origin. optimize_shape keeps the shared shape vector frozen unless set.
    """

    learning_rate: float = 1e-2
    lr_min: float = 0.0
    max_iters: int = 500
    weights: LossWeights = field(default_factory=LossWeights)
    weight_decay: float = 0.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    optimize_shape: bool = False
    reprojection_norm: str = "l2"

    def __post_init__(self):
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.lr_min <= self.learning_rate):
            raise ValueError("lr_min must be in [0, learning_rate]")
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must be in [0, 1)")
        if not (self.adam_eps > 0 and np.isfinite(self.adam_eps)):
            raise ValueError("adam_eps must be finite and positive")
        if self.weight_decay < 0 or not np.isfinite(self.weight_decay):
            raise ValueError("weight_decay must be >= 0")
        if self.reprojection_norm not in REPROJECTION_NORMS:
            raise ValueError(
                f"reprojection_norm must be one of {REPROJECTION_NORMS}"
            )


@dataclass
class AdamWState:
    """First and second moment estimates plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamWState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


@dataclass(frozen=True)
class LossEntry:
    iteration: int
    lr: float
    total: float
    acce_pose: float
    acce_orients: float
    acce_position: float
    loss_2d: float


CSV_COLUMNS = tuple(f.name for f in fields(LossEntry))


@dataclass
class LossReport:
    """Per-iteration loss trace of a refinement run.

    Entry 0 is the loss at the initial parameters; entry i holds the loss
    after i steps together with the learning rate used for step i (the final
    entry reports the schedule endpoint instead). Every entry but the final
    one is read from the recorded pass that produced step i's gradient.
    ``non_improving`` is set when the final total exceeds the initial one, so
    regressions are always flagged rather than silent.
    """

    entries: list = field(default_factory=list)
    non_improving: bool = False
    initial_metrics: dict | None = None
    final_metrics: dict | None = None

    def to_json_dict(self) -> dict:
        d = {
            "entries": [vars(e) for e in self.entries],
            "non_improving": bool(self.non_improving),
        }
        if self.initial_metrics is not None:
            d["initial_metrics"] = self.initial_metrics
        if self.final_metrics is not None:
            d["final_metrics"] = self.final_metrics
        return d

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for e in self.entries:
            lines.append(
                ",".join(repr(getattr(e, c)) for c in CSV_COLUMNS)
            )
        return "\n".join(lines) + "\n"

    def save(self, path: str):
        """Write JSON when the path ends in .json, CSV otherwise."""
        if str(path).endswith(".json"):
            dump_json(self.to_json_dict(), path)
        else:
            with open(path, "w") as fh:
                fh.write(self.to_csv_text())


def cosine_lr(step: int, config: SmootherConfig) -> float:
    """Cosine decay from learning_rate at step 0 to lr_min at max_iters."""
    if not 0 <= step <= config.max_iters:
        raise ValueError("step must be in [0, max_iters]")
    span = config.learning_rate - config.lr_min
    return config.lr_min + 0.5 * span * (1.0 + np.cos(np.pi * step / config.max_iters))


def adamw_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamWState,
    lr: float,
    config: SmootherConfig,
) -> tuple:
    """One decoupled-weight-decay Adam update; pure, returns new arrays.

    params' = params - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * params)
    """
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("params, grad, and state must have matching shapes")
    if not np.all(np.isfinite(grad)):
        raise DivergedError("non-finite gradient")
    step = state.step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    m = b1 * state.m + (1.0 - b1) * grad
    v = b2 * state.v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**step)
    v_hat = v / (1.0 - b2**step)
    update = m_hat / (np.sqrt(v_hat) + config.adam_eps) + config.weight_decay * params
    return params - lr * update, AdamWState(m=m, v=v, step=step)


def smooth(
    initial: TrajectoryParams,
    obs: SequenceObservation,
    skeleton: HandSkeleton,
    config: SmootherConfig = SmootherConfig(),
) -> tuple:
    """Refine a trajectory against its observations.

    Returns (refined, report). The shape segment is returned exactly equal to
    the input unless config.optimize_shape. Raises DivergedError carrying the
    partial report when the loss or gradient goes non-finite; its message
    names the iteration, the first non-finite term and the first parameter
    block whose gradient is non-finite.
    """
    if initial.num_frames != obs.num_frames:
        raise ValueError("trajectory and observations disagree on frame count")
    flat0 = initial.to_flat()
    n = initial.num_frames
    terms = {}  # the unweighted terms of the latest recorded pass
    objective = make_flat_objective(
        obs, skeleton, config.weights, config.reprojection_norm, terms,
        config.optimize_shape,
    )
    params = flat0.copy()
    state = AdamWState.zeros(flat0.size)
    report = LossReport()

    def snapshot(iteration, comps):
        report.entries.append(
            LossEntry(iteration=iteration, lr=float(cosine_lr(iteration, config)), **comps)
        )

    for it in range(config.max_iters):
        # divergence is detected and raised below; silence the intermediate
        # overflow warnings so the report is the single signal
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grad = ad.record_and_backprop(objective, params)
        except DegenerateObservationError as e:
            if it == 0:
                raise  # the input itself is unevaluable, not a divergence
            raise DivergedError(
                f"objective became unevaluable at iteration {it}: {e}",
                report=report,
            ) from e
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            term = next((k for k, v in terms.items() if not np.isfinite(v)), "none")
            blocks = zip(fields(TrajectoryParams), _split_flat(grad, n))
            block = next((f.name for f, g in blocks if not np.all(np.isfinite(g))), "none")
            raise DivergedError(
                f"non-finite loss or gradient at iteration {it}: first non-finite "
                f"term {term}, first non-finite gradient block {block}",
                report=report,
            )
        snapshot(it, dict(terms, total=loss))
        if it % 100 == 0:
            log.debug("iteration %d total %.6g", it, loss)
        params, state = adamw_step(params, grad, state, cosine_lr(it, config), config)
        if not config.optimize_shape:
            # a frozen shape is off the tape, so its gradient is 0, but weight
            # decay would still move it
            params[:NUM_SHAPE_PARAMS] = flat0[:NUM_SHAPE_PARAMS]

    refined = TrajectoryParams.from_flat(params, n)
    snapshot(
        config.max_iters,
        loss_components(refined, obs, skeleton, config.weights, config.reprojection_norm),
    )
    report.non_improving = report.entries[-1].total > report.entries[0].total
    if report.non_improving:
        log.warning(
            "refinement did not improve: %.6g -> %.6g",
            report.entries[0].total,
            report.entries[-1].total,
        )
    return refined, report
