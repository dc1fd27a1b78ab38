"""Influence-based aggregation weights.

A participant's influence this round is how much the server-test loss moves
when its model is left out of the aggregate, accumulated over rounds with a
decay factor. Weights are the normalized reciprocals, epsilon_i proportional
to 1/gamma_i, so a participant whose removal moves the loss least gets the
largest weight and a high-influence participant gets a small one. Sizes
entering the leave-one-out aggregates are noise-adjusted effective sizes.

One `influence` call per round updates every participant: it builds all n
leave-one-out aggregates as one (n, d+1, c) stack, takes the aggregate's
test loss once and scores the stack with batched matmuls.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .trainer import ModelParams, TrainerConfig, _augment, _losses, loss

#: Influence floor keeping every 1/gamma finite.
GAMMA_MIN = 1e-8


class DegenerateAggregateError(ValueError):
    """Leave-one-out aggregate undefined: every other weight is zero."""


@dataclass(frozen=True)
class InfluenceState:
    """Every participant's influence bookkeeping for one round.

    Each field is a float64 vector with one entry per participant.
    """

    gamma: np.ndarray
    q_hat: np.ndarray
    instantaneous: np.ndarray


@dataclass(frozen=True)
class ContributionWeights:
    """Normalized non-negative aggregation weights, one per participant."""

    epsilon: np.ndarray

    def __post_init__(self):
        eps = np.ascontiguousarray(self.epsilon, dtype=np.float64)
        if eps.ndim != 1 or eps.size == 0:
            raise ValueError("epsilon must be a non-empty vector")
        if np.any(eps < 0.0):
            raise ValueError("weights must be non-negative")
        total = eps.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        eps.setflags(write=False)
        object.__setattr__(self, "epsilon", eps)

    def __len__(self) -> int:
        return self.epsilon.size


def effective_sizes(sizes, betas, literal_noise_adjustment: bool = False) -> np.ndarray:
    """Noise-adjusted sizes m_i.

    Default m_i = n_i (1 - beta_i), the count of effectively noise-free
    instances. The literal flag computes n_i * beta_i instead, reproducing
    the source formula whose words and symbols disagree.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if sizes.shape != betas.shape:
        raise ValueError("sizes and betas must align")
    if np.any(sizes < 0) or np.any(betas < 0) or np.any(betas > 1):
        raise ValueError("need sizes >= 0 and betas in [0, 1]")
    return sizes * (betas if literal_noise_adjustment else 1.0 - betas)


def size_weights(sizes) -> ContributionWeights:
    """Plain proportional-to-size weights n_i / sum(n)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    total = sizes.sum()
    if total <= 0:
        raise ValueError("total size must be positive")
    return ContributionWeights(epsilon=sizes / total)


def leave_one_out_aggregates(models: list[ModelParams], sizes) -> np.ndarray:
    """Size-weighted means of every model but one, as an (n, d+1, c) stack.

    Entry i leaves out participant i. Each entry accumulates the other
    models in ascending order with weights m_l / sum_{l != i} m_l, so it
    equals the explicit per-i sum bit for bit (and does not cancel, as the
    closed form (S - m_i W_i) / (M - m_i) can).
    """
    n = len(models)
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 participants")
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.shape != (n,):
        raise ValueError("sizes must align with models")
    coef = np.zeros((n, n))
    for i, keep in enumerate(~np.eye(n, dtype=bool)):
        total = sizes[keep].sum()
        if total <= 0:
            raise DegenerateAggregateError(
                f"all effective sizes besides participant {i}'s are zero")
        coef[i, keep] = sizes[keep] / total
    stack = np.zeros((n,) + models[0].weights.shape)
    for l, model in enumerate(models):
        stack += coef[:, l, None, None] * model.weights
    return stack


def decay_factor(eta: float, l2_lambda: float, epochs: int) -> float:
    """Per-round influence decay (1 - eta*lambda)^E.

    The contraction factor of one SGD epoch on a lambda-strongly-convex
    objective; the base is clipped to [0, 1] so the power stays a decay.
    """
    base = min(1.0, max(0.0, 1.0 - eta * l2_lambda))
    return base ** epochs


def influence(models: list[ModelParams], sizes, aggregated: ModelParams,
              server_test: Dataset, gammas_prev, etas, trainer_config: TrainerConfig,
              matrix_norm: bool = False) -> InfluenceState:
    """Every participant's influence update for the round just aggregated.

    Participant i's instantaneous term is the absolute server-test loss
    change between the broadcast aggregate and the aggregate without i (or,
    behind the flag, the spectral norm of the weight difference); its
    history ``gammas_prev[i]`` decays by the contraction factor at its rate
    ``etas[i]``. Results are floored at GAMMA_MIN so downstream reciprocals
    stay finite.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    gammas_prev = np.asarray(gammas_prev, dtype=np.float64)
    if gammas_prev.shape != sizes.shape or len(etas) != sizes.size:
        raise ValueError("gammas_prev and etas must have one entry per participant")
    loo = leave_one_out_aggregates(models, sizes)
    lam = trainer_config.l2_lambda
    if matrix_norm:
        s = np.linalg.norm(loo - aggregated.weights, 2, axis=(1, 2))
    else:
        base = loss(aggregated, server_test, lam)
        s = np.abs(np.array(_losses(loo, _augment(server_test.features),
                                    server_test.observed_labels, lam)) - base)
    q_hat = np.array([decay_factor(eta, lam, trainer_config.local_epochs) for eta in etas])
    return InfluenceState(
        gamma=np.fmax(GAMMA_MIN, q_hat * gammas_prev + s),
        q_hat=q_hat,
        instantaneous=s,
    )


def contributions(gammas) -> ContributionWeights:
    """Weights proportional to 1/gamma: epsilon_i = (1/gamma_i) / sum_j (1/gamma_j)."""
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.ndim != 1 or gammas.size == 0:
        raise ValueError("gammas must be a non-empty vector")
    if np.any(gammas <= 0.0):
        raise ValueError("gammas must be positive; apply the floor first")
    inv = 1.0 / gammas
    return ContributionWeights(epsilon=inv / inv.sum())
