"""Influence-based aggregation weights.

A participant's influence this round is how much the server-test loss moves
when its model is left out of the aggregate, accumulated over rounds with a
decay factor. Weights are the normalized reciprocals, epsilon_i proportional
to 1/gamma_i, so a participant whose removal moves the loss least gets the
largest weight and a high-influence participant gets a small one. Sizes
entering the leave-one-out aggregates are noise-adjusted effective sizes.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .trainer import ModelParams, TrainerConfig, loss

#: Influence floor keeping every 1/gamma finite.
GAMMA_MIN = 1e-8


class DegenerateAggregateError(ValueError):
    """Leave-one-out aggregate undefined: every other weight is zero."""


@dataclass(frozen=True)
class InfluenceState:
    """One participant's influence bookkeeping for one round."""

    gamma_prev: float
    gamma: float
    q_hat: float
    effective_size: float
    instantaneous: float


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


def leave_one_out_aggregate(models: list[ModelParams], sizes, i: int) -> ModelParams:
    """Size-weighted mean of every model except participant i's."""
    if len(models) < 2:
        raise ValueError("leave-one-out needs at least 2 participants")
    if not 0 <= i < len(models):
        raise ValueError(f"participant index {i} out of range")
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.shape != (len(models),):
        raise ValueError("sizes must align with models")
    keep = [l for l in range(len(models)) if l != i]
    total = sizes[keep].sum()
    if total <= 0:
        raise DegenerateAggregateError(
            f"all effective sizes besides participant {i}'s are zero")
    weights = np.zeros_like(sizes)
    weights[keep] = sizes[keep] / total
    stacked = sum(weights[l] * models[l].weights for l in keep)
    return ModelParams(weights=stacked, class_count=models[0].class_count)


def decay_factor(eta: float, l2_lambda: float, epochs: int) -> float:
    """Per-round influence decay (1 - eta*lambda)^E.

    The contraction factor of one SGD epoch on a lambda-strongly-convex
    objective; the base is clipped to [0, 1] so the power stays a decay.
    """
    base = min(1.0, max(0.0, 1.0 - eta * l2_lambda))
    return base ** epochs


def influence(i: int, models: list[ModelParams], sizes, aggregated: ModelParams,
              server_test: Dataset, gamma_prev: float, eta: float,
              trainer_config: TrainerConfig, matrix_norm: bool = False) -> InfluenceState:
    """One participant's influence update for the round just aggregated.

    The instantaneous term is the absolute server-test loss change between
    the broadcast aggregate and the leave-one-out aggregate (or, behind the
    flag, the spectral norm of the weight difference); history decays by the
    contraction factor. The result is floored at GAMMA_MIN so downstream
    reciprocals stay finite.
    """
    loo = leave_one_out_aggregate(models, sizes, i)
    if matrix_norm:
        s = float(np.linalg.norm(loo.weights - aggregated.weights, 2))
    else:
        lam = trainer_config.l2_lambda
        s = abs(loss(loo, server_test, lam) - loss(aggregated, server_test, lam))
    q_hat = decay_factor(eta, trainer_config.l2_lambda, trainer_config.local_epochs)
    gamma = max(GAMMA_MIN, q_hat * gamma_prev + s)
    sizes = np.asarray(sizes, dtype=np.float64)
    return InfluenceState(
        gamma_prev=gamma_prev,
        gamma=gamma,
        q_hat=q_hat,
        effective_size=float(sizes[i]),
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
