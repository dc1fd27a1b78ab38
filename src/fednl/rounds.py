"""Communication-round estimation for a target precision.

The estimate is raw = (1/E) * ( L/(2 mu^2 q_o) * (4B + mu^2 * alpha *
init_gap) + 1 - alpha ), clamped to a positive integer, with alpha =
max(8L/mu, E) and B = sum_i eps_i^2 sigma_i^2 + 6 L Gamma + 8 (E-1)^2 G^2.
The rest of the module measures those constants from actual data and
trainer: smoothness L, strong convexity mu, per-participant gradient
variance sigma_i^2, gradient bound G^2, non-iid degree Gamma, and the
init-to-optimum gap.

`measure_round_constants` runs the whole measurement (noise, one local
round, then L, the B components and the init gap) for every caller;
`RoundConstants.rounds` turns it into B and a round estimate.

Optima come from `_lbfgs`, a numpy L-BFGS with Armijo backtracking, so the
package needs no scipy. Each solve and the smoothness probe evaluate loss
and gradient in one buffered pass (`trainer._objective`); on the pooled
set its log-softmax reduces over the class columns, not along each row.
The B measurement's batch gradients come straight from the sampled rows'
features and labels (`trainer._gradient`, the body of `gradient`), with no
`Dataset` built per batch. The pooled optimum is solved once per
measurement: `measure_b_components` returns it, and the init gap reads it
from there.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._rng import INIT_GAP, INJECT, MEASURE, TRAIN, derive_rng, derive_seed
from .data import Dataset, concat_datasets
from .engine import RunReport, server_init
from .noise import inject_noise, symmetric_matrix
from .trainer import (DatasetStack, ModelParams, TrainerConfig, _augment, _gradient, _objective,
                      gradient, loss, train_local)

logger = logging.getLogger(__name__)


class MeasurementError(RuntimeError):
    """A measured constant could not be pinned down (optimizer did not converge)."""


class NoStrongConvexityError(ValueError):
    """The trainer has no L2 term, so there is no strong-convexity constant."""


@dataclass(frozen=True)
class SmoothnessParams:
    """Gradient-Lipschitz constant L and strong-convexity constant mu."""

    L: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if self.L < self.mu:
            raise ValueError("L must be at least mu")


@dataclass(frozen=True)
class RoundParams:
    """Inputs to the round formula besides L and mu."""

    local_epochs: int
    q_o: float
    B: float
    init_gap: float

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be positive")
        if not self.q_o > 0.0:
            raise ValueError("q_o must be positive")
        if self.B < 0.0:
            raise ValueError("B must be non-negative")
        if self.init_gap < 0.0:
            raise ValueError("init_gap must be non-negative")


@dataclass(frozen=True)
class RoundEstimate:
    """Raw real-valued round count and its clamped integer form."""

    raw: float
    rounds: int
    alpha: float


@dataclass(frozen=True)
class Optimum:
    """Solved minimizer of one regularized objective."""

    model: ModelParams
    loss: float
    grad_norm: float


@dataclass(frozen=True)
class BComponents:
    """Measured ingredients of B.

    ``Gamma`` is floored at 0. ``optimum`` is the pooled optimum, solved
    from the server model; callers that need w* (the init gap) read it here
    instead of solving again.
    """

    sigma_sq: tuple[float, ...]
    G_sq: float
    Gamma: float
    optimum: Optimum

    @property
    def L_star(self) -> float:
        """Pooled optimum loss."""
        return self.optimum.loss


#: Weight pairs `measure_smoothness` probes, server inits `measure_init_gap`
#: averages over, and batches per participant `measure_b_components` samples.
_SMOOTHNESS_PAIRS = 100
_INIT_GAP_DRAWS = 10
_B_BATCHES = 50

#: `solve_optimum`'s gradient-norm target (it warns above it), its hard limit
#: (it raises above it) and the solver's iteration cap.
_GRAD_TOL = 1e-6
_HARD_TOL = 1e-4
_LBFGS_MAX_ITER = 5000


def measure_smoothness(dataset: Dataset, trainer_config: TrainerConfig,
                       seed: int = 0) -> SmoothnessParams:
    """Estimate L empirically; mu is the L2 coefficient exactly.

    L is the largest gradient-difference ratio over random weight pairs,
    inflated by a 1.2 safety factor and floored at mu.
    """
    if trainer_config.l2_lambda <= 0.0:
        raise NoStrongConvexityError("l2_lambda is 0; the objective is not strongly convex")
    mu = trainer_config.l2_lambda
    ds = dataset.in_space()
    if ds.n == 0:
        raise ValueError("dataset is empty")
    rng = derive_rng(seed, MEASURE)
    shape = (ds.d + 1, ds.class_count)
    objective = _objective(ds, mu)
    best = 0.0
    for _ in range(_SMOOTHNESS_PAIRS):
        wa = rng.standard_normal(shape)
        wb = rng.standard_normal(shape)
        ga = objective(wa)[1]
        gb = objective(wb)[1]
        denom = float(np.linalg.norm(wa - wb))
        if denom == 0.0:
            continue
        best = max(best, float(np.linalg.norm(ga - gb)) / denom)
    return SmoothnessParams(L=max(mu, 1.2 * best), mu=mu)


def _lbfgs(objective, x: np.ndarray, max_iter: int, gtol: float) -> np.ndarray:
    """Minimize ``objective(x) -> (value, gradient)`` by L-BFGS from ``x``.

    The two-loop recursion (Liu & Nocedal, Math. Prog. 45, 1989) over the
    last 10 curvature pairs (scipy's default memory), scaled by
    H0 = s'y / y'y; the first direction is -g/||g||. Armijo backtracking from
    a unit step halves the step until f falls by 1e-4 of the predicted
    decrease; a pair with s'y <= 0 is skipped. Stops at max|g| <= gtol, at a
    relative decrease of at most 1e-18 (no decrease in float64), when no
    step along the direction changes x, or after ``max_iter`` iterations.
    Returns the last accepted point.
    """
    f, g = objective(x)
    pairs = deque(maxlen=10)  # (s, y, 1 / s'y), oldest first
    for _ in range(max_iter):
        if np.max(np.abs(g)) <= gtol:
            break
        # q becomes H g, H the inverse-Hessian estimate; the step is along -q.
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        else:
            q /= np.linalg.norm(g)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        slope = -(g @ q)
        t = 1.0
        while True:
            x_new = x - t * q
            if np.array_equal(x_new, x):
                return x
            f_new, g_new = objective(x_new)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= 1e-18:
            break
    return x


def solve_optimum(dataset: Dataset, trainer_config: TrainerConfig,
                  start: ModelParams | None = None) -> Optimum:
    """Minimize the regularized objective on the dataset.

    Strong convexity makes the minimum unique; L-BFGS (`_lbfgs`) drives
    the gradient toward _GRAD_TOL. A final gradient norm above _HARD_TOL is
    a failed measurement and raises. The final gradient and loss come from
    `gradient` and `loss`, after the solver's buffered objective is freed.
    """
    ds = dataset.in_space()
    if ds.n == 0:
        raise ValueError("dataset is empty")
    d, c = ds.d, ds.class_count
    lam = trainer_config.l2_lambda
    x0 = (start.weights if start is not None else np.zeros((d + 1, c))).ravel()
    # No local name for the objective: its features and buffer go with the
    # solver, before the final check allocates its own.
    x = _lbfgs(_objective(ds, lam), x0, _LBFGS_MAX_ITER, min(_GRAD_TOL, 1e-9) / 10.0)
    model = ModelParams(weights=x.reshape(d + 1, c), class_count=c)
    grad_norm = float(np.linalg.norm(gradient(model, ds, lam)))
    if grad_norm > _HARD_TOL:
        raise MeasurementError(
            f"optimizer stopped with gradient norm {grad_norm:.3e} > {_HARD_TOL:.0e}")
    if grad_norm > _GRAD_TOL:
        logger.warning("optimum gradient norm %.3e misses the %.0e target", grad_norm, _GRAD_TOL)
    return Optimum(model=model, loss=loss(model, ds, lam), grad_norm=grad_norm)


def measure_init_gap(d: int, c: int, seed: int, w_star: ModelParams,
                     init_scale: float = 0.01) -> float:
    """Mean squared distance from fresh server inits to the optimum."""
    gaps = []
    for j in range(_INIT_GAP_DRAWS):
        w1 = server_init(d, c, derive_seed(seed, INIT_GAP, j), init_scale)
        gaps.append(float(np.sum((w1.weights - w_star.weights) ** 2)))
    return float(np.mean(gaps))


def measure_b_components(datasets, models, server_ref_model: ModelParams,
                         trainer_config: TrainerConfig, seed: int = 0) -> BComponents:
    """Measure sigma_i^2, G^2 and Gamma from data and current models.

    Per participant, sigma_i^2 is the worst squared deviation of a sampled
    batch gradient from the full gradient at that participant's current
    model, and G^2 the worst squared batch-gradient norm over everyone.
    Gamma compares the pooled optimum loss with the mean per-participant
    optimum loss, floored at 0; optimizations start from the server model.
    The pooled optimum is returned whole as ``optimum``.
    """
    datasets = [ds.in_space() for ds in datasets]
    models = list(models)
    if len(datasets) != len(models) or not datasets:
        raise ValueError("need one model per dataset")
    n = len(datasets)
    lam = trainer_config.l2_lambda

    sigma_sq, g_sq = [], 0.0
    for i, (ds, model) in enumerate(zip(datasets, models)):
        rng = derive_rng(seed, MEASURE, i)
        full = gradient(model, ds, lam)
        worst = 0.0
        batch = min(trainer_config.batch_size, ds.n)
        for _ in range(_B_BATCHES):
            rows = np.sort(rng.choice(ds.n, size=batch, replace=False))
            # Augmented per batch: an augmented copy of the whole set would
            # outlive the loop and sit in memory through the pooled solve.
            bgrad = _gradient(model.weights, _augment(ds.features[rows]),
                              ds.observed_labels[rows], lam)
            worst = max(worst, float(np.sum((bgrad - full) ** 2)))
            g_sq = max(g_sq, float(np.sum(bgrad ** 2)))
        sigma_sq.append(worst)

    pooled = concat_datasets(datasets, name="pooled")
    optimum = solve_optimum(pooled, trainer_config, start=server_ref_model)
    l_star = optimum.loss
    l_i_star = [solve_optimum(ds, trainer_config, start=server_ref_model).loss
                for ds in datasets]
    # (1/n) * loss per term, summed in order: `v / n` or np.mean round
    # differently, and Gamma feeds every B and round count.
    mean = float(sum((1.0 / n) * v for v in l_i_star))
    return BComponents(
        sigma_sq=tuple(sigma_sq),
        G_sq=g_sq,
        Gamma=max(0.0, l_star - mean),
        optimum=optimum,
    )


def compute_B(epsilon, sigma_sq, L: float, Gamma: float, local_epochs: int,
              G_sq: float) -> float:
    """B = sum_i eps_i^2 sigma_i^2 + 6 L Gamma + 8 (E-1)^2 G^2."""
    epsilon = np.asarray(epsilon, dtype=np.float64)
    sigma_sq = np.asarray(sigma_sq, dtype=np.float64)
    if epsilon.shape != sigma_sq.shape:
        raise ValueError("epsilon and sigma_sq must align")
    if np.any(sigma_sq < 0) or Gamma < 0 or G_sq < 0:
        raise ValueError("B components must be non-negative")
    if local_epochs < 1:
        raise ValueError("local_epochs must be positive")
    variance_term = float(np.sum(epsilon ** 2 * sigma_sq))
    return variance_term + 6.0 * L * Gamma + 8.0 * (local_epochs - 1) ** 2 * G_sq


def estimate_rounds(smooth: SmoothnessParams, params: RoundParams,
                    alpha_minus_one: bool = False) -> RoundEstimate:
    """Rounds needed for precision q_o under the diminishing schedule.

    alpha = max(8L/mu, E), minus one behind the flag (the derivation uses
    the shifted form; the stated result does not). The raw value can be
    negative for loose targets, hence the clamp to at least one round.
    """
    L, mu = smooth.L, smooth.mu
    alpha = max(8.0 * L / mu, float(params.local_epochs))
    if alpha_minus_one:
        alpha -= 1.0
    bracket = 4.0 * params.B + mu ** 2 * alpha * params.init_gap
    raw = (L / (2.0 * mu ** 2 * params.q_o) * bracket + 1.0 - alpha) / params.local_epochs
    return RoundEstimate(raw=raw, rounds=max(1, math.ceil(raw)), alpha=alpha)


@dataclass(frozen=True)
class RoundConstants:
    """Measured inputs of the round formula at one noise level.

    ``components`` carries sigma_i^2, G^2, Gamma and the pooled optimum;
    ``init_gap`` is the mean squared distance from server inits to it.
    """

    smooth: SmoothnessParams
    components: BComponents
    init_gap: float

    def rounds(self, local_epochs: int, q_o: float,
               alpha_minus_one: bool = False) -> tuple[float, RoundEstimate]:
        """B, with uniform participant weights, and the rounds for E epochs and q_o."""
        comps = self.components
        n = len(comps.sigma_sq)
        B = compute_B(np.full(n, 1.0 / n), comps.sigma_sq, self.smooth.L, comps.Gamma,
                      local_epochs, comps.G_sq)
        return B, estimate_rounds(self.smooth,
                                  RoundParams(local_epochs, q_o, B, self.init_gap),
                                  alpha_minus_one=alpha_minus_one)


def measure_round_constants(participants, trainer_config: TrainerConfig, seed: int,
                            noise_level: float = 0.0,
                            init_scale: float = 0.01) -> RoundConstants:
    """Measure L, the B components and the init gap after one local round.

    Labels pass through a symmetric channel of flip rate ``noise_level``
    (none at 0), then each participant trains from the server init on its
    in-space view. With key = the level in millionths, injection and training
    draw from (INJECT|TRAIN, key, i), the B measurement from (MEASURE, key),
    and L's probe and the init gap from ``seed``, shared by every level.
    """
    d, c = participants[0].d, participants[0].class_count
    key = int(round(noise_level * 10**6))
    if noise_level > 0.0:
        matrix = symmetric_matrix(c, noise_level)
        participants = [inject_noise(ds, matrix, derive_seed(seed, INJECT, key, i))[0]
                        for i, ds in enumerate(participants)]
    train_sets = [ds.training_view().in_space() for ds in participants]
    init = server_init(d, c, seed, init_scale)
    seeds = [derive_seed(seed, TRAIN, key, i) for i in range(len(train_sets))]
    models = train_local(init, DatasetStack(train_sets, seeds), trainer_config)
    smooth = measure_smoothness(concat_datasets(train_sets, name="pooled"), trainer_config,
                                seed=seed)
    comps = measure_b_components(train_sets, models, init, trainer_config,
                                 seed=derive_seed(seed, MEASURE, key))
    gap = measure_init_gap(d, c, seed, comps.optimum.model, init_scale=init_scale)
    return RoundConstants(smooth=smooth, components=comps, init_gap=gap)


def verify_rate(run: RunReport, optimum_loss: float) -> float:
    """Slope of log(global loss - optimum) against log(cumulative steps).

    Fit over the tail half of the run, where transients have died out. A
    1/T convergence rate shows up as a slope near -1. Rounds at or below
    the optimum estimate are clipped to a 1e-12 gap.
    """
    if len(run.records) < 4:
        raise ValueError("need at least 4 rounds to fit a rate")
    gaps = np.array([r.global_loss - optimum_loss for r in run.records])
    if np.any(gaps <= 0.0):
        logger.warning("%d rounds at or below the optimum estimate; clipping",
                       int(np.sum(gaps <= 0.0)))
        gaps = np.maximum(gaps, 1e-12)
    steps = np.array([r.cumulative_epochs for r in run.records], dtype=np.float64)
    half = len(gaps) // 2
    slope = np.polyfit(np.log(steps[half:]), np.log(gaps[half:]), 1)[0]
    return float(slope)
