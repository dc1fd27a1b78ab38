"""Communication-round estimation for a target precision.

The estimate is raw = (1/E) * ( L/(2 mu^2 q_o) * (4B + mu^2 * alpha *
init_gap) + 1 - alpha ), clamped to a positive integer, with alpha =
max(8L/mu, E) and B = sum_i eps_i^2 sigma_i^2 + 6 L Gamma + 8 (E-1)^2 G^2.
The rest of the module measures those constants from actual data and
trainer: smoothness L, strong convexity mu, per-participant gradient
variance sigma_i^2, gradient bound G^2, non-iid degree Gamma, and the
init-to-optimum gap.

`measure_round_grid` runs the whole measurement at every noise level of a
grid, one level after the other (noise, one local round, then L, the B
components and the init gap), and `measure_round_constants` is its
one-level case; `RoundConstants.rounds` turns a level's constants into B
and a round estimate. L is measured from the in-space features alone: the
probe's gradient differences hold no labels (`trainer._label_free_gradient`),
so a level whose training sets hold an earlier level's rows under other
labels reuses that level's L instead of probing again.

Optima come from `_lbfgs`, a numpy L-BFGS with Armijo backtracking, so the
package needs no scipy. It solves a stack of problems in iteration
lockstep, every running problem one iteration per tick, each bitwise what
solving it alone gives; `solve_optimum` is a stack of one. Per noise level
the pooled set is solved once, through `solve_optimum`, and the init gap
reads that optimum from `measure_b_components`; then all participants are
solved in one call (`_solve`). Every solver pass is
`trainer._stacked_objective`: the rows augmented once into one block, each
evaluation one pass of the kernel over the running problems. On the pooled
set the log-softmax reduces over the class columns, not along each row.
The B measurement draws every participant's batches, then takes their
gradients from the sampled rows in chunks of batches, one kernel call per
chunk, with no `Dataset` built per batch.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._rng import INIT_GAP, INJECT, MEASURE, TRAIN, derive_rng, derive_seed
from .data import Dataset, concat_datasets
from .engine import RunReport, server_init
from .noise import inject_noise, symmetric_matrix
from .trainer import (_STEP_BLOCK, DatasetStack, DivergenceError, ModelParams, TrainerConfig,
                      _augment, _label_free_gradient, _layout, _pack, _stacked_objective, _xent,
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

#: The solver's dot of each row pair, ``a[i] @ b[i]`` for every i: `np.vecdot`
#: runs the same BLAS dot per row, bit for bit, where ``einsum("ij,ij->i")``
#: and ``(a * b).sum(-1)`` sum in other orders.
_row_dot = np.vecdot


def measure_smoothness(datasets, trainer_config: TrainerConfig,
                       seed: int = 0) -> SmoothnessParams:
    """Estimate L empirically on the pooled in-space rows of the datasets; mu
    is the L2 coefficient exactly.

    L is the largest gradient-difference ratio over random weight pairs
    (`_largest_ratio`), inflated by a 1.2 safety factor and floored at mu.
    The differences hold no labels, so L is a function of the in-space
    features alone. The datasets must agree on the class count and on d.
    """
    if trainer_config.l2_lambda <= 0.0:
        raise NoStrongConvexityError("l2_lambda is 0; the objective is not strongly convex")
    mu = trainer_config.l2_lambda
    sets = [ds.in_space() for ds in datasets]
    if not sets:
        raise ValueError("no datasets to measure")
    c, d = sets[0].class_count, sets[0].d
    for ds in sets[1:]:
        if ds.class_count != c:
            raise ValueError(f"datasets disagree on the class count: {c} and {ds.class_count}")
        if ds.d != d:
            raise ValueError(f"datasets disagree on the feature dimension: {d} and {ds.d}")
    x = _pack(sets)[0]
    if not len(x):
        raise ValueError("dataset is empty")
    return SmoothnessParams(L=max(mu, 1.2 * _largest_ratio(x, c, mu, seed)), mu=mu)


def _largest_ratio(x: np.ndarray, c: int, mu: float, seed: int) -> float:
    """Largest gradient-difference ratio on the augmented rows ``x`` over the probe's pairs.

    The pairs are `_SMOOTHNESS_PAIRS` draws of two (d+1, c) weight matrices
    from the MEASURE stream of ``seed``; a pair at distance zero is
    skipped. The gradients are `_label_free_gradient`s into one (n, c)
    buffer: their differences are those of `gradient` under any labels.
    """
    shape = (x.shape[1], c)
    rng = derive_rng(seed, MEASURE)
    probs = np.empty((len(x), c))
    best = 0.0
    for _ in range(_SMOOTHNESS_PAIRS):
        wa = rng.standard_normal(shape)
        wb = rng.standard_normal(shape)
        denom = float(np.linalg.norm(wa - wb))
        if denom == 0.0:
            continue
        ga = _label_free_gradient(wa, x, probs, mu)
        gb = _label_free_gradient(wb, x, probs, mu)
        best = max(best, float(np.linalg.norm(ga - gb)) / denom)
    return best


def _lbfgs(objective, x: np.ndarray, max_iter: int, gtol: float) -> np.ndarray:
    """Minimize k problems by L-BFGS from the rows of ``x``, in iteration lockstep.

    ``objective(w, members)`` evaluates the listed problems (increasing
    indices) at the rows of w and returns their values (m,) and gradients
    (m, p). Per problem: the two-loop recursion (Liu & Nocedal, Math. Prog.
    45, 1989) over its last 10 curvature pairs (scipy's default memory),
    scaled by H0 = s'y / y'y; the first direction is -g/||g||. Armijo
    backtracking from a unit step halves the step until f falls by 1e-4 of
    the predicted decrease; a pair with s'y <= 0 is skipped. A problem stops
    at max|g| <= gtol, at a relative decrease of at most 1e-18 (no decrease
    in float64), when no step along the direction changes its point, or
    after ``max_iter`` iterations. Returns the (k, p) last accepted points.

    Each tick every running problem takes one iteration: one packed
    objective call for all of them, then more only for the rows that fail
    Armijo; a problem that stops drops out. The pair histories are rings of
    10 (k, p) slots, every row's newest pair in the same slot, so the
    tick's bookkeeping runs on basic slices while all rows hold the same
    number of pairs, and masks only the ages that some rows lack. Dots are
    `_row_dot`, norms its square roots, and every other step is elementwise,
    so each row's point is bitwise the one solving that problem alone gives.
    """
    x = np.array(x, dtype=np.float64)
    k, p = x.shape
    memory = 10
    live = np.arange(k)  # problem of each running row
    f, g = objective(x, live)
    pos = x.copy()
    # Age-major rings: slot j of every row is s_hist[j], a (rows, p) block.
    s_hist, y_hist = np.empty((memory, k, p)), np.empty((memory, k, p))
    rho = np.empty((memory, k))
    count = np.zeros(k, dtype=np.int64)  # pairs each row holds
    head = 0  # ring slot of every row's newest pair
    going = np.ones(k, dtype=bool)  # rows the last tick did not stop
    vecdot, every = _row_dot, np.logical_and.reduce
    every_row = slice(None)
    for _ in range(max_iter):
        going &= ~(np.maximum.reduce(np.abs(g), axis=1) <= gtol)
        if not every(going):
            x[live[~going]] = pos[~going]
            live, pos, f, g, count = live[going], pos[going], f[going], g[going], count[going]
            s_hist, y_hist, rho = s_hist[:, going], y_hist[:, going], rho[:, going]
            if not live.size:
                break
        # q becomes H g, H the inverse-Hessian estimate; the step is along -q.
        # An age that some rows lack runs on the rows that hold it, a basic
        # slice of all rows while every row holds it.
        fewest, most = int(count.min()), int(count.max())
        ages = [(slot % memory, every_row if age < fewest else np.flatnonzero(count > age))
                for age, slot in enumerate(range(head, head - most, -1))]
        q = g.copy()
        alphas = []
        for slot, rows in ages:
            alphas.append(rho[slot, rows] * vecdot(s_hist[slot, rows], q[rows]))
            q[rows] -= alphas[-1][:, None] * y_hist[slot, rows]
        if most:
            rows = every_row if fewest else np.flatnonzero(count)
            s, y = s_hist[head, rows], y_hist[head, rows]
            q[rows] *= (vecdot(s, y) / vecdot(y, y))[:, None]
        if not fewest:
            rows = every_row if not most else np.flatnonzero(count == 0)
            q[rows] /= np.sqrt(vecdot(g[rows], g[rows]))[:, None]
        for (slot, rows), a in zip(reversed(ages), reversed(alphas)):
            q[rows] += ((a - rho[slot, rows] * vecdot(y_hist[slot, rows], q[rows]))[:, None]
                        * s_hist[slot, rows])
        slope = -vecdot(g, q)
        # Backtracking: every row tries a unit step, then the rows that fail
        # Armijo halve their steps and try again. ``rows`` indexes the rows
        # still trying, a basic slice while that is all of them.
        t = np.ones(len(live))
        moved = np.ones(len(live), dtype=bool)
        pos_new, f_new, g_new = pos.copy(), f.copy(), g.copy()
        trial, rows = np.arange(len(live)), every_row
        while True:
            base = pos[rows]
            cand = base - t[rows, None] * q[rows]
            still = every(cand == base, axis=1)
            if still.any():
                # These rows stop at their last accepted points.
                moved[trial[still]] = False
                trial, cand = trial[~still], cand[~still]
                rows = trial
                if not trial.size:
                    break
            values, grads = objective(cand, live[rows])
            pos_new[rows], f_new[rows], g_new[rows] = cand, values, grads
            failed = ~(values <= f[rows] + 1e-4 * t[rows] * slope[rows])
            if not failed.any():
                break
            trial = rows = trial[failed]
            t[rows] *= 0.5
        if not every(moved):
            # A stopped row keeps its last accepted point, whatever it tried.
            stopped = ~moved
            pos_new[stopped], f_new[stopped], g_new[stopped] = pos[stopped], f[stopped], g[stopped]
        s, y = pos_new - pos, g_new - g
        sy = vecdot(s, y)
        decrease = (f - f_new) / np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
        pos, f, g = pos_new, f_new, g_new
        going = moved & ~(decrease <= 1e-18)
        head = (head + 1) % memory
        kept = sy > 0.0
        if every(kept):
            s_hist[head], y_hist[head], rho[head] = s, y, 1.0 / sy
            count += count < memory
        else:
            # Rows that skip their pair rotate their rings, so every row's
            # newest pair stays in the head slot.
            skip = ~kept
            for ring in (s_hist, y_hist, rho):
                ring[:, skip] = np.roll(ring[:, skip], 1, axis=0)
            s_hist[head, kept], y_hist[head, kept] = s[kept], y[kept]
            rho[head, kept] = 1.0 / sy[kept]
            count[kept] += count[kept] < memory
    x[live] = pos
    return x


def _solve(members: list, trainer_config: TrainerConfig,
           start: ModelParams | None) -> list[Optimum]:
    """`solve_optimum` of each in-space member, bitwise, in one lockstep `_lbfgs` call.

    The members' rows are augmented once, into one block of the solver's
    objective (`_stacked_objective`). Each member's final gradient and loss
    come from `gradient` and `loss`, after the objective is freed; the
    members are checked in order, so the first failing one raises.
    """
    d, c = members[0].d, members[0].class_count
    lam = trainer_config.l2_lambda
    x0 = (start.weights if start is not None else np.zeros((d + 1, c))).ravel()
    # No local name for the objective: its block and buffer go with the
    # solver, before the final checks allocate their own.
    x = _lbfgs(_stacked_objective(members, lam), np.repeat(x0[None], len(members), axis=0),
               _LBFGS_MAX_ITER, min(_GRAD_TOL, 1e-9) / 10.0)
    optima = []
    for w, ds in zip(x, members):
        model = ModelParams(weights=w.reshape(d + 1, c), class_count=c)
        grad_norm = float(np.linalg.norm(gradient(model, ds, lam)))
        if grad_norm > _HARD_TOL:
            raise MeasurementError(
                f"optimizer stopped with gradient norm {grad_norm:.3e} > {_HARD_TOL:.0e}")
        if grad_norm > _GRAD_TOL:
            logger.warning("optimum gradient norm %.3e misses the %.0e target", grad_norm,
                           _GRAD_TOL)
        optima.append(Optimum(model=model, loss=loss(model, ds, lam), grad_norm=grad_norm))
    return optima


def solve_optimum(dataset: Dataset, trainer_config: TrainerConfig,
                  start: ModelParams | None = None) -> Optimum:
    """Minimize the regularized objective on the dataset.

    Strong convexity makes the minimum unique; L-BFGS (`_lbfgs`) drives
    the gradient toward _GRAD_TOL. A final gradient norm above _HARD_TOL is
    a failed measurement and raises. The final gradient and loss come from
    `gradient` and `loss`. This is the one-problem case of `_solve`.
    """
    return _solve([dataset.in_space()], trainer_config, start)[0]


def measure_init_gap(d: int, c: int, seed: int, w_star: ModelParams,
                     init_scale: float = 0.01) -> float:
    """Mean squared distance from fresh server inits to the optimum."""
    gaps = []
    for j in range(_INIT_GAP_DRAWS):
        w1 = server_init(d, c, derive_seed(seed, INIT_GAP, j), init_scale)
        gaps.append(float(np.sum((w1.weights - w_star.weights) ** 2)))
    return float(np.mean(gaps))


def _b_moments(datasets, models, trainer_config: TrainerConfig,
               seed: int) -> tuple[list[float], float]:
    """sigma_i^2 of each in-space participant and G^2 over all of them.

    Each participant draws its _B_BATCHES batches first, from its own MEASURE
    stream in order; they are then scored in chunks of at most _STEP_BLOCK
    batch logits, one `_xent` call per chunk with every batch a model at the
    participant's weights, so every batch gradient is bitwise `gradient` on
    that batch alone.
    """
    lam = trainer_config.l2_lambda
    add = np.add.reduce
    sigma_sq, g_sq = [], 0.0
    fulls, draws = [], []
    for i, (ds, model) in enumerate(zip(datasets, models)):
        rng = derive_rng(seed, MEASURE, i)
        fulls.append(gradient(model, ds, lam))
        batch = min(trainer_config.batch_size, ds.n)
        draws.append(np.sort([rng.choice(ds.n, size=batch, replace=False)
                              for _ in range(_B_BATCHES)], axis=1))
    for ds, model, full, batches in zip(datasets, models, fulls, draws):
        per_chunk = max(1, _STEP_BLOCK // (batches.shape[1] * ds.class_count))
        worst = 0.0
        for chunk in np.split(batches, range(per_chunk, _B_BATCHES, per_chunk)):
            rows = chunk.reshape(-1)
            k = len(chunk)
            bgrads = np.empty((k,) + model.weights.shape)
            layout = _layout([_augment(ds.features[rows]).reshape(*chunk.shape, -1)],
                             np.empty((rows.size, ds.class_count)))
            _xent(np.broadcast_to(model.weights, bgrads.shape), layout, ds.observed_labels[rows],
                  lam, bgrads)
            for dev, size in zip(add(((bgrads - full) ** 2).reshape(k, -1), axis=-1).tolist(),
                                 add((bgrads ** 2).reshape(k, -1), axis=-1).tolist()):
                worst = max(worst, dev)
                g_sq = max(g_sq, size)
        sigma_sq.append(worst)
    return sigma_sq, g_sq


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
    sigma_sq, g_sq = _b_moments(datasets, models, trainer_config, seed)
    # The pooled set lives only through its own solve; the participants are
    # then solved together on one block of their rows.
    optimum = solve_optimum(concat_datasets(datasets, name="pooled"), trainer_config,
                            start=server_ref_model)
    l_star = optimum.loss
    l_i_star = [opt.loss for opt in _solve(datasets, trainer_config, server_ref_model)]
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


#: Failures that stop one noise level of a round grid, which `fednl rounds`
#: reports as error rows before going on: invalid or unmeasurable constants
#: (ValueError covers NoStrongConvexityError, a failed injection and numpy's
#: LinAlgError) and diverged training. Anything else is a program error.
_GRID_ERRORS = (ValueError, MeasurementError, DivergenceError)


def measure_round_grid(participants, trainer_config: TrainerConfig, seed: int, noise_levels,
                       init_scale: float = 0.01) -> list:
    """`measure_round_constants` at each noise level, in order.

    Returns, per level, its `RoundConstants` or the `_GRID_ERRORS` error
    that stopped it; any other error propagates. Each level runs its steps
    in order (`_measure_level`), so a failing level reports the first error
    it would hit alone. A level whose training sets hold the features of an
    earlier probed level's sets reuses that level's L: the probe would
    measure the same L again.
    """
    d, c = participants[0].d, participants[0].class_count
    init = server_init(d, c, seed, init_scale)
    probed = []  # (training features, SmoothnessParams) of each level that ran a probe
    results = []
    for level in noise_levels:
        try:
            results.append(_measure_level(participants, trainer_config, seed, level, init,
                                          init_scale, probed))
        except _GRID_ERRORS as e:
            results.append(e)
    return results


def _measure_level(participants, trainer_config: TrainerConfig, seed: int, level: float,
                   init: ModelParams, init_scale: float, probed: list) -> RoundConstants:
    """One level of `measure_round_grid`: inject, train one local round from
    ``init``, then L, the B components and the init gap.

    L comes from the first ``probed`` entry whose features equal the
    level's, set by set; else the level's probe runs and joins ``probed``.
    """
    key = int(round(level * 10**6))
    if level > 0.0:
        # The injected sets' copies of the true labels go at once: only
        # their observed labels live on, in the training sets.
        matrix = symmetric_matrix(participants[0].class_count, level)
        participants = [inject_noise(ds, matrix, derive_seed(seed, INJECT, key, i))[0]
                        .training_view() for i, ds in enumerate(participants)]
    train_sets = [ds.training_view().in_space() for ds in participants]
    seeds = [derive_seed(seed, TRAIN, key, i) for i in range(len(train_sets))]
    models = train_local(init, DatasetStack(train_sets), trainer_config, seeds)
    features = [ds.features for ds in train_sets]
    for earlier, smooth in probed:
        if all(a is b or np.array_equal(a, b) for a, b in zip(earlier, features)):
            break
    else:
        smooth = measure_smoothness(train_sets, trainer_config, seed=seed)
        probed.append((features, smooth))
    comps = measure_b_components(train_sets, models, init, trainer_config,
                                 seed=derive_seed(seed, MEASURE, key))
    gap = measure_init_gap(init.d, init.class_count, seed, comps.optimum.model,
                           init_scale=init_scale)
    return RoundConstants(smooth=smooth, components=comps, init_gap=gap)


def measure_round_constants(participants, trainer_config: TrainerConfig, seed: int,
                            noise_level: float = 0.0,
                            init_scale: float = 0.01) -> RoundConstants:
    """Measure L, the B components and the init gap after one local round.

    Labels pass through a symmetric channel of flip rate ``noise_level``
    (none at 0), then each participant trains from the server init on its
    in-space view. With key = the level in millionths, injection and training
    draw from (INJECT|TRAIN, key, i), the B measurement from (MEASURE, key),
    and L's probe and the init gap from ``seed``, shared by every level.
    This is the one-level case of `measure_round_grid`; a failure raises.
    """
    (result,) = measure_round_grid(participants, trainer_config, seed, [noise_level],
                                   init_scale)
    if isinstance(result, Exception):
        raise result
    return result


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
