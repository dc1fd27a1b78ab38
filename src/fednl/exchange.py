"""Class-wise noise normalization against a clean server dataset.

After estimation, each class k demands the fraction by which its noise ratio
exceeds the participant's best class. The server answers every demanding
class with the same count u (the least it can satisfy), which keeps the
per-class noise ratios moving toward each other instead of replacing one
imbalance with another. Only (class id, count) pairs travel to the server;
instances only ever travel back.

The new training set is built in one pass: one id lookup keeps the noise-free
survivors, the granted server rows are appended, and one stable sort on the
labels groups the rows by class, each class's survivors in their original
order followed by its transfers.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from ._rng import EXCHANGE, derive_rng, derive_seed
from .data import Dataset, concat_datasets
from .estimator import NoiseEstimate

logger = logging.getLogger(__name__)


class AllocationError(ValueError):
    """A transfer was requested that the server cannot cover."""


@dataclass(frozen=True)
class DemandPlan:
    """Per-class demand state, filled in two stages.

    ``fractions`` and ``demanded`` come from the participant's estimate;
    ``delta1`` (provisional grants), ``u`` (the minimum grant over demanding
    classes) and ``final`` exist only after the server has answered.
    ``starved`` marks the all-or-nothing zero branch: some demanding class
    could not be served at all, so nobody receives anything.
    """

    fractions: tuple[float, ...]
    demanded: tuple[int, ...]
    delta1: tuple[int, ...] | None = None
    u: int | None = None
    final: tuple[int, ...] | None = None
    starved: bool = False

    @property
    def demanding_classes(self) -> tuple[int, ...]:
        return tuple(k for k, n in enumerate(self.demanded) if n > 0)


@dataclass(frozen=True)
class ExchangeTranscript:
    """Everything that crossed the wire, for audit.

    ``demands`` is the only participant-to-server message and carries class
    ids and counts, never instances. ``transfers`` maps class to the server
    instance ids sent back; ``truncated`` counts grants dropped to keep a
    class at its pre-exchange size.
    """

    demands: dict[int, int]
    delta1: tuple[int, ...]
    u: int
    final: tuple[int, ...]
    transfers: dict[int, tuple[int, ...]]
    truncated: dict[int, int]
    starved: bool


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of one participant's normalization pass.

    ``dataset`` is the new training set: noise-free survivors plus
    transfers, grouped by class; removed instances are gone for good. The
    caller re-estimates it (the pipeline seeds that estimate with
    `reestimate_seed`).
    """

    dataset: Dataset
    transcript: ExchangeTranscript


def compute_demands(estimate: NoiseEstimate, class_sizes, demand_cap: str = "size") -> DemandPlan:
    """Turn an estimate into per-class demanded counts.

    F_k = beta_k - beta_min, so the best class demands nothing; counts floor
    F_k |D_k| to never exceed the stated fraction. ``demand_cap='z'`` applies
    the alternative reading that additionally caps F_k at beta_min; the
    default relies on the explicit post-exchange size cap instead.
    """
    if demand_cap not in ("size", "z"):
        raise ValueError(f"demand_cap must be 'size' or 'z', got {demand_cap!r}")
    class_sizes = [int(s) for s in class_sizes]
    if len(class_sizes) != len(estimate.per_class):
        raise ValueError("class_sizes length disagrees with the estimate")
    fractions, demanded = [], []
    for est, size in zip(estimate.per_class, class_sizes):
        f = est.beta - estimate.beta_min
        if demand_cap == "z":
            f = min(f, estimate.beta_min)
        fractions.append(f)
        demanded.append(int(np.floor(f * size)))
    return DemandPlan(fractions=tuple(fractions), demanded=tuple(demanded))


def fulfill_demands(plan: DemandPlan, server_class_sizes) -> DemandPlan:
    """Server side: grant every demanding class the same minimal count.

    Provisional grants are capped by server stock; u is their minimum over
    demanding classes. u = 0 means some demanding class cannot be served, in
    which case nobody is (equal treatment is the point), flagged as starved.
    """
    server_class_sizes = [int(s) for s in server_class_sizes]
    if len(server_class_sizes) != len(plan.demanded):
        raise ValueError("server_class_sizes length disagrees with the plan")
    delta1 = tuple(
        min(server_class_sizes[k], plan.demanded[k]) if plan.demanded[k] > 0 else 0
        for k in range(len(plan.demanded))
    )
    demanding = plan.demanding_classes
    if not demanding:
        return replace(plan, delta1=delta1, u=0, final=tuple(0 for _ in plan.demanded))
    u = min(delta1[k] for k in demanding)
    if u == 0:
        starved_classes = [k for k in demanding if delta1[k] == 0]
        logger.warning(
            "server cannot serve class(es) %s; no transfers for this participant",
            starved_classes)
        return replace(plan, delta1=delta1, u=0,
                       final=tuple(0 for _ in plan.demanded), starved=True)
    final = tuple(u if plan.demanded[k] > 0 else 0 for k in range(len(plan.demanded)))
    return replace(plan, delta1=delta1, u=u, final=final)


def apply_exchange(participant: Dataset, estimate: NoiseEstimate, server: Dataset,
                   plan: DemandPlan, seed: int) -> ExchangeResult:
    """Drop removed instances and pull the granted server instances.

    Transfers are sampled uniformly without replacement from the server's
    class-k pool; each class is then capped at its pre-exchange size (the
    grant rule makes the cap unreachable, but a hit is truncated and
    reported).
    """
    if plan.final is None:
        raise ValueError("plan has no final grants; run fulfill_demands first")
    c = participant.class_count
    if server.class_count != c:
        raise ValueError("server and participant disagree on the class space")
    overlap = np.intersect1d(participant.ids, server.ids)
    if overlap.size:
        raise ValueError(
            f"participant and server share instance ids: {overlap[:5].tolist()}")

    class_sizes = participant.class_sizes()
    survivors = participant.by_ids(estimate.noise_free_ids)
    kept = survivors.class_sizes()
    parts = [survivors]
    transfers: dict[int, tuple[int, ...]] = {}
    truncated: dict[int, int] = {}
    for k in range(c):
        grant = int(plan.final[k])
        pool = np.flatnonzero(server.observed_labels == k)
        if grant > pool.size:
            raise AllocationError(
                f"class {k}: granted {grant} but server holds only {pool.size}")
        room = int(class_sizes[k] - kept[k])
        if grant > room:
            truncated[k] = grant - room
            logger.warning("class %d: truncating grant %d to %d to respect the size cap",
                           k, grant, room)
            grant = room
        if grant > 0:
            rng = derive_rng(seed, EXCHANGE, k)
            chunk = server.take(np.sort(rng.choice(pool, size=grant, replace=False)))
            transfers[k] = tuple(chunk.ids.tolist())
            parts.append(chunk)

    # Class by class: survivors in participant row order, then the transfers.
    merged = concat_datasets(parts, name=participant.name)
    new_dataset = merged.take(np.argsort(merged.observed_labels, kind="stable"))
    transcript = ExchangeTranscript(
        demands={k: plan.demanded[k] for k in plan.demanding_classes},
        delta1=plan.delta1,
        u=int(plan.u),
        final=plan.final,
        transfers=transfers,
        truncated=truncated,
        starved=plan.starved,
    )
    return ExchangeResult(dataset=new_dataset, transcript=transcript)


def normalize_noise(participant: Dataset, estimate: NoiseEstimate, server: Dataset,
                    seed: int, demand_cap: str = "size") -> ExchangeResult:
    """Full normalization pass: demands, grants, transfer."""
    plan = compute_demands(estimate, participant.class_sizes(), demand_cap=demand_cap)
    plan = fulfill_demands(plan, server.class_sizes())
    return apply_exchange(participant, estimate, server, plan, seed)


def reestimate_seed(seed: int, class_count: int) -> int:
    """Seed of the estimate re-run on the set an exchange seeded ``seed`` built."""
    return derive_seed(seed, EXCHANGE, class_count)


def transcript_to_dict(transcript: ExchangeTranscript) -> dict:
    return {
        "demands": {str(k): v for k, v in sorted(transcript.demands.items())},
        "delta1": list(transcript.delta1),
        "u": transcript.u,
        "final": list(transcript.final),
        "transfers": {str(k): list(v) for k, v in sorted(transcript.transfers.items())},
        "truncated": {str(k): v for k, v in sorted(transcript.truncated.items())},
        "starved": transcript.starved,
    }
