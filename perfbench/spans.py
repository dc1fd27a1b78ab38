"""Span tracing of fednl from outside the package.

`install` replaces each traced function at every binding a `fednl` module
holds, which is where its callers look it up, so the program's own files stay
untouched. A span records its name, the module whose binding was called (the
caller), its parent span and its start and end. Spans stay in memory; the
benchmark writes them out when it ends.
"""

import functools
import sys
import time

#: Functions traced, by defining module. Chosen per layer: the entry points a
#: phase goes through, never a per-step helper such as `trainer.lr_at`, whose
#: span would cost as much as the SGD step it sits in.
LAYERS = {
    "cli": ("main",),
    "config": ("build_datasets",),
    "data": ("synth_gaussian", "partition_non_iid"),
    "noise": ("inject_noise",),
    "engine": ("run_fednl", "run_fedavg", "aggregate"),
    "estimator": ("estimate_noise",),
    "exchange": ("normalize_noise",),
    "contribution": ("influence",),
    "metrics": ("evaluate",),
    "trainer": ("train_local", "loss", "gradient"),
    "rounds": ("measure_smoothness", "measure_b_components", "solve_optimum"),
}

#: Methods traced on the class, so every caller goes through them.
METHODS = {"data": {"Dataset": ("take", "by_ids")}}

#: Both round loops report as one layer.
RENAMED = {"engine.run_fednl": "engine.run", "engine.run_fedavg": "engine.run"}

#: Caller tag of a binding, by the module that holds it. Calls from the round
#: loop, from Procedure 1 and from the influence update are told apart by it.
CALLER_TAGS = {"engine": "loop", "estimator": "estimate", "contribution": "influence"}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        #: One [name, caller, parent index, start, end] list per span.
        self.spans = []
        #: Outcome counts taken from return values, by counter name.
        self.counts = {}
        self._open = []

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, name, caller, observe=None):
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, caller, open_spans[-1] if open_spans else -1, clock(), 0.0]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_spans.pop()
            if observe is not None:
                observe(self, caller, args, kwargs, result)
            return result

        return traced


def _observe_train_local(tracer, caller, args, kwargs, result):
    from fednl.trainer import steps_per_round
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    steps = steps_per_round(dataset.n, config)
    tracer.count("trainer.train_local.steps", steps)
    tracer.count(f"trainer.train_local.{caller}.steps", steps)


def _observe_estimate(tracer, caller, args, kwargs, result):
    tracer.count("estimator.scored", sum(c.size for c in result.per_class)
                 + len(result.out_of_space_ids))
    tracer.count("estimator.kept", sum(len(c.noise_free_ids) for c in result.per_class))


def _observe_exchange(tracer, caller, args, kwargs, result):
    transcript = result.transcript
    tracer.count("exchange.transferred", sum(len(ids) for ids in transcript.transfers.values()))
    tracer.count("exchange.starved", int(transcript.starved))


OBSERVERS = {
    "trainer.train_local": _observe_train_local,
    "estimator.estimate_noise": _observe_estimate,
    "exchange.normalize_noise": _observe_exchange,
}


def install(tracer) -> None:
    """Wrap every traced function at each binding held by a loaded fednl module.

    Import `fednl` first: only loaded modules are patched.
    """
    modules = {name.rpartition(".")[2]: module for name, module in sys.modules.items()
               if name.startswith("fednl.") and module is not None}
    targets = {}
    for mod_name, functions in LAYERS.items():
        for fn_name in functions:
            fn = getattr(modules[mod_name], fn_name)
            targets[id(fn)] = (fn, f"{mod_name}.{fn_name}")
    for holder_name, module in modules.items():
        caller = CALLER_TAGS.get(holder_name, holder_name)
        for attr, value in list(vars(module).items()):
            if id(value) not in targets or targets[id(value)][0] is not value:
                continue
            fn, qualified = targets[id(value)]
            setattr(module, attr, tracer.wrap(fn, RENAMED.get(qualified, qualified), caller,
                                              OBSERVERS.get(qualified)))
    for mod_name, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[mod_name], cls_name)
            for method in methods:
                fn = getattr(cls, method)
                setattr(cls, method, tracer.wrap(fn, f"{mod_name}.{cls_name}.{method}", None))


def self_times(spans):
    """Each span's duration minus the time its direct child spans cover."""
    own = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[2] >= 0:
            own[span[2]] -= span[4] - span[3]
    return own


def inclusive_time(spans, names):
    """Wall time inside spans named in `names`, each instant counted once."""
    inside = [False] * len(spans)
    total = 0.0
    for index, span in enumerate(spans):
        parent = span[2]
        inside[index] = span[0] in names or (parent >= 0 and inside[parent])
        if span[0] in names and not (parent >= 0 and inside[parent]):
            total += span[4] - span[3]
    return total


#: Share of run_s spent inside each group of spans, nested calls counted once.
SHARE_GROUPS = {
    "trainer.train_local.share": {"trainer.train_local"},
    "contribution.influence.share": {"contribution.influence"},
    "estimator.share": {"estimator.estimate_noise", "exchange.normalize_noise"},
    "rounds.share": {"rounds.measure_smoothness", "rounds.measure_b_components",
                     "rounds.solve_optimum"},
}


def summarize(spans, counts, run_s):
    """Every per-layer figure of one traced run.

    Calls and self time per span name and per name.caller, the outcome
    counts, and the figures derived from them: time per SGD step, the
    estimator's kept fraction and each group's share of `run_s`.
    """
    own = self_times(spans)
    table = {}
    for index, span in enumerate(spans):
        keys = (span[0],) if span[1] is None else (span[0], f"{span[0]}.{span[1]}")
        for key in keys:
            entry = table.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += own[index]
    out = {}
    for key, (calls, seconds) in table.items():
        out[f"{key}.calls"] = calls
        out[f"{key}.self_s"] = seconds
    out.update(counts)
    steps = counts.get("trainer.train_local.steps", 0)
    out["trainer.us_per_step"] = (
        1e6 * out.get("trainer.train_local.self_s", 0.0) / steps if steps else 0.0)
    scored = counts.get("estimator.scored", 0)
    out["estimator.kept_fraction"] = counts.get("estimator.kept", 0) / scored if scored else 0.0
    out.update({name: inclusive_time(spans, group) / run_s
                for name, group in SHARE_GROUPS.items()})
    return out
