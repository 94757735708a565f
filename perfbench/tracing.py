"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions and methods each trispec
module exposes, and patches every module namespace that holds a wrapped
object, under whatever name it holds it (``router.draft_chain``,
``harness.trispec_round``, the package re-exports), so calls between
modules are seen too. The decode code itself is left unedited.

Spans nest: a layer's self time is its span's duration minus the time of
the wrapped spans it called. A name that no longer exists is recorded in
``missing`` and the metrics that need it are left out; nothing else fails.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# (layer, module, attribute); "Class.method" wraps a method on its class.
SPANS = (
    ("core", "core", "apply_temperature"),
    ("core", "core", "sample"),
    ("core", "core", "top2_margin"),
    ("core", "core", "normalize"),
    ("core", "core", "Distribution.__init__"),
    ("drafting", "drafting", "draft_chain"),
    ("drafting", "drafting", "draft_tree"),
    ("prune", "drafting", "prune_tree_prefix"),
    ("verification", "verification", "acceptance_coins"),
    ("verification", "verification", "draw_correction"),
    ("verification", "verification", "residual_dist"),
    ("verification", "verification", "verify_tree_greedy"),
    ("verification", "router", "pruned_target_verify"),
    ("router", "router", "trispec_round"),
    ("router", "router", "trispec_tree_round"),
    ("router", "router", "trusted_prefix_len"),
    ("metrics", "metrics", "accumulate"),
    ("metrics", "metrics", "RunReport.add_round"),
    ("metrics", "metrics", "lemma_check"),
    ("harness", "harness", "run_experiment"),
    ("write", "harness", "write_report_json"),
    ("write", "harness", "write_trace_csv"),
    ("build", "harness", "build_family"),
    ("train", "models", "train_ngram"),
    ("train", "models", "derive_proxy"),
)

# Oracle pass methods: one span per call, named by the role of the oracle.
# Positions scored per call: one, the k drafted plus the bonus, one per path.
_POSITIONS = {
    "next_dist": lambda ctx: 1,
    "batch_score": lambda ctx, drafted: len(drafted) + 1,
    "batch_score_paths": lambda ctx, paths: len(paths),
}
PASS_METHODS = tuple(_POSITIONS)
ROLES = ("drafter", "proxy", "target")


@dataclass
class Spans:
    """Aggregated spans and counts: calls, inclusive and self nanoseconds."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    total_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    samples: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))


class Tracer:
    """Records into ``spans`` while ``enabled``; swap ``spans`` to keep
    phases of a run apart."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans = Spans()
        self.layer_of: dict[str, str] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack
        stack.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            children = stack.pop()
            spans = self.spans
            spans.calls[name] += 1
            spans.total_ns[name] += elapsed
            spans.self_ns[name] += elapsed - children
            if name in _SAMPLED:
                spans.samples[name].append(elapsed)
            if stack:
                stack[-1] += elapsed

    def _wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = tracer._span(name, fn, args, kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _wrap_pass(self, method: str, fn: Callable) -> Callable:
        tracer = self
        positions = _POSITIONS[method]

        @functools.wraps(fn)
        def traced(oracle, *args, **kwargs):
            role = tracer._roles.get(oracle) if tracer.enabled else None
            if role is None:
                return fn(oracle, *args, **kwargs)
            name = f"models.{role}"
            tracer.spans.counts[name + ".positions"] += positions(*args, **kwargs)
            return tracer._span(name, fn, (oracle, *args), kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in SPANS plus the oracle passes, the uniform
        draws and the role bookkeeping. ``uninstall`` restores them."""
        from trispec import core, harness, models

        modules = _trispec_modules()
        for layer, module, attr in SPANS:
            name = f"{module}.{attr}"
            self.layer_of[name] = layer
            owner = modules.get(f"trispec.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or method not in vars(cls):
                    self.missing.append(name)
                    continue
                self._set_attr(cls, method, self._wrap(name, vars(cls)[method], _OBSERVERS.get(name)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._patch_everywhere(modules, original, self._wrap(name, original, _OBSERVERS.get(name)))

        for method in PASS_METHODS:
            fn = vars(models.ModelOracle).get(method)
            if fn is None:
                self.missing.append(f"models.ModelOracle.{method}")
                continue
            self._set_attr(models.ModelOracle, method, self._wrap_pass(method, fn))

        uniform = vars(core.RandomStream).get("uniform")
        if uniform is None:
            self.missing.append("core.RandomStream.uniform")
        else:
            tracer = self

            def counted_uniform(stream):
                if tracer.enabled:
                    tracer.spans.counts["core.uniform"] += 1
                return uniform(stream)

            self._set_attr(core.RandomStream, "uniform", counted_uniform)

        fork = vars(harness.Family).get("fork")
        if fork is None:
            self.missing.append("harness.Family.fork")
        else:
            roles = self._roles

            def fork_with_roles(family):
                twin = fork(family)
                for role in ROLES:
                    roles[getattr(twin, role)] = role
                return twin

            self._set_attr(harness.Family, "fork", fork_with_roles)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.enabled = False

    def _set_attr(self, owner, attr: str, value) -> None:
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _patch_everywhere(self, modules: dict, original, wrapped) -> None:
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set_attr(module, key, wrapped)


def _trispec_modules() -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "trispec" or name.startswith("trispec."))
    }


def _observe_chain(tracer: Tracer, args: tuple, chain) -> None:
    tracer.spans.counts["drafting.drafted"] += chain.k


def _observe_tree(tracer: Tracer, args: tuple, tree) -> None:
    tracer.spans.counts["drafting.drafted"] += len(tree)


def _observe_round(tracer: Tracer, args: tuple, outcome) -> None:
    counts = tracer.spans.counts
    counts["router.rounds"] += 1
    counts[f"router.case.{outcome.case.value}"] += 1
    counts["router.tau_a"] += outcome.tau_a
    counts["router.tau_m"] += outcome.tau_m
    if outcome.tau_t is not None:
        counts["router.tau_t"] += outcome.tau_t
        counts["router.tau_t_rounds"] += 1
    counts["router.emitted"] += len(outcome.emitted)


_OBSERVERS = {
    "drafting.draft_chain": _observe_chain,
    "drafting.draft_tree": _observe_tree,
    "router.trispec_round": _observe_round,
    "router.trispec_tree_round": _observe_round,
}

# Spans whose every duration is kept, for percentiles or medians.
_SAMPLED = {"router.trispec_round", "router.trispec_tree_round", "harness.build_family"}
