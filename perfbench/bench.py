"""One benchmark run: set up a workload, decode it pass after pass, check
every request, and reduce the timings to the reported metrics."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from trispec import harness

from . import checks, stats
from .tracing import ROLES, Spans, Tracer
from .workloads import WORKLOADS, Workload, setup

SETUP_REPEATS = 9
MIN_TIMED_PASSES = 3
REF_ITERATIONS = 400
# The reference loop repeats between two requests until it has taken at
# least this share of the request before it, so that a short stall of the
# host weighs on loop and request alike.
REF_SHARE = 0.1
# Each set-up is timed between two reference loops of this many seconds and
# reported in seconds of a host on which the loop takes NOMINAL_REF_SECONDS,
# about its median on the host the README describes.
SETUP_REF_SECONDS = 0.1
NOMINAL_REF_SECONDS = 0.0075


def reference_loop() -> int:
    """Fixed work timed next to every request, so that the host's speed
    drift can be divided out of the decode times.

    It has the decode's own mix: a Python loop that builds, validates,
    normalises and takes the argmax of a small float vector, plus a
    tuple-keyed table. On this kind of host a loop of integer arithmetic
    alone slowed less than the decode when the host was busy; this mix
    slowed alike (the README has the figures).
    """
    table: dict[tuple[int, int, int], int] = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        weights = np.full(64, 0.5)
        weights[i % 64] += 1.0
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise AssertionError("reference weights went bad")
        probs = weights / weights.sum()
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + int(np.argmax(probs))
        acc += len(table)
    return acc


def time_reference(at_least: float) -> float:
    """Seconds per reference loop, repeating it until ``at_least`` seconds
    have passed."""
    loops, start = 0, time.perf_counter()
    while True:
        reference_loop()
        loops += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed / loops


@dataclass
class Request:
    """One (prompt group, config) pair of the grid, with what every pass
    measured of it."""

    group: int
    cfg: harness.ExperimentConfig
    outdir: Path
    tokens: int = 0
    digest: str = ""
    seconds: list[float] = field(default_factory=list)
    in_refs: list[float] = field(default_factory=list)  # seconds / reference
    failed: bool = False
    doc: dict | None = None
    report_bytes: int = 0
    trace_bytes: int = 0
    read_seconds: list[float] = field(default_factory=list)


class Run:
    def __init__(self, workload: Workload, seed: int, workdir: Path, tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.requests = [
            Request(group, cfg, workdir / f"{i:03d}")
            for i, (group, cfg) in enumerate(workload.requests(seed))
        ]
        for req in self.requests:
            req.outdir.mkdir(parents=True, exist_ok=True)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.references: dict[tuple[int, int, str], list] = {}
        self.setup_spans = Spans()
        self.last_elapsed = 0.0  # the latest request's time

    # -- set-up ----------------------------------------------------------------

    def set_up(self, keep: bool) -> float:
        """Time one set-up, in reference loops timed just before and after
        it. Only the first is kept: later ones, spread over the run so that
        they meet the host in different states, only measure and must
        derive the same prompts."""
        tracer = self.tracer
        before = time_reference(SETUP_REF_SECONDS)
        if tracer is not None:
            timed_spans, tracer.spans = tracer.spans, self.setup_spans
            tracer.enabled = True
        start = time.perf_counter()
        groups = setup(self.workload, self.seed)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
            tracer.spans = timed_spans
        after = time_reference(SETUP_REF_SECONDS)
        if keep:
            self.groups = groups
        elif [prompts for _, prompts in groups] != [prompts for _, prompts in self.groups]:
            self.problems.append("a repeated set-up derived other prompts")
        return elapsed / ((before + after) / 2.0)

    def sentinel_references(self) -> None:
        """Plain SD decodes for the sentinel lambdas: at lambda > 1 trispec
        is target-verified SD, at lambda <= 0 it is proxy-verified SD."""
        for req in self.requests:
            for verifier in ("target", "proxy"):
                key = (req.group, req.cfg.seed, verifier)
                if key not in self.references:
                    sd = replace(req.cfg, method="sd", sd_verifier=verifier)
                    result = harness.run_experiment(sd, self.groups[req.group][0])
                    self.references[key] = result.continuations

    # -- requests ----------------------------------------------------------------

    def do_request(self, req: Request):
        result = harness.run_experiment(req.cfg, self.groups[req.group][0])
        harness.write_report_json(result, req.outdir / "report.json")
        harness.write_trace_csv(result.records, req.outdir / "trace.csv")
        return result

    def run_pass(self, timed: bool) -> None:
        """Run every request once, timing the reference loop between
        consecutive requests, then check what each request wrote."""
        tracer = self.tracer
        refs = [time_reference(REF_SHARE * self.last_elapsed)]
        outcomes = []
        for req in self.requests:
            if tracer is not None:
                tracer.enabled = timed
            start = time.perf_counter()
            try:
                outcome = self.do_request(req)
            except Exception as exc:  # one request's fault must not end the run
                outcome = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            refs.append(time_reference(REF_SHARE * elapsed))
            outcomes.append((outcome, elapsed))
            self.last_elapsed = elapsed

        for i, (req, (outcome, elapsed)) in enumerate(zip(self.requests, outcomes)):
            self.attempted += 1
            if isinstance(outcome, Exception):
                print(f"{req.cfg.run_id}: raised {type(outcome).__name__}: {outcome}", file=sys.stderr)
                problems = ["raised"]
            else:
                problems = self.check(req, outcome)
                self.problems.extend(f"{req.cfg.run_id}: {p}" for p in problems)
            if problems:
                self.failed += 1
                req.failed = True
            elif timed:
                req.seconds.append(elapsed)
                req.in_refs.append(elapsed / ((refs[i] + refs[i + 1]) / 2.0))

    def check(self, req: Request, result) -> list[str]:
        """Every check a request must pass. Once a pass has passed them, a
        later pass must repeat its files and continuations byte for byte,
        which makes checking it again redundant."""
        cfg = req.cfg
        family, prompts = self.groups[req.group]
        report_path, trace_path = req.outdir / "report.json", req.outdir / "trace.csv"
        report_bytes, trace_bytes = report_path.read_bytes(), trace_path.read_bytes()
        digest = hashlib.sha256(
            b"\0".join((report_bytes, trace_bytes, repr(result.continuations).encode()))
        ).hexdigest()
        if req.digest:
            if digest != req.digest:
                return ["report.json, trace.csv or the continuations differ from the checked pass"]
            return []

        start = time.perf_counter()
        try:
            records = harness.read_trace_csv(trace_path)
        except ValueError as exc:
            return [f"trace.csv does not read back: {exc}"]
        req.read_seconds.append(time.perf_counter() - start)
        doc = json.loads(report_bytes)
        cont = result.continuations

        problems = checks.check_prompts(cont, prompts)
        problems += checks.check_trace_and_cost(doc, records, cont, cfg.max_new_tokens)
        if cfg.temperature == 0.0:
            problems += checks.check_greedy_replay(family.proxy, family.target, cont, records)
            if cfg.lam > 1.0:
                problems += checks.check_target_greedy(family.target, cont)
        elif cfg.lam > 1.0 or cfg.lam <= 0.0:
            verifier = "target" if cfg.lam > 1.0 else "proxy"
            want = self.references[(req.group, cfg.seed, verifier)]
            problems += checks.check_same_continuations(cont, want, f"sd with the {verifier}")
        if not problems and not req.digest:
            req.digest = digest
            req.doc = doc
            req.tokens = doc["report"]["N"]
            req.report_bytes, req.trace_bytes = len(report_bytes), len(trace_bytes)
        return problems


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workload = WORKLOADS[workload_name]
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        bench = Run(workload, seed, workdir / workload_name, tracer)
        setup_refs = [bench.set_up(keep=True)]
        if workload.base_config().temperature != 0.0:
            bench.sentinel_references()

        # The first pass fills the n-gram memo tables and fixes the reference
        # outputs; it is checked like every pass but not timed.
        bench.run_pass(timed=False)
        start = time.perf_counter()
        passes = 0
        while passes < MIN_TIMED_PASSES or time.perf_counter() - start < seconds:
            bench.run_pass(timed=True)
            passes += 1
            # Repeat the set-up at even intervals over the run.
            due = seconds * len(setup_refs) / SETUP_REPEATS
            if len(setup_refs) < SETUP_REPEATS and time.perf_counter() - start >= due:
                setup_refs.append(bench.set_up(keep=False))
        while len(setup_refs) < SETUP_REPEATS:
            setup_refs.append(bench.set_up(keep=False))

        for problem in bench.problems[:20]:
            print(problem, file=sys.stderr)
        ok = [req for req in bench.requests if not req.failed]
        if not ok:
            raise SystemExit("every request failed; no metric can be computed")
        if tracer is not None:
            metrics = layer_metrics(tracer, bench.setup_spans, ok, passes, len(setup_refs))
        else:
            metrics = end_to_end_metrics(ok, setup_refs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(requests: list[Request], setup_refs: list[float]) -> dict:
    tokens = [req.tokens for req in requests]
    n = sum(tokens)
    reports = [req.doc["report"] for req in requests]
    target_passes = sum(r["target_passes"] for r in reports)
    L = math.fsum(r["L"] for r in reports)
    c_t = reports[0]["cost_model"]["c_t"]
    nll = math.fsum(r["N"] * math.log(r["continuation_ppl"]) for r in reports)
    return {
        # Times are taken against the reference loop: the host's speed
        # drifts by up to 1.8x between phases that outlast a run, and raw
        # wall time reads the phase rather than the program (the README has
        # the data).
        "tokens_per_ref": _metric(stats.throughput(tokens, [r.in_refs for r in requests]), "tokens/ref"),
        "setup_s": _metric(stats.median(setup_refs) * NOMINAL_REF_SECONDS, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "r_t": _metric(target_passes / n, "passes/token"),
        "speedup_model": _metric(n * c_t / L, "x"),
        "continuation_ppl": _metric(math.exp(nll / n), "ppl"),
    }


def layer_metrics(
    tracer: Tracer, setup: Spans, requests: list[Request], passes: int, setups: int
) -> dict:
    """Per-layer figures over the timed passes, normalised per emitted token,
    per round or per request. A figure whose spans could not be installed
    is left out."""
    missing = set(tracer.missing)
    spans = tracer.spans
    tokens = sum(req.tokens for req in requests) * passes
    reports = [req.doc["report"] for req in requests]
    rounds_per_pass = sum(r["rounds"] for r in reports)
    rounds = rounds_per_pass * passes
    n_requests = len(requests) * passes
    out: dict = {}

    def put(name: str, unit: str, needs: tuple[str, ...], value) -> None:
        absent = [n for n in needs if n in missing]
        if absent:
            print(f"layer metric {name} left out: {', '.join(absent)} not found", file=sys.stderr)
            return
        out[name] = _metric(value() if callable(value) else value, unit)

    def self_us(layer: str) -> float:
        return sum(ns for name, ns in spans.self_ns.items() if tracer.layer_of.get(name) == layer) / 1e3

    def names(layer: str) -> tuple[str, ...]:
        return tuple(n for n, l in tracer.layer_of.items() if l == layer)

    counts = spans.counts
    put("core.dists_per_token", "count/token", ("core.Distribution.__init__",),
        lambda: spans.calls["core.Distribution.__init__"] / tokens)
    put("core.uniforms_per_token", "count/token", ("core.RandomStream.uniform",),
        lambda: counts["core.uniform"] / tokens)
    put("core.us_per_token", "us/token", names("core"), lambda: self_us("core") / tokens)

    # Pass counts come from the spans and must equal the program's own
    # counters; figures built on a count that disagrees are left out.
    passes_by_role = {role: spans.calls[f"models.{role}"] for role in ROLES}
    for role in ROLES:
        wanted = sum(r[f"{role}_passes"] for r in reports) * passes
        if passes_by_role[role] != wanted:
            missing.add(f"models.{role}")
            print(f"models.{role}: {passes_by_role[role]} traced passes, report counts {wanted}",
                  file=sys.stderr)
    pass_needs = tuple(f"models.ModelOracle.{m}" for m in ("next_dist", "batch_score", "batch_score_paths"))
    for role in ROLES:
        needs = pass_needs + (f"models.{role}", "harness.Family.fork")
        n_passes = passes_by_role[role]
        put(f"models.{role}.passes_per_token", "passes/token", needs, n_passes / tokens)
        put(f"models.{role}.positions_per_pass", "positions/pass", needs,
            counts[f"models.{role}.positions"] / n_passes if n_passes else 0.0)
        put(f"models.{role}.us_per_token", "us/token", needs,
            spans.total_ns[f"models.{role}"] / 1e3 / tokens)
    put("models.train_ms", "ms", names("train"),
        lambda: sum(setup.total_ns[n] for n in names("train")) / 1e6 / setups)

    draft_needs = names("drafting")
    put("drafting.us_per_round", "us/round", draft_needs, lambda: self_us("drafting") / rounds)
    put("drafting.drafted_per_round", "tokens/round", draft_needs, counts["drafting.drafted"] / rounds)
    put("drafting.kept_ratio", "ratio", draft_needs,
        lambda: (tokens - rounds) / counts["drafting.drafted"])
    put("drafting.prune_us_per_round", "us/round", names("prune"), lambda: self_us("prune") / rounds)
    put("verification.us_per_round", "us/round", names("verification"),
        lambda: self_us("verification") / rounds)

    # Case counts and tau sums are observed on the round outcomes and must
    # equal the reports'.
    router_needs = names("router")
    cases = {case: sum(r["case_counts"].get(case, 0) for r in reports) * passes
             for case in ("ProxyOnly", "TargetEscalated")}
    if (counts["router.rounds"], counts["router.emitted"]) != (rounds, tokens) or any(
        counts[f"router.case.{case}"] != n for case, n in cases.items()
    ):
        print("router: traced rounds disagree with the reports", file=sys.stderr)
        router_needs += ("router.outcomes",)
        missing.add("router.outcomes")
    durations = [ns / 1e3 for name in ("router.trispec_round", "router.trispec_tree_round")
                 for ns in spans.samples.get(name, ())]
    put("router.self_us_per_round", "us/round", router_needs, lambda: self_us("router") / rounds)
    put("router.round_us_p50", "us", router_needs, lambda: stats.percentile(durations, 0.50))
    put("router.round_us_p99", "us", router_needs, lambda: stats.percentile(durations, 0.99))
    put("router.proxy_only_rounds", "rounds", router_needs, cases["ProxyOnly"] / passes)
    put("router.escalated_rounds", "rounds", router_needs, cases["TargetEscalated"] / passes)
    put("router.tau_a_mean", "tokens", router_needs, counts["router.tau_a"] / rounds)
    put("router.tau_m_mean", "tokens", router_needs, counts["router.tau_m"] / rounds)
    put("router.tau_t_mean", "tokens", router_needs,
        lambda: counts["router.tau_t"] / max(1, counts["router.tau_t_rounds"]))

    put("metrics.us_per_round", "us/round", names("metrics"), lambda: self_us("metrics") / rounds)

    put("harness.self_us_per_token", "us/token", names("harness"), lambda: self_us("harness") / tokens)
    put("harness.write_ms_per_request", "ms/request", names("write"),
        lambda: sum(spans.total_ns[n] for n in names("write")) / 1e6 / n_requests)
    put("harness.read_ms_per_request", "ms/request", (),
        lambda: 1e3 * stats.median([s for req in requests for s in req.read_seconds]))
    per_pass_tokens = sum(req.tokens for req in requests)
    put("harness.report_bytes_per_token", "bytes/token", (),
        sum(req.report_bytes for req in requests) / per_pass_tokens)
    put("harness.trace_bytes_per_token", "bytes/token", (),
        sum(req.trace_bytes for req in requests) / per_pass_tokens)
    put("harness.build_family_ms", "ms", names("build"),
        lambda: stats.median(setup.samples["harness.build_family"]) / 1e6)

    # Taken as the untraced run takes tokens_per_ref, so that the pair gives
    # the tracing overhead.
    put("traced.tokens_per_ref", "tokens/ref", (), stats.throughput(
        [req.tokens for req in requests], [req.in_refs for req in requests]))
    return out
