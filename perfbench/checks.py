"""Output checks built from properties of the decoding methods.

Each check returns a list of problems; an empty list means the output
passed. None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from trispec.harness import TraceRecord
from trispec.models import ModelOracle

Continuations = Sequence[tuple[tuple[int, ...], Sequence[int]]]

# Pass counts times the 1:5:90 constants are whole numbers, so the ledger is
# exact in float64; the tolerance only covers constants that are not.
REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_prompts(continuations: Continuations, prompts: Sequence[tuple[int, ...]]) -> list[str]:
    """The request decoded exactly the workload's prompts, in order."""
    got = [tuple(prompt) for prompt, _ in continuations]
    if got != [tuple(p) for p in prompts]:
        return ["the request decoded other prompts than the workload derived"]
    return []


def check_trace_and_cost(
    doc: dict, records: Sequence[TraceRecord], continuations: Continuations, max_new_tokens: int
) -> list[str]:
    """Recount the report from the trace read back, and recompute its cost.

    ``doc`` is the parsed report.json. N, rounds and the case mix must equal
    the trace's; L must equal the pass counts times the per-pass constants
    and the sum of the trace's round costs; speedup and r_t must follow
    from N, L and the target passes.
    """
    problems: list[str] = []
    report = doc["report"]
    config = doc["config"]
    cost = report["cost_model"]
    n_trace = sum(rec.emitted_count for rec in records)
    n_cont = sum(len(tokens) for _, tokens in continuations)
    if not report["N"] == n_trace == n_cont:
        problems.append(f"N: report {report['N']}, trace {n_trace}, continuations {n_cont}")
    if report["rounds"] != len(records):
        problems.append(f"rounds: report {report['rounds']}, trace {len(records)}")
    cases = dict(Counter(rec.case for rec in records))
    if report["case_counts"] != cases:
        problems.append(f"case counts: report {report['case_counts']}, trace {cases}")
    if [rec.round_index for rec in records] != list(range(len(records))):
        problems.append("trace round indices are not 0..rounds-1 in order")
    short = [i for i, (_, tokens) in enumerate(continuations) if len(tokens) < max_new_tokens]
    if short:
        problems.append(f"continuations {short} are shorter than max_new_tokens")

    L = (
        report["drafter_passes"] * cost["c_d"]
        + report["proxy_passes"] * cost["c_p"]
        + report["target_passes"] * cost["c_t"]
        + report["rounds"] * cost["t_o"]
    )
    if not _close(report["L"], L):
        problems.append(f"L: report {report['L']!r}, passes x costs {L!r}")
    traced_L = math.fsum(rec.round_cost for rec in records)
    if not _close(traced_L, L):
        problems.append(f"L: trace round costs sum to {traced_L!r}, passes x costs {L!r}")
    if report["N"] and L > 0.0:
        speedup = report["N"] * (cost["c_t"] + config["t_o_base"]) / L
        if not _close(report["speedup"], speedup):
            problems.append(f"speedup: report {report['speedup']!r}, N*c_t/L {speedup!r}")
        r_t = report["target_passes"] / report["N"]
        if not _close(report["r_t"], r_t):
            problems.append(f"r_t: report {report['r_t']!r}, target passes / N {r_t!r}")
    return problems


def _greedy_next(oracle: ModelOracle, ctx: Sequence[int]) -> int:
    return oracle.next_dist(ctx).argmax()


def check_greedy_replay(
    proxy: ModelOracle,
    target: ModelOracle,
    continuations: Continuations,
    records: Sequence[TraceRecord],
) -> list[str]:
    """Replay every round with fresh forks and argmax only.

    A round's first m tokens are the proxy's greedy continuation, m being
    tau_a+1 for a proxy-only round and tau_m for an escalated one; the rest
    of the round is the target's greedy continuation.
    """
    proxy, target = proxy.fork(), target.fork()
    problems: list[str] = []
    rounds = iter(records)
    for p, (prompt, tokens) in enumerate(continuations):
        ctx = list(prompt)
        pos = 0
        while pos < len(tokens):
            rec = next(rounds, None)
            if rec is None:
                return problems + [f"prompt {p}: the trace ends before its continuation"]
            if rec.case == "ProxyOnly":
                trusted = rec.tau_a + 1
            elif rec.case == "TargetEscalated":
                trusted = rec.tau_m
            else:
                return problems + [f"round {rec.round_index}: unexpected case {rec.case!r}"]
            if pos + rec.emitted_count > len(tokens):
                return problems + [f"round {rec.round_index} runs past prompt {p}'s continuation"]
            for j in range(rec.emitted_count):
                want = _greedy_next(proxy if j < trusted else target, ctx)
                if tokens[pos] != want:
                    role = "proxy" if j < trusted else "target"
                    problems.append(
                        f"round {rec.round_index}, token {j}: got {tokens[pos]}, "
                        f"{role} greedy gives {want}"
                    )
                    return problems
                ctx.append(tokens[pos])
                pos += 1
    if next(rounds, None) is not None:
        problems.append("the trace has rounds beyond the continuations")
    return problems


def check_target_greedy(target: ModelOracle, continuations: Continuations) -> list[str]:
    """Every continuation is the target-only greedy decode of its prompt."""
    target = target.fork()
    for p, (prompt, tokens) in enumerate(continuations):
        ctx = list(prompt)
        for j, tok in enumerate(tokens):
            want = _greedy_next(target, ctx)
            if tok != want:
                return [f"prompt {p}, token {j}: got {tok}, target greedy gives {want}"]
            ctx.append(tok)
    return []


def check_same_continuations(got: Continuations, want: Continuations, label: str) -> list[str]:
    """Two decodes of the same prompts emitted the same tokens."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} continuations against {len(want)}"]
    for p, ((_, a), (_, b)) in enumerate(zip(got, want)):
        if list(a) != list(b):
            return [f"{label}: prompt {p} differs"]
    return []
