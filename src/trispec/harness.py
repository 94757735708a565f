"""Experiment harness: configs, corpora, decode loops, sweeps, trace IO.

A run is fully described by an ExperimentConfig (a flat key=value file plus
command-line overrides) and is deterministic given its seed: prompts are
carved out of the held-out tail of the corpus, every prompt gets its own
labeled random streams, and all outputs (report JSON, trace CSV, sweep CSV)
serialize with stable ordering so reruns are byte-identical.

Decoding is single-sequence (batch 1). Continuation quality is not judged
by eye: the report carries perplexity of the generated continuations under
the target oracle as the built-in quality probe.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .baselines import RelaxPolicy, RoutingSignal, relaxed_sd_round
from .core import Vocabulary
from .drafting import TreeParams
from .metrics import CostModel, RunReport, accumulate, lemma_check
from .models import (
    MixtureProxy,
    ModelOracle,
    NGramSpec,
    NgramModel,
    ProxyDerivation,
    derive_proxy,
    load_oracle,
    train_ngram,
)
from .router import MarginRule, trispec_round, trispec_tree_round
from .verification import (
    DecodeStreams, Round, RoundCase, check_routing, sd_round, sd_tree_round, target_only_round,
)

__all__ = [
    "ConfigError",
    "EmptyCorpusError",
    "ExperimentConfig",
    "ExperimentResult",
    "Family",
    "TraceRecord",
    "build_family",
    "derive_prompts",
    "load_config",
    "load_corpus",
    "margin_eval_contexts",
    "read_trace_csv",
    "reference_corpus_path",
    "run_experiment",
    "sweep",
    "validate_trace_records",
    "write_report_json",
    "write_sweep_csv",
    "write_trace_csv",
]

TRACE_SCHEMA = "# trispec-trace v1"
SWEEP_SCHEMA = "# trispec-sweep v1"
HIST_SCHEMA = "# trispec-hist v1"

SWEEP_METRIC_COLUMNS = (
    "method",
    "seed",
    "temperature",
    "N",
    "rounds",
    "tau_mean",
    "tokens_per_round",
    "r_t",
    "L",
    "speedup",
    "lemma_residual",
    "proxy_only_rounds",
    "target_escalated_rounds",
    "continuation_ppl",
)


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


class EmptyCorpusError(ValueError):
    """The corpus file exists but contains nothing."""


def reference_corpus_path() -> Path:
    """The bundled ~100 KB reference corpus (generated, public domain)."""
    return Path(__file__).resolve().parent / "fixtures" / "reference_corpus.txt"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs. Config-file keys mirror the field names
    (``lambda`` is accepted as an alias for ``lam``)."""

    corpus: str | None = None          # path; None means the bundled corpus
    tokenizer: str = "char"            # char | byte
    family: str = "ngram"              # ngram | perturbed
    orders: tuple[int, ...] = (2, 3, 4)  # drafter / proxy / target n-gram orders
    alpha: float = 0.1                 # additive smoothing
    epsilon: float = 0.3               # perturbed family: proxy noise share
    noise: str = "unigram"             # unigram | uniform
    method: str = "trispec"            # target_only | sd | trispec | relax
    sd_verifier: str = "target"        # verifier role for method=sd
    relax_policy: str = "chow"         # chow | token_specific | confidence_filter | topk
    relax_alpha: float = 0.05
    relax_threshold: float = 0.95
    relax_k: int = 5
    signal: str = "margin"             # margin | top1_prob | composite_entropy
    lam: float = 0.5                   # trust threshold for the signal
    k: int = 6                         # draft chain length
    use_tree: bool = False
    tree_depth: int = 6
    tree_topk: int = 10
    tree_budget: int = 60
    temperature: float = 0.0           # 0 (greedy) or 1 (sampling)
    c_d: float = 1.0
    c_p: float = 5.0
    c_t: float = 90.0
    t_o: float = 0.0
    t_o_base: float = 0.0
    seed: int = 0
    max_new_tokens: int = 48
    num_prompts: int = 12
    prompt_fraction: float = 0.5
    train_fraction: float = 0.9
    raw_bonus: bool = False
    model_dir: str | None = None
    run_id: str = ""

    def validate(self) -> None:
        problems = [f"{f.name} must be finite" for f in fields(self)
                    if f.type == "float" and not math.isfinite(getattr(self, f.name))]
        if self.tokenizer not in ("char", "byte"):
            problems.append(f"tokenizer must be char or byte, got {self.tokenizer!r}")
        if self.family not in ("ngram", "perturbed"):
            problems.append(f"family must be ngram or perturbed, got {self.family!r}")
        if self.method not in ("target_only", "sd", "trispec", "relax"):
            problems.append(f"unknown method {self.method!r}")
        if self.sd_verifier not in ("target", "proxy"):
            problems.append(f"sd_verifier must be target or proxy, got {self.sd_verifier!r}")
        if len(self.orders) != 3 or any(o < 1 for o in self.orders):
            problems.append(f"orders must be three n-gram orders >= 1, got {self.orders!r}")
        if self.alpha < 0:
            problems.append("alpha must be >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            problems.append("epsilon must lie in [0, 1]")
        if self.noise not in ("unigram", "uniform"):
            problems.append(f"noise must be unigram or uniform, got {self.noise!r}")
        if self.signal not in ("margin", "top1_prob", "composite_entropy"):
            problems.append(f"unknown signal {self.signal!r}")
        if self.relax_policy not in ("chow", "token_specific", "confidence_filter", "topk"):
            problems.append(f"unknown relax policy {self.relax_policy!r}")
        if not 0.0 <= self.relax_alpha <= 1.0:
            problems.append("relax_alpha must lie in [0, 1]")
        if not 0.0 <= self.relax_threshold <= 1.0:
            problems.append("relax_threshold must lie in [0, 1]")
        if self.relax_k < 1:
            problems.append("relax_k must be >= 1")
        if self.temperature not in (0.0, 1.0):
            problems.append("temperature must be 0 (greedy) or 1 (sampling)")
        if self.use_tree and self.temperature != 0.0:
            problems.append("tree drafting verifies greedily; use temperature=0")
        if self.k < 1 or self.tree_depth < 1 or self.tree_topk < 1 or self.tree_budget < 1:
            problems.append("k, tree_depth, tree_topk, tree_budget must all be >= 1")
        if min(self.c_d, self.c_p, self.c_t, self.t_o, self.t_o_base) < 0:
            problems.append("cost constants must be >= 0")
        if not 0 <= self.seed < 2**64:
            problems.append("seed must lie in [0, 2**64)")
        if self.max_new_tokens < 1 or self.num_prompts < 1:
            problems.append("max_new_tokens and num_prompts must be >= 1")
        if not 0.0 < self.prompt_fraction < 1.0:
            problems.append("prompt_fraction must lie in (0, 1)")
        if not 0.0 < self.train_fraction < 1.0:
            problems.append("train_fraction must lie in (0, 1)")
        if problems:
            raise ConfigError("; ".join(problems))

    def as_dict(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        out["orders"] = list(self.orders)
        return out


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(" ", "").split(",") if part)


# Text parsers by field annotation, shared by config values and trace cells.
_PARSERS = {
    "str": str,
    "str | None": lambda s: s or None,
    "int": int,
    "int | None": lambda s: int(s) if s else None,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
}

_KEY_ALIASES = {"lambda": "lam"}

_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def config_overrides(items: dict[str, str]) -> dict:
    """Coerce raw key=value strings into config field values."""
    parsed = {}
    for raw_key, raw_value in items.items():
        key = _KEY_ALIASES.get(raw_key.strip(), raw_key.strip())
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown config key {raw_key!r}")
        try:
            parsed[key] = parser(raw_value.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {raw_key!r}: {raw_value!r} ({exc})") from exc
    return parsed


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a flat key=value config file and apply overrides on top."""
    items: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 at byte {exc.start}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = body.split("=", 1)
            items[key.strip()] = value.strip()
    cfg = replace(ExperimentConfig(), **config_overrides(items))
    if overrides:
        cfg = replace(cfg, **config_overrides(overrides))
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Corpus and model family
# ---------------------------------------------------------------------------


def load_corpus(path: str | Path, tokenizer: str) -> tuple[np.ndarray, Vocabulary]:
    """Tokenize a text file: bytes (fixed V=256) or sorted distinct chars,
    into one array of the narrowest unsigned dtype that holds the ids."""
    data = Path(path).read_bytes()
    if not data:
        raise EmptyCorpusError(f"corpus file {path} is empty")
    if tokenizer == "byte":
        return np.frombuffer(data, dtype=np.uint8), Vocabulary(256)
    if tokenizer == "char":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"corpus file {path} is not UTF-8 at byte {exc.start}") from exc
        symbols = tuple(sorted(set(text)))
        vocab = Vocabulary(len(symbols), symbols)
        index = {ch: i for i, ch in enumerate(symbols)}
        dtype = np.min_scalar_type(len(symbols) - 1)
        return np.fromiter(map(index.__getitem__, text), dtype, len(text)), vocab
    raise ConfigError(f"unknown tokenizer {tokenizer!r}")


@dataclass
class Family:
    """The three decoding oracles plus the data they came from."""

    drafter: ModelOracle
    proxy: ModelOracle
    target: ModelOracle
    vocab: Vocabulary
    train_tokens: np.ndarray
    held_tokens: list[int]

    def fork(self) -> "Family":
        """The same family with fresh invocation counters."""
        return replace(
            self, drafter=self.drafter.fork(), proxy=self.proxy.fork(), target=self.target.fork()
        )


def family_signature(cfg: ExperimentConfig) -> tuple:
    """The config projection that determines the trained family."""
    return (
        cfg.corpus,
        cfg.tokenizer,
        cfg.family,
        cfg.orders,
        cfg.alpha,
        cfg.epsilon,
        cfg.noise,
        cfg.train_fraction,
        cfg.model_dir,
    )


def build_family(cfg: ExperimentConfig) -> Family:
    """Load the corpus, split train/held-out, and train (or load) oracles."""
    corpus_path = Path(cfg.corpus) if cfg.corpus else reference_corpus_path()
    tokens, vocab = load_corpus(corpus_path, cfg.tokenizer)
    split = int(len(tokens) * cfg.train_fraction)
    train, held = tokens[:split], tokens[split:].tolist()
    if not len(train) or not held:
        raise ConfigError("train/held-out split left one side empty; adjust train_fraction")

    if cfg.model_dir is not None:
        loaded = []
        for role in ("drafter", "proxy", "target"):
            path = Path(cfg.model_dir) / f"{role}.json"
            try:
                oracle = load_oracle(path)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ConfigError(f"cannot load the {role} from {path}: {exc}") from exc
            _check_loaded(role, oracle, vocab, train)
            loaded.append(oracle)
        return Family(*loaded, vocab, train, held)

    d_order, p_order, t_order = cfg.orders
    drafter = train_ngram(train, NGramSpec(d_order, cfg.alpha), vocab)
    target = train_ngram(train, NGramSpec(t_order, cfg.alpha), vocab)
    if cfg.family == "ngram":
        proxy: ModelOracle = train_ngram(train, NGramSpec(p_order, cfg.alpha), vocab)
    else:
        proxy = derive_proxy(target, ProxyDerivation(cfg.epsilon, cfg.noise))
    return Family(drafter, proxy, target, vocab, train, held)


def _check_loaded(role: str, oracle: ModelOracle, vocab: Vocabulary, train: np.ndarray) -> None:
    """A loaded oracle must speak the corpus vocabulary and, where it is an
    n-gram (a mixture's base included), carry the fingerprint of training
    on this corpus's training split."""
    if oracle.vocab_size != vocab.size:
        raise ConfigError(
            f"loaded {role} vocabulary ({oracle.vocab_size}) does not match "
            f"the corpus vocabulary ({vocab.size})"
        )
    if oracle.vocab.symbols != vocab.symbols:
        raise ConfigError(f"loaded {role} symbols do not match the corpus vocabulary")
    while isinstance(oracle, MixtureProxy):
        oracle = oracle.base
    if isinstance(oracle, NgramModel) and not oracle.trained_on(train):
        raise ConfigError(
            f"loaded {role} was not trained on this corpus's training split "
            f"(its fingerprint does not match)"
        )


def derive_prompts(
    held: Sequence[int],
    vocab: Vocabulary,
    tokenizer: str,
    num_prompts: int,
    prompt_fraction: float,
    min_len: int = 8,
) -> list[tuple[int, ...]]:
    """Prompt prefixes from held-out lines, split at ``prompt_fraction``.

    The first ``num_prompts`` lines of at least ``min_len`` tokens are used,
    and the stream is read no further than the last of them. Falls back to
    fixed-stride chunks when the held-out stream has no usable line
    structure.
    """
    newline_id: int | None = None
    if tokenizer == "byte":
        newline_id = 0x0A
    elif vocab.symbols and "\n" in vocab.symbols:
        newline_id = vocab.symbols.index("\n")

    lines: list[Sequence[int]] = []
    if newline_id is not None:
        start = 0
        while start <= len(held) and len(lines) < num_prompts:
            try:
                stop = held.index(newline_id, start)
            except ValueError:
                stop = len(held)
            if stop - start >= min_len:
                lines.append(held[start:stop])
            start = stop + 1

    if len(lines) < num_prompts:
        chunk = max(min_len, len(held) // (num_prompts + 1), 1)
        lines = [list(held[i : i + chunk]) for i in range(0, len(held) - chunk, chunk)]
        lines = [line for line in lines if len(line) >= min_len]
    if len(lines) < num_prompts:
        raise ConfigError("held-out corpus too small to derive the requested prompts")

    prompts = []
    for line in lines[:num_prompts]:
        cut = max(1, int(len(line) * prompt_fraction))
        prompts.append(tuple(line[:cut]))
    return prompts


def margin_eval_contexts(
    tokens: Sequence[int], positions: int, window: int = 8
) -> list[tuple[int, ...]]:
    """Evenly spaced fixed-width contexts over a token stream."""
    if positions < 1 or window < 1:
        raise ConfigError("margin evaluation needs positions >= 1 and window >= 1")
    if len(tokens) <= window:
        raise ConfigError("token stream too short for margin evaluation")
    span = len(tokens) - window
    stride = max(1, span // positions)
    out = []
    for start in range(0, span, stride):
        out.append(tuple(tokens[start : start + window]))
        if len(out) == positions:
            break
    return out


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TraceRecord:
    """One verification round, flattened for the trace CSV."""

    run_id: str
    round_index: int
    case: str
    tau_a: int | None
    tau_m: int | None
    tau_t: int | None
    emitted_count: int
    proxy_called: bool
    target_called: bool
    round_cost: float

    @classmethod
    def from_csv_row(cls, row: Sequence[str]) -> "TraceRecord":
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"trace row has {len(row)} cells, expected {len(TRACE_COLUMNS)}")
        rec = cls(*(_PARSERS[f.type](cell) for f, cell in zip(fields(cls), row)))
        if rec.round_index < 0:
            raise ValueError(f"trace row has round_index {rec.round_index}, below 0")
        if not 0.0 <= rec.round_cost < math.inf:
            raise ValueError(f"round {rec.round_index}: round_cost must be finite and >= 0")
        return rec


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


def validate_trace_records(records: Sequence[TraceRecord]) -> None:
    """Re-check the routing rule every round obeys (``check_routing``)."""
    for rec in records:
        try:
            check_routing(RoundCase(rec.case), rec.tau_a, rec.tau_m, rec.tau_t,
                          rec.emitted_count, rec.proxy_called, rec.target_called)
        except ValueError as exc:
            raise ValueError(f"round {rec.round_index}: {exc}") from exc


def _csv_lines(rows: Iterable[Sequence[str]]) -> list[str]:
    # One writer formats every row with a "\r\n" terminator, so that a cell
    # holding either character is quoted (csv quotes only the terminator's
    # characters); each row, one write call, is then ended with "\n" alone.
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return [line[:-2] + "\n" for line in lines]


def _write_csv(path: str | Path, schema: str, header: Sequence[str], lines: Iterable[str]) -> None:
    text = schema + "\n" + _csv_lines([header])[0] + "".join(lines)
    Path(path).write_text(text, encoding="utf-8", newline="")


class _TextCells(dict):
    """Text cells as the csv module quotes them, each distinct text once."""

    def __missing__(self, text: str) -> str:
        # quoted beside a second cell: the csv module writes a lone empty cell as ""
        cell = self[text] = _csv_lines([(text, "")])[0][:-2]
        return cell


def write_trace_csv(records: Sequence[TraceRecord], path: str | Path) -> None:
    """One line per record in ``TRACE_COLUMNS`` order: None is an empty
    cell, a bool 1 or 0, and the text cells are quoted as csv quotes them."""
    text = _TextCells()
    _write_csv(path, TRACE_SCHEMA, TRACE_COLUMNS, [
        f"{text[r.run_id]},{r.round_index},{text[r.case]},{'' if r.tau_a is None else r.tau_a},"
        f"{'' if r.tau_m is None else r.tau_m},{'' if r.tau_t is None else r.tau_t},"
        f"{r.emitted_count},{1 if r.proxy_called else 0},{1 if r.target_called else 0},"
        f"{r.round_cost}\n"
        for r in records
    ])


def read_trace_csv(path: str | Path) -> list[TraceRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        if fh.readline().rstrip("\r\n") != TRACE_SCHEMA:
            raise ValueError(f"{path} is not a {TRACE_SCHEMA!r} file")
        rows = csv.reader(fh)
        if next(rows, None) != list(TRACE_COLUMNS):
            raise ValueError(f"{path} has an unexpected column header")
        records = [TraceRecord.from_csv_row(row) for row in rows if row]
    validate_trace_records(records)
    return records


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    run_id: str
    config: ExperimentConfig
    report: RunReport
    records: list[TraceRecord]
    continuations: list[tuple[tuple[int, ...], list[int]]]

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "config": self.config.as_dict(),
            "report": self.report.to_dict(),
        }


def default_run_id(cfg: ExperimentConfig) -> str:
    parts = [cfg.method]
    if cfg.method == "trispec":
        parts.append(f"{cfg.signal}{cfg.lam:g}")
    if cfg.method == "relax":
        parts.append(cfg.relax_policy)
    if cfg.use_tree:
        parts.append("tree")
    parts.append(f"T{cfg.temperature:g}")
    parts.append(f"seed{cfg.seed}")
    return "-".join(parts)


def _trust_rule(cfg: ExperimentConfig):
    if cfg.signal == "margin":
        return MarginRule(cfg.lam)
    return RoutingSignal(cfg.signal, cfg.lam)


def _ppl_under_target(
    target: ModelOracle, continuations: Sequence[tuple[tuple[int, ...], list[int]]]
) -> float | None:
    probe = target.fork()
    nll, count = 0.0, 0
    for prompt, emitted in continuations:
        if not emitted:
            continue
        states, walked = probe.batch_score(prompt, emitted)
        for p in states.table[walked[:-1], emitted].tolist():
            nll += -math.log(max(p, 1e-300))
        count += len(emitted)
    return math.exp(nll / count) if count else None


def run_experiment(cfg: ExperimentConfig, family: Family | None = None) -> ExperimentResult:
    """Decode every prompt with the configured method and account each round.

    A prebuilt family may be injected (sweeps reuse one training pass); it
    is forked per run so invocation counters stay isolated.
    """
    cfg.validate()
    family = (family or build_family(cfg)).fork()
    drafter, proxy, target = family.drafter, family.proxy, family.target
    report = RunReport(cost=CostModel(cfg.c_d, cfg.c_p, cfg.c_t, cfg.t_o), t_o_base=cfg.t_o_base)
    run_id = cfg.run_id or default_run_id(cfg)
    rule = _trust_rule(cfg)
    policy = RelaxPolicy(
        cfg.relax_policy, alpha=cfg.relax_alpha, threshold=cfg.relax_threshold, k=cfg.relax_k
    )
    tree_params = TreeParams(cfg.tree_depth, cfg.tree_topk, cfg.tree_budget)
    prompts = derive_prompts(
        family.held_tokens, family.vocab, cfg.tokenizer, cfg.num_prompts, cfg.prompt_fraction
    )

    verifier = target if cfg.sd_verifier == "target" else proxy
    # Round functions by method. Each lambda looks its function up by name when
    # called, so a wrapper set on this module's names sees every round.
    # target_only and relax have no tree form; use_tree leaves them as they are.
    rounds = {
        "target_only": lambda base, streams: target_only_round(
            target, base, cfg.temperature, streams
        ),
        "sd": lambda base, streams: sd_round(
            drafter, verifier, base, cfg.k, cfg.temperature, streams, cfg.sd_verifier
        ),
        "sd_tree": lambda base, streams: sd_tree_round(
            drafter, verifier, base, tree_params, cfg.sd_verifier
        ),
        "relax": lambda base, streams: relaxed_sd_round(
            drafter, target, base, cfg.k, policy, cfg.temperature, streams
        ),
        "trispec": lambda base, streams: trispec_round(
            drafter, proxy, target, base, cfg.k, rule, cfg.temperature, streams,
            raw_bonus=cfg.raw_bonus,
        ),
        "trispec_tree": lambda base, streams: trispec_tree_round(
            drafter, proxy, target, base, tree_params, rule
        ),
    }
    play = rounds.get(f"{cfg.method}_tree" if cfg.use_tree else cfg.method, rounds[cfg.method])

    played: list[Round] = []
    continuations: list[tuple[tuple[int, ...], list[int]]] = []
    for prompt_idx, prompt in enumerate(prompts):
        streams = DecodeStreams.from_seed(cfg.seed, scope=f"prompt{prompt_idx}")
        emitted_all: list[int] = []
        while len(emitted_all) < cfg.max_new_tokens:
            rnd = play(prompt + tuple(emitted_all), streams)
            played.append(rnd)
            emitted_all.extend(rnd.emitted)
        continuations.append((prompt, emitted_all))

    records = [
        TraceRecord(run_id, i, rnd.case.value, rnd.tau_a, rnd.tau_m, rnd.tau_t, len(rnd.emitted),
                    rnd.proxy_called, rnd.target_called, cost)
        for i, (rnd, cost) in enumerate(zip(played, accumulate(report, played)))
    ]

    report.continuation_ppl = _ppl_under_target(target, continuations)
    if not math.isfinite(report.L):
        raise ConfigError(f"the cost constants overflow the latency ledger: L = {report.L}")
    residual = lemma_check(report)
    if not residual <= 1e-9 * max(report.L, 1.0):  # NaN fails too
        raise AssertionError(f"latency decomposition identity violated: residual {residual}")
    return ExperimentResult(run_id, cfg, report, records, continuations)


def write_report_json(result: ExperimentResult, path: str | Path) -> None:
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep(
    cfg: ExperimentConfig, grid: dict[str, list[str]]
) -> tuple[list[str], list[dict[str, str]]]:
    """Run the full cartesian grid over a base config.

    Returns (column names, rows). Grid points are independent: each run
    forks a cached family (retrained only when a family-shaping key
    changes), so the row for a given point does not depend on sweep order.
    """
    if not grid:
        raise ConfigError("sweep needs at least one grid key")
    named: dict[str, str] = {}  # config field -> the grid key naming it
    for key in grid:
        canonical = _KEY_ALIASES.get(key, key)
        if canonical not in _FIELD_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        if canonical in named:
            raise ConfigError(f"sweep keys {named[canonical]!r} and {key!r} name one config key")
        named[canonical] = key
        if not grid[key]:
            raise ConfigError(f"sweep key {key!r} has no values")

    grid_keys = list(grid)
    # a grid key that is also a metric column is written once, where the key is
    columns = grid_keys + [c for c in SWEEP_METRIC_COLUMNS if c not in grid]
    families: dict[tuple, Family] = {}
    rows: list[dict[str, str]] = []
    for values in itertools.product(*(grid[k] for k in grid_keys)):
        overrides = dict(zip(grid_keys, values))
        point_cfg = replace(cfg, **config_overrides(overrides))
        point_cfg.validate()
        sig = family_signature(point_cfg)
        if sig not in families:
            families[sig] = build_family(point_cfg)
        result = run_experiment(point_cfg, families[sig])
        report = result.report
        row = {key: value for key, value in zip(grid_keys, values)}
        row.update(
            {
                "method": point_cfg.method,
                "seed": str(point_cfg.seed),
                "temperature": f"{point_cfg.temperature:g}",
                "N": str(report.N),
                "rounds": str(report.rounds),
                "tau_mean": repr(report.tau_mean),
                "tokens_per_round": repr(report.tokens_per_round),
                "r_t": repr(report.r_t),
                "L": repr(report.L),
                "speedup": repr(report.speedup),
                "lemma_residual": repr(lemma_check(report)),
                "proxy_only_rounds": str(report.case_counts.get("ProxyOnly", 0)),
                "target_escalated_rounds": str(report.case_counts.get("TargetEscalated", 0)),
                "continuation_ppl": repr(report.continuation_ppl),
            }
        )
        rows.append(row)
    return columns, rows


def write_sweep_csv(columns: list[str], rows: list[dict[str, str]], path: str | Path) -> None:
    _write_csv(path, SWEEP_SCHEMA, columns, _csv_lines([row[c] for c in columns] for row in rows))
