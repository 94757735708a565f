"""Config parsing, corpus handling, experiment runs, sweeps, trace IO."""

import csv
import io
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trispec.harness import (
    ConfigError,
    EmptyCorpusError,
    ExperimentConfig,
    SWEEP_METRIC_COLUMNS,
    SWEEP_SCHEMA,
    TRACE_COLUMNS,
    TRACE_SCHEMA,
    TraceRecord,
    build_family,
    config_overrides,
    default_run_id,
    derive_prompts,
    load_config,
    load_corpus,
    margin_eval_contexts,
    read_trace_csv,
    run_experiment,
    sweep,
    validate_trace_records,
    write_report_json,
    write_sweep_csv,
    write_trace_csv,
)
from trispec.models import MixtureProxy, NgramModel, save_oracle


@pytest.fixture(scope="module")
def tri_result(ref_family):
    cfg = ExperimentConfig(method="trispec", lam=0.5, max_new_tokens=48, num_prompts=8)
    return run_experiment(cfg, ref_family)


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------


def test_char_tokenizer_builds_sorted_symbol_vocab(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("abca\n")
    tokens, vocab = load_corpus(p, "char")
    assert vocab.symbols == ("\n", "a", "b", "c")
    assert tokens == [1, 2, 3, 1, 0]


def test_byte_tokenizer_is_fixed_width(tmp_path):
    p = tmp_path / "b.txt"
    p.write_bytes(b"\x00ab\xff")
    tokens, vocab = load_corpus(p, "byte")
    assert vocab.size == 256
    assert tokens == [0, 97, 98, 255]


def test_corpus_error_cases(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    with pytest.raises(EmptyCorpusError):
        load_corpus(empty, "char")
    full = tmp_path / "full.txt"
    full.write_text("hello")
    with pytest.raises(ConfigError):
        load_corpus(full, "words")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_load_config_parses_comments_aliases_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# a comment line\n"
        "\n"
        "method = trispec   # trailing comment\n"
        "lambda = 0.25\n"
        "k = 4\n"
        "orders = 2, 3, 4\n"
        "use_tree = false\n"
    )
    cfg = load_config(p)
    assert cfg.method == "trispec"
    assert cfg.lam == 0.25
    assert cfg.k == 4
    assert cfg.orders == (2, 3, 4)
    overridden = load_config(p, {"k": "8", "lambda": "0.75"})
    assert overridden.k == 8 and overridden.lam == 0.75


def test_load_config_rejects_malformed_lines(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just a bare line\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_config_overrides_type_coercion():
    parsed = config_overrides(
        {"orders": "3,4,5", "use_tree": "yes", "raw_bonus": "0", "corpus": "", "seed": "7"}
    )
    assert parsed == {
        "orders": (3, 4, 5),
        "use_tree": True,
        "raw_bonus": False,
        "corpus": None,
        "seed": 7,
    }
    with pytest.raises(ConfigError):
        config_overrides({"beam_width": "4"})
    with pytest.raises(ConfigError):
        config_overrides({"k": "four"})
    with pytest.raises(ConfigError):
        config_overrides({"use_tree": "maybe"})


def test_config_validation_collects_problems():
    with pytest.raises(ConfigError):
        ExperimentConfig(temperature=0.5).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(orders=(2, 3)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(use_tree=True, temperature=1.0).validate()
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(method="beam", tokenizer="words").validate()
    assert "beam" in str(err.value) and "words" in str(err.value)
    ExperimentConfig().validate()


def test_as_dict_echoes_the_lambda_alias():
    d = ExperimentConfig(lam=0.75).as_dict()
    assert d["lambda"] == 0.75
    assert "lam" not in d
    assert d["orders"] == [2, 3, 4]


def test_default_run_ids_are_stable():
    assert default_run_id(ExperimentConfig()) == "trispec-margin0.5-T0-seed0"
    assert default_run_id(ExperimentConfig(method="sd", temperature=1.0, seed=3)) == "sd-T1-seed3"
    assert default_run_id(ExperimentConfig(method="relax")) == "relax-chow-T0-seed0"
    assert (
        default_run_id(ExperimentConfig(use_tree=True)) == "trispec-margin0.5-tree-T0-seed0"
    )


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def test_reference_family_shape(ref_family):
    assert isinstance(ref_family.drafter, NgramModel)
    assert ref_family.drafter.order == 2
    assert ref_family.proxy.order == 3
    assert ref_family.target.order == 4
    assert len(ref_family.train_tokens) + len(ref_family.held_tokens) > 90_000


def test_perturbed_family_mixes_the_target(perturbed_family):
    proxy = perturbed_family.proxy
    assert isinstance(proxy, MixtureProxy)
    assert proxy.deriv.epsilon == 0.3
    assert proxy.base is perturbed_family.target


def test_build_family_rejects_degenerate_split(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("ab\n")
    with pytest.raises(ConfigError):
        build_family(ExperimentConfig(corpus=str(p), train_fraction=0.1))


# ---------------------------------------------------------------------------
# prompts and evaluation contexts
# ---------------------------------------------------------------------------


def test_prompts_are_line_prefixes(ref_family):
    prompts = derive_prompts(ref_family.held_tokens, ref_family.vocab, "char", 6, 0.5)
    assert len(prompts) == 6
    assert all(isinstance(p, tuple) and len(p) >= 4 for p in prompts)
    newline = ref_family.vocab.symbols.index("\n")
    assert all(newline not in p for p in prompts)


def test_prompts_fall_back_to_stride_chunks():
    from trispec.core import Vocabulary

    # vocab without a newline symbol: the line splitter finds nothing
    prompts = derive_prompts([5] * 500, Vocabulary(10), "char", 3, 0.5)
    assert len(prompts) == 3
    assert all(len(p) >= 1 for p in prompts)


def test_prompts_error_when_corpus_is_too_small():
    from trispec.core import Vocabulary

    with pytest.raises(ConfigError):
        derive_prompts([1] * 10, Vocabulary(4), "char", 5, 0.5)


def _full_scan_prompts(held, vocab, tokenizer, num_prompts, prompt_fraction, min_len=8):
    """``derive_prompts`` as it was when it split the whole stream into
    lines before taking the first ``num_prompts`` usable ones."""
    newline_id = None
    if tokenizer == "byte":
        newline_id = 0x0A
    elif vocab.symbols and "\n" in vocab.symbols:
        newline_id = vocab.symbols.index("\n")
    lines = []
    if newline_id is not None:
        cur = []
        for tok in held:
            if tok == newline_id:
                lines.append(cur)
                cur = []
            else:
                cur.append(tok)
        lines.append(cur)
    lines = [line for line in lines if len(line) >= min_len]
    if len(lines) < num_prompts:
        chunk = max(min_len, len(held) // (num_prompts + 1), 1)
        lines = [list(held[i : i + chunk]) for i in range(0, len(held) - chunk, chunk)]
        lines = [line for line in lines if len(line) >= min_len]
    if len(lines) < num_prompts:
        raise ConfigError("held-out corpus too small to derive the requested prompts")
    return [tuple(line[: max(1, int(len(line) * prompt_fraction))]) for line in lines[:num_prompts]]


@st.composite
def _held_streams(draw):
    """Streams over 4 symbols, token 0 the newline unless the vocabulary
    has none, of short and long lines with or without a final newline."""
    from trispec.core import Vocabulary

    symbols = draw(st.sampled_from([("\n", "a", "b", "c"), None]))
    lines = draw(st.lists(st.lists(st.integers(1, 3), max_size=14), max_size=12))
    held = []
    for line in lines:
        held += line + [0]
    if held and draw(st.booleans()):
        held.pop()  # no newline at the end
    held += draw(st.lists(st.integers(0, 3), max_size=30))
    return held, Vocabulary(4, symbols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    case=_held_streams(),
    tokenizer=st.sampled_from(["char", "byte"]),
    num_prompts=st.integers(1, 6),
    min_len=st.integers(0, 9),
    fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_prompts_equal_the_full_scan_of_the_stream(
    case, tokenizer, num_prompts, min_len, fraction
):
    held, vocab = case
    args = (held, vocab, tokenizer, num_prompts, fraction, min_len)
    try:
        want = _full_scan_prompts(*args)
    except ConfigError:
        with pytest.raises(ConfigError):
            derive_prompts(*args)
        return
    assert derive_prompts(*args) == want


def test_margin_eval_contexts_spacing():
    tokens = list(range(100))
    ctxs = margin_eval_contexts(tokens, positions=10, window=8)
    assert len(ctxs) == 10
    assert ctxs[0] == tuple(range(8))
    assert all(len(c) == 8 for c in ctxs)
    assert len(margin_eval_contexts(tokens, positions=1000, window=8)) == 92
    with pytest.raises(ConfigError):
        margin_eval_contexts(list(range(8)), positions=4, window=8)


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------


def test_target_only_run_is_the_sequential_baseline(ref_family):
    cfg = ExperimentConfig(method="target_only", max_new_tokens=8, num_prompts=3)
    result = run_experiment(cfg, ref_family)
    report = result.report
    assert report.N == 24  # one token per round, exactly
    assert report.rounds == 24
    assert report.r_t == 1.0
    assert report.speedup == 1.0
    assert report.case_counts == {"TargetOnly": 24}
    assert all(r.case == "TargetOnly" and r.target_called for r in result.records)


def test_run_rejects_invalid_config(ref_family):
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(temperature=0.5), ref_family)


def test_trispec_run_routes_both_ways(tri_result):
    report = tri_result.report
    assert report.N >= 8 * 48
    assert report.rounds == len(tri_result.records)
    assert report.case_counts.get("ProxyOnly", 0) > 0
    assert report.case_counts.get("TargetEscalated", 0) > 0
    validate_trace_records(tri_result.records)
    assert all(r.round_cost > 0 for r in tri_result.records)


def test_continuation_ppl_is_a_sane_quality_probe(tri_result):
    ppl = tri_result.report.continuation_ppl
    assert ppl is not None and math.isfinite(ppl)
    assert ppl > 1.0


def test_reruns_are_byte_identical(ref_family, tmp_path):
    cfg = ExperimentConfig(method="trispec", lam=0.5, max_new_tokens=16, num_prompts=3, seed=5)
    a = run_experiment(cfg, ref_family)
    b = run_experiment(cfg, ref_family)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_report_json(a, pa)
    write_report_json(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert a.records == b.records


def test_model_dir_reproduces_the_trained_family(ref_family, tmp_path):
    save_oracle(ref_family.drafter, tmp_path / "drafter.json")
    save_oracle(ref_family.proxy, tmp_path / "proxy.json")
    save_oracle(ref_family.target, tmp_path / "target.json")
    cfg = ExperimentConfig(method="trispec", lam=0.5, max_new_tokens=16, num_prompts=3)
    trained = run_experiment(cfg, ref_family)
    loaded = run_experiment(replace(cfg, model_dir=str(tmp_path)))
    assert loaded.report.to_dict() == trained.report.to_dict()


def test_model_dir_vocab_mismatch_is_caught(tmp_path):
    from trispec.core import Vocabulary
    from trispec.models import NGramSpec, train_ngram

    tiny = train_ngram([0, 1, 0, 1, 0], NGramSpec(order=2), Vocabulary(2))
    for name in ("drafter", "proxy", "target"):
        save_oracle(tiny, tmp_path / f"{name}.json")
    with pytest.raises(ConfigError):
        build_family(ExperimentConfig(model_dir=str(tmp_path)))


def test_model_dir_symbol_mismatch_is_caught(ref_family, tmp_path):
    from trispec.core import Vocabulary

    target = ref_family.target
    shuffled = Vocabulary(target.vocab.size, target.vocab.symbols[::-1])
    renamed = NgramModel(shuffled, target.spec, target._counts)
    save_oracle(ref_family.drafter, tmp_path / "drafter.json")
    save_oracle(ref_family.proxy, tmp_path / "proxy.json")
    save_oracle(renamed, tmp_path / "target.json")
    with pytest.raises(ConfigError, match="loaded target symbols"):
        build_family(ExperimentConfig(model_dir=str(tmp_path)))


def test_model_dir_mixture_base_fingerprint_is_checked(ref_family, tmp_path):
    from trispec.models import NGramSpec, ProxyDerivation, derive_proxy, train_ngram

    other = train_ngram(ref_family.train_tokens[1:], NGramSpec(4, 0.1), ref_family.vocab)
    save_oracle(ref_family.drafter, tmp_path / "drafter.json")
    save_oracle(derive_proxy(other, ProxyDerivation(0.3)), tmp_path / "proxy.json")
    save_oracle(ref_family.target, tmp_path / "target.json")
    with pytest.raises(ConfigError, match="loaded proxy was not trained on"):
        build_family(ExperimentConfig(model_dir=str(tmp_path)))
    # the same mixture over the real target loads
    save_oracle(derive_proxy(ref_family.target, ProxyDerivation(0.3)), tmp_path / "proxy.json")
    assert isinstance(build_family(ExperimentConfig(model_dir=str(tmp_path))).proxy, MixtureProxy)


def test_model_dir_counts_must_be_prefix_closed(ref_family, tmp_path):
    import json

    for role in ("drafter", "proxy", "target"):
        save_oracle(getattr(ref_family, role), tmp_path / f"{role}.json")
    path = tmp_path / "target.json"
    doc = json.loads(path.read_text())
    counts = doc["model"]["counts"]
    orphan = next(iter(counts["3"])).rsplit(",", 1)[0]  # an order-2 context a longer one extends
    del counts["2"][orphan]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="not prefix-closed"):
        build_family(ExperimentConfig(model_dir=str(tmp_path)))


@pytest.mark.parametrize(
    "method, use_tree",
    [("target_only", False), ("sd", False), ("relax", False), ("trispec", False),
     ("sd", True), ("trispec", True)],
)
def test_a_greedy_run_seeds_no_generator(ref_family, monkeypatch, method, use_tree):
    import numpy as np

    made = []
    pcg = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *a: made.append(a) or pcg(*a))
    cfg = ExperimentConfig(
        method=method, use_tree=use_tree, temperature=0.0, max_new_tokens=12, num_prompts=2
    )
    run_experiment(cfg, ref_family)
    assert not made
    if not use_tree:  # the same run sampled does seed its generators
        run_experiment(replace(cfg, temperature=1.0), ref_family)
        assert made


_EVERY_METHOD = [
    dict(method=method, temperature=t, **extra)
    for t in (0.0, 1.0)
    for method, extra in [
        ("target_only", {}), ("sd", {"sd_verifier": "target"}), ("sd", {"sd_verifier": "proxy"}),
        ("trispec", {}),
        *(("relax", {"relax_policy": p}) for p in ("chow", "token_specific",
                                                   "confidence_filter", "topk")),
    ]
] + [dict(method="sd", use_tree=True), dict(method="trispec", use_tree=True)]


@pytest.mark.parametrize("family_name", ["ref_family", "perturbed_family"])
def test_decoding_builds_no_distribution(family_name, request, monkeypatch):
    """Every pass, draft and round works on rows: ``Distribution`` is only the
    checked type of rows from outside, so no decode path builds one."""
    import numpy as np

    from trispec.core import Distribution

    family = request.getfixturevalue(family_name)
    built = []
    init = Distribution.__init__
    monkeypatch.setattr(Distribution, "__init__", lambda d, probs: built.append(1) or init(d, probs))
    for overrides in _EVERY_METHOD:
        cfg = ExperimentConfig(max_new_tokens=16, num_prompts=2, **overrides)
        assert run_experiment(cfg, family).report.N > 0
    assert built == []

    fam = family.fork()
    ctx = tuple(family.held_tokens[:9])
    for oracle in (fam.drafter, fam.proxy, fam.target):
        for rows in (oracle.next_dist(ctx), oracle.batch_score(ctx, ctx[:3]),
                     oracle.batch_score_paths(ctx, [(), ctx[:2]])):
            assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
            assert not rows.flags.writeable


_GREEDY_CASES = [
    dict(method="trispec"), dict(method="sd", sd_verifier="target"),
    dict(method="sd", sd_verifier="proxy"), dict(method="target_only"),
    dict(method="trispec", use_tree=True),
]


@pytest.mark.parametrize("family_name", ["ref_family", "perturbed_family"])
def test_warm_greedy_decoding_takes_no_margin_from_rows(family_name, request, monkeypatch):
    """A state takes its row's margin once, when it is added; after that a
    greedy round reads argmaxes and margins from the states its passes
    walked, so on a warm family no decode path calls ``top2_margin``. At
    T=1 shaping is the identity, so a ternary round reads its margins from
    the states too; only other temperatures take them from rows."""
    import sys

    from trispec import core
    from trispec.router import MarginRule, trispec_round
    from trispec.verification import DecodeStreams

    family = request.getfixturevalue(family_name)
    cfgs = [ExperimentConfig(max_new_tokens=16, num_prompts=2, **case) for case in _GREEDY_CASES]
    sampled = replace(cfgs[0], temperature=1.0)
    for cfg in cfgs + [sampled]:
        run_experiment(cfg, family)  # adds every state these runs walk
    calls = []
    margin = core.top2_margin
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "trispec" and vars(module).get("top2_margin") is margin:
            monkeypatch.setattr(module, "top2_margin", lambda p: calls.append(1) or margin(p))
    for cfg in cfgs:
        assert cfg.temperature == 0.0 and run_experiment(cfg, family).report.N > 0
    assert calls == []
    assert run_experiment(sampled, family).report.N > 0
    assert calls == []
    fam = family.fork()
    ctx = tuple(family.held_tokens[:9])
    trispec_round(fam.drafter, fam.proxy, fam.target, ctx, 4, MarginRule(0.5), 0.7,
                  DecodeStreams.from_seed(3))
    assert calls  # a T=0.7 round reads its shaped rows' margins, through the patch


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------


def test_trace_round_trip(tri_result, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(tri_result.records, path)
    text = path.read_text().splitlines()
    assert text[0] == TRACE_SCHEMA
    assert text[1] == ",".join(TRACE_COLUMNS)
    assert read_trace_csv(path) == tri_result.records


_records = st.builds(
    TraceRecord,
    run_id=st.text(alphabet=st.sampled_from('ab1,"\' \n\r-'), max_size=12),
    round_index=st.integers(0, 10**6),
    case=st.just("SD"),
    tau_a=st.one_of(st.none(), st.integers(0, 64)),
    tau_m=st.none(),
    tau_t=st.none(),
    emitted_count=st.integers(1, 65),
    proxy_called=st.booleans(),
    target_called=st.booleans(),
    round_cost=st.floats(0.0, 1e6, allow_nan=False),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_records, max_size=5))
def test_trace_round_trips_any_run_id(records, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    assert read_trace_csv(path) == records


def test_trace_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not a trace\n")
    with pytest.raises(ValueError):
        read_trace_csv(bad)
    wrong_header = tmp_path / "header.csv"
    wrong_header.write_text(TRACE_SCHEMA + "\nrun_id,round\n")
    with pytest.raises(ValueError):
        read_trace_csv(wrong_header)


def test_trace_validation_catches_tampering(tmp_path):
    good = TraceRecord("r", 0, "ProxyOnly", 1, 3, None, 2, True, False, 9.0)
    validate_trace_records([good])
    bad = replace(good, emitted_count=5)
    with pytest.raises(ValueError):
        validate_trace_records([bad])
    path = tmp_path / "tampered.csv"
    write_trace_csv([bad], path)
    with pytest.raises(ValueError):
        read_trace_csv(path)
    with pytest.raises(ValueError):
        validate_trace_records([replace(good, case="TargetEscalated", target_called=True)])


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_runs_the_cartesian_grid(tmp_path):
    base = ExperimentConfig(method="trispec", max_new_tokens=8, num_prompts=2)
    columns, rows = sweep(base, {"lambda": ["0.0", "1.01"], "seed": ["0", "1"]})
    assert columns[:2] == ["lambda", "seed"]
    assert columns[2:] == list(SWEEP_METRIC_COLUMNS)
    assert [(r["lambda"], r["seed"]) for r in rows] == [
        ("0.0", "0"), ("0.0", "1"), ("1.01", "0"), ("1.01", "1"),
    ]
    # a sweep row is exactly the standalone run at that grid point
    point = run_experiment(replace(base, lam=1.01, seed=1))
    row = rows[3]
    assert row["r_t"] == repr(point.report.r_t)
    assert row["N"] == str(point.report.N)
    assert row["speedup"] == repr(point.report.speedup)

    path = tmp_path / "sweep.csv"
    write_sweep_csv(columns, rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_SCHEMA
    assert len(lines) == 2 + len(rows)


def test_sweep_csv_quotes_grid_values_that_hold_commas(tmp_path):
    base = ExperimentConfig(method="target_only", max_new_tokens=4, num_prompts=2)
    columns, rows = sweep(base, {"run_id": ["a,b", "plain"]})
    path = tmp_path / "sweep.csv"
    write_sweep_csv(columns, rows, path)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.readline() == SWEEP_SCHEMA + "\n"
        header, *body = csv.reader(fh)
    assert header == columns
    assert [dict(zip(header, cells)) for cells in body] == rows
    assert rows[0]["run_id"] == "a,b"
    # a row without special characters is its cells joined by bare commas
    assert path.read_text().splitlines()[3] == ",".join(rows[1][c] for c in columns)


def _csv_line(cells):
    """The per-row formatter the CSV writers once used, kept as a reference:
    a fresh writer per row, "\r\n"-terminated, then ended with "\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


_cells = st.text(alphabet=st.sampled_from('a1 ,"\'\r\n\t'), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    width=st.integers(1, 4),
    cells=st.lists(_cells, max_size=24),
    records=st.lists(_records, max_size=4),
)
def test_csv_writers_format_rows_as_the_per_row_formatter_did(width, cells, records, tmp_path):
    columns = [f"c{i}" for i in range(width - 1)] + ["x,\"y\"\r\n"]
    rows = [dict(zip(columns, cells[i : i + width])) for i in range(0, len(cells) - width + 1, width)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(columns, rows, path)
    want = [SWEEP_SCHEMA + "\n", _csv_line(columns)]
    want += [_csv_line([row[c] for c in columns]) for row in rows]
    assert path.read_bytes() == "".join(want).encode("utf-8")

    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    want = [TRACE_SCHEMA + "\n", _csv_line(TRACE_COLUMNS)]
    want += [_csv_line(rec.to_csv_row()) for rec in records]
    assert path.read_bytes() == "".join(want).encode("utf-8")


def test_sweep_rejects_bad_grids():
    base = ExperimentConfig()
    with pytest.raises(ConfigError):
        sweep(base, {})
    with pytest.raises(ConfigError):
        sweep(base, {"beam": ["1"]})
    with pytest.raises(ConfigError):
        sweep(base, {"k": []})
