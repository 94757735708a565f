"""Config parsing, corpus handling, experiment runs, sweeps, trace IO."""

import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trispec.harness import (
    ConfigError,
    EmptyCorpusError,
    ExperimentConfig,
    Family,
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
from trispec.core import Distribution, Vocabulary
from trispec.models import MixtureProxy, NgramModel, TableModel, save_oracle
from trispec.verification import RoundCase


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
    assert tokens.tolist() == [1, 2, 3, 1, 0]


def test_byte_tokenizer_is_fixed_width(tmp_path):
    p = tmp_path / "b.txt"
    p.write_bytes(b"\x00ab\xff")
    tokens, vocab = load_corpus(p, "byte")
    assert vocab.size == 256
    assert tokens.tolist() == [0, 97, 98, 255]


def test_corpus_error_cases(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    with pytest.raises(EmptyCorpusError):
        load_corpus(empty, "char")
    full = tmp_path / "full.txt"
    full.write_text("hello")
    with pytest.raises(ConfigError):
        load_corpus(full, "words")


def _reference_char_tokens(text):
    """The char tokenizer as it mapped each character through a dict in
    Python, kept as an oracle for the one route in C."""
    symbols = tuple(sorted(set(text)))
    index = {ch: i for i, ch in enumerate(symbols)}
    dtype = np.min_scalar_type(len(symbols) - 1)
    return np.fromiter(map(index.__getitem__, text), dtype, len(text)), symbols


def _assert_tokenizes_as_the_reference(text, path):
    path.write_bytes(text.encode("utf-8"))
    tokens, vocab = load_corpus(path, "char")
    want, symbols = _reference_char_tokens(text)
    assert vocab.symbols == symbols and vocab.size == len(symbols)
    assert tokens.dtype == want.dtype and tokens.dtype.isnative
    assert np.array_equal(tokens, want)


# every code point UTF-8 can hold: the surrogates are not characters
_CHARS = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=("Cs",))


@st.composite
def _texts(draw):
    """Any Unicode, astral characters included; often over more than 256
    distinct characters, so that the ids take ``uint16``."""
    alphabet = draw(st.one_of(
        st.lists(_CHARS, min_size=2, max_size=40, unique=True),
        st.lists(_CHARS, min_size=257, max_size=700, unique=True),
    ))
    extra = draw(st.lists(st.sampled_from(alphabet), max_size=200))
    return "".join(draw(st.permutations(alphabet + extra)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_texts())
def test_char_tokenizer_equals_the_dict_mapping(text, tmp_path_factory):
    _assert_tokenizes_as_the_reference(text, tmp_path_factory.mktemp("corpus") / "c.txt")


@pytest.mark.parametrize("distinct", [256, 257, 0xD800 + 10, 0x10000 + 10])
def test_char_tokenizer_equals_the_dict_mapping_at_each_id_width(distinct, tmp_path):
    """Ids cross into ``uint16``, into the surrogate range that the UTF-16
    route must pass through, and into ``uint32``."""
    chars = [chr(c) for c in range(0x10FFFF + 1) if not 0xD800 <= c <= 0xDFFF][:distinct]
    text = "".join(chars[::-1] + chars[: distinct // 2])
    _assert_tokenizes_as_the_reference(text, tmp_path / "c.txt")


def test_char_tokenizer_reports_the_byte_offset_of_invalid_utf8(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes("a\U0001F600b".encode("utf-8") + b"\xff tail")  # a 4-byte char first
    with pytest.raises(ConfigError, match=rf"^corpus file {re.escape(str(p))} is not UTF-8 at byte 6$"):
        load_corpus(p, "char")


def test_char_tokenizer_refuses_one_distinct_character(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("a" * 40)
    with pytest.raises(ConfigError, match="holds one distinct character"):
        load_corpus(p, "char")
    assert load_corpus(p, "byte")[1].size == 256  # the byte tokenizer's V is fixed


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


def test_a_run_id_names_a_tree_only_when_a_tree_round_runs():
    """``use_tree`` leaves ``target_only`` and ``relax`` on their own
    rounds, so their run ids name no tree."""
    want = {"trispec": "trispec-margin0.5-tree-T0-seed0", "sd": "sd-tree-T0-seed0",
            "relax": "relax-chow-T0-seed0", "target_only": "target_only-T0-seed0"}
    for method, run_id in want.items():
        cfg = ExperimentConfig(method=method, use_tree=True, max_new_tokens=4, num_prompts=1)
        assert default_run_id(cfg) == run_id
        result = run_experiment(cfg)
        assert result.run_id == run_id and {r.run_id for r in result.records} == {run_id}
    assert list(result.report.case_counts) == ["TargetOnly"]


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


@pytest.mark.parametrize("positions, window", [(0, 8), (-1, 8), (10, 0), (10, -3)])
def test_margin_eval_contexts_refuses_nonpositive_sizes(positions, window):
    with pytest.raises(ConfigError):
        margin_eval_contexts(list(range(50)), positions=positions, window=window)


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


def _sequential_ppl(target, continuations):
    """The per-token perplexity loop, kept as the reference: each token's
    target probability read from its own pass, floored at 1e-300, its
    negative log added in token order."""
    probe = target.fork()
    nll, count = 0.0, 0
    for prompt, emitted in continuations:
        for i, token in enumerate(emitted):
            p = float(probe.next_dist(prompt + tuple(emitted[:i]))[token])
            nll += -math.log(max(p, 1e-300))
        count += len(emitted)
    return math.exp(nll / count)


def _zero_entry_family():
    """Table oracles whose drafter and proxy always agree on alternating
    tokens 0 and 2, and whose target gives token 2 no mass at all. Its
    0.662 is a probability whose ``np.log`` is not ``math.log``'s."""
    vocab = Vocabulary(3)
    proposer = {(2,): Distribution([0.7, 0.1, 0.2])}
    drafter = TableModel(vocab, proposer, default=Distribution([0.2, 0.3, 0.5]))
    proxy = TableModel(vocab, proposer, default=Distribution([0.1, 0.2, 0.7]))
    target = TableModel(vocab, {}, default=Distribution([0.662, 0.338, 0.0]))
    held = [0, 1, 2, 1] * 40
    return Family(drafter, proxy, target, vocab, np.array(held[:40]), held)


@pytest.mark.parametrize("family_name", ["ref_family", "zero_entry"])
def test_continuation_ppl_is_the_sequential_per_token_sum_bit_for_bit(family_name, request):
    """Proxy-only rounds (lambda 0) emit what the target may give no mass:
    on the table family, token 2 hits the 1e-300 floor."""
    family = _zero_entry_family() if family_name == "zero_entry" else request.getfixturevalue(family_name)
    for lam in (0.0, 0.5):
        cfg = ExperimentConfig(lam=lam, max_new_tokens=16, num_prompts=3)
        result = run_experiment(cfg, family)
        want = _sequential_ppl(family.target, result.continuations)
        assert result.report.continuation_ppl.hex() == want.hex()
        if family_name == "zero_entry" and lam == 0.0:
            assert 2 in result.continuations[0][1]  # a token the target gives no mass


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
    cfg = ExperimentConfig(model_dir=str(tmp_path), family="perturbed")
    with pytest.raises(ConfigError, match="loaded proxy was not trained on"):
        build_family(cfg)
    # the same mixture over the real target loads
    save_oracle(derive_proxy(ref_family.target, ProxyDerivation(0.3)), tmp_path / "proxy.json")
    assert isinstance(build_family(cfg).proxy, MixtureProxy)


def _save_family(family, model_dir, **replaced):
    model_dir.mkdir(exist_ok=True)
    for role in ("drafter", "proxy", "target"):
        save_oracle(replaced.get(role, getattr(family, role)), model_dir / f"{role}.json")


@pytest.mark.parametrize("overrides, message", [
    ({"orders": (3, 3, 4)}, "loaded drafter does not match orders: the config gives 3, the model has 2"),
    ({"orders": (2, 2, 4)}, "loaded proxy does not match orders: the config gives 2, the model has 3"),
    ({"orders": (2, 3, 5)}, "loaded target does not match orders: the config gives 5, the model has 4"),
    ({"alpha": 0.5}, "loaded drafter does not match alpha: the config gives 0.5, the model has 0.1"),
    ({"family": "perturbed"}, "loaded proxy is of kind 'ngram', but family=perturbed needs kind 'mixture'"),
])
def test_model_dir_refuses_an_ngram_family_of_another_shape(ref_family, tmp_path, overrides, message):
    _save_family(ref_family, tmp_path)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_family(ExperimentConfig(model_dir=str(tmp_path), **overrides))


@pytest.mark.parametrize("overrides, message", [
    ({"family": "ngram"}, "loaded proxy is of kind 'mixture', but family=ngram needs kind 'ngram'"),
    ({"epsilon": 0.5}, "loaded proxy does not match epsilon: the config gives 0.5, the model has 0.3"),
    ({"noise": "uniform"},
     "loaded proxy does not match noise: the config gives 'uniform', the model has 'unigram'"),
])
def test_model_dir_refuses_a_mixture_of_another_shape(perturbed_family, tmp_path, overrides, message):
    _save_family(perturbed_family, tmp_path)
    cfg = ExperimentConfig(model_dir=str(tmp_path), family="perturbed")
    assert build_family(cfg).proxy.deriv == perturbed_family.proxy.deriv
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_family(replace(cfg, **overrides))


def test_model_dir_refuses_a_mixture_over_another_ngram(perturbed_family, tmp_path):
    """The mixture's base must be the target's n-gram, not only an n-gram
    of the corpus."""
    from trispec.models import ProxyDerivation, derive_proxy

    drafter = perturbed_family.drafter
    _save_family(perturbed_family, tmp_path, proxy=derive_proxy(drafter, ProxyDerivation(0.3)))
    with pytest.raises(ConfigError, match="^loaded proxy's base does not match orders: "
                                          "the config gives 4, the model has 2$"):
        build_family(ExperimentConfig(model_dir=str(tmp_path), family="perturbed"))


def test_model_dir_refuses_a_table_where_an_ngram_belongs(ref_family, tmp_path):
    from trispec.core import Distribution
    from trispec.models import TableModel

    size = ref_family.vocab.size
    table = TableModel(ref_family.vocab, {}, Distribution(np.full(size, 1.0 / size)))
    _save_family(ref_family, tmp_path, target=table)
    with pytest.raises(ConfigError, match="^loaded target is of kind 'table', but family=ngram "
                                          "needs kind 'ngram'$"):
        build_family(ExperimentConfig(model_dir=str(tmp_path)))


@pytest.mark.parametrize("use_tree, temperature", [(False, 0.0), (False, 1.0), (True, 0.0)])
def test_decoding_leaves_the_shared_count_tables_unchanged(use_tree, temperature):
    """The family's n-grams share one count's tables; no decode writes them."""
    import copy

    family = build_family(ExperimentConfig())
    counts = family.target._counts
    assert all(family.drafter._counts[j] is counts[j] for j in (1, 2))
    assert all(family.proxy._counts[j] is counts[j] for j in (1, 2, 3))
    before = copy.deepcopy(counts)
    cfg = ExperimentConfig(use_tree=use_tree, temperature=temperature, num_prompts=4,
                           max_new_tokens=24)
    for lam in (0.0, 0.5, 1.01):
        run_experiment(replace(cfg, lam=lam), family)
    assert counts == before
    assert [list(t) for t in counts.values()] == [list(t) for t in before.values()]


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
        for rows in (oracle.next_dist(ctx), oracle.batch_score(ctx, ctx[:3]).rows,
                     oracle.batch_score_paths(ctx, [(), ctx[:2]]).rows):
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
    walked, so on a warm family no decode path calls ``top2_margin``. A
    T=1 ternary round reads its margins from the states too, and any other
    temperature is refused before a pass is made or a margin taken."""
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
    with pytest.raises(ValueError, match="temperature"):
        trispec_round(fam.drafter, fam.proxy, fam.target, ctx, 4, MarginRule(0.5), 0.7,
                      DecodeStreams.from_seed(3))
    assert calls == [] and fam.proxy.invocation_count == 0
    MarginRule(0.5).trusted(fam.proxy.next_dist(ctx))
    assert calls  # the patch sees the router's margins


def test_warm_greedy_decoding_builds_no_draft_chain(monkeypatch):
    """A greedy chain is drafted once per drafter window tail and length;
    a warm greedy run takes every chain from the drafter's memo."""
    from trispec.drafting import DraftChain

    family = build_family(ExperimentConfig())  # its own memo, cold
    built = []
    new = DraftChain.__new__
    monkeypatch.setattr(DraftChain, "__new__", lambda *a, **kw: built.append(1) or new(*a, **kw))
    cfgs = [ExperimentConfig(max_new_tokens=16, num_prompts=2, method=m)
            for m in ("trispec", "sd", "relax")]
    cold = [run_experiment(cfg, family) for cfg in cfgs]
    assert built  # the patch sees every chain built
    built.clear()
    warm = [run_experiment(cfg, family) for cfg in cfgs]
    assert built == []
    for a, b in zip(cold, warm):
        assert a.to_dict() == b.to_dict() and a.records == b.records


def test_warm_greedy_ternary_requests_copy_no_rows(monkeypatch):
    """A batched pass returns the states it walked and copies no rows, so a
    warm greedy ternary request, chain or tree, all round-table hits, reads
    no ``Walk.rows`` and decodes as the cold one did."""
    from trispec.models import Walk

    family = build_family(ExperimentConfig())  # its own memos and round table, cold
    reads = []
    rows = Walk.rows.fget
    monkeypatch.setattr(Walk, "rows", property(lambda walk: reads.append(1) or rows(walk)))
    for use_tree in (False, True):
        cfg = ExperimentConfig(max_new_tokens=24, num_prompts=3, use_tree=use_tree)
        assert cfg.method == "trispec" and cfg.temperature == 0.0
        cold = run_experiment(cfg, family)
        assert bool(reads) == use_tree  # a cold tree ranks each level's rows
        reads.clear()
        warm = run_experiment(cfg, family)
        assert reads == []
        assert warm.to_dict() == cold.to_dict() and warm.records == cold.records
        assert warm.continuations == cold.continuations


def test_warm_greedy_tree_requests_walk_no_paths(monkeypatch):
    """A tree pass walks its paths only when its walk is read. A cold
    greedy tree request reads the walks it ranks and verifies; a warm one,
    all round-table hits, makes and counts the same passes, walks none of
    them, and decodes as the cold one did."""
    from trispec.models import _PendingWalk

    family = build_family(ExperimentConfig())  # its own memos and round table, cold
    walks = []
    walk_paths = _PendingWalk.__getattr__
    monkeypatch.setattr(_PendingWalk, "__getattr__", lambda walk, name: walks.append(name)
                        or walk_paths(walk, name))
    cfg = ExperimentConfig(max_new_tokens=24, num_prompts=3, use_tree=True)
    assert cfg.method == "trispec" and cfg.temperature == 0.0
    cold = run_experiment(cfg, family)
    assert walks and set(walks) == {"ids"}
    walks.clear()
    warm = run_experiment(cfg, family)
    assert walks == []
    passes = [(r.report.drafter_passes, r.report.proxy_passes, r.report.target_passes)
              for r in (cold, warm)]
    assert passes[0] == passes[1] and min(passes[0]) > 0  # counted all the same
    assert warm.to_dict() == cold.to_dict() and warm.records == cold.records
    assert warm.continuations == cold.continuations


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


@st.composite
def _records(draw):
    """A row of any shape some run writes, under any run_id and cost."""
    case = draw(st.sampled_from([c.value for c in RoundCase]))
    a, m, t = draw(st.integers(0, 64)), draw(st.integers(0, 64)), draw(st.integers(0, 64))
    if case == "ProxyOnly":
        shape = (a, a + 1 + m, None, a + 1, True, False)
    elif case == "TargetEscalated":
        shape = (a + m, a, t, a + t + 1, True, True)
    elif case == "TargetOnly":
        shape = (None, None, None, 1, False, True)
    elif case == "SD":
        shape = (a, None, None, a + 1, *draw(st.sampled_from([(True, False), (False, True)])))
    else:  # Relax:*
        shape = (a, None, None, a + 1, False, True)
    return TraceRecord(draw(st.text(alphabet=st.sampled_from('ab1,"\' \n\r-'), max_size=12)),
                       draw(st.integers(0, 10**6)), case, *shape,
                       draw(st.floats(0.0, 1e6, allow_nan=False)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_records(), max_size=5))
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


_ESCALATED = TraceRecord("r", 0, "TargetEscalated", 2, 1, 0, 2, True, True, 99.0)


@pytest.mark.parametrize("bad", [
    replace(_ESCALATED, case="Bogus"),
    TraceRecord("r", 0, "ProxyOnly", 1, 3, None, 2, False, False, 9.0),  # no proxy call
    replace(_ESCALATED, proxy_called=False),
    TraceRecord("r", 0, "SD", -4, None, None, 1, False, True, 90.0),
    replace(_ESCALATED, tau_t=-1, emitted_count=1),  # 1 + (-1) + 1 = 1 still holds
    replace(_ESCALATED, round_index=-3),
    replace(_ESCALATED, round_cost=math.nan),
    replace(_ESCALATED, round_cost=math.inf),
    replace(_ESCALATED, round_cost=-5.0),
    TraceRecord("r", 0, "SD", 3, None, None, 1, False, True, 90.0),
    TraceRecord("r", 0, "TargetOnly", None, None, None, 5, False, True, 90.0),
    TraceRecord("r", 0, "SD", 2, 7, 9, 3, False, True, 90.0),
    TraceRecord("r", 0, "Relax:chow", None, None, None, 1, False, True, 90.0),
    TraceRecord("r", 0, "TargetOnly", 0, None, None, 1, False, True, 90.0),
    TraceRecord("r", 0, "TargetOnly", None, None, None, 1, True, False, 5.0),
    TraceRecord("r", 0, "SD", 1, None, None, 2, True, True, 96.0),
    TraceRecord("r", 0, "SD", 1, None, None, 2, False, False, 1.0),
    TraceRecord("r", 0, "Relax:topk", 1, None, None, 2, True, True, 96.0),
], ids=["bogus-case", "proxy-only-without-proxy", "escalated-without-proxy", "negative-tau-a",
        "negative-tau-t", "negative-round-index", "nan-cost", "inf-cost", "negative-cost",
        "sd-emits-not-tau-a-plus-1", "target-only-emits-5", "sd-with-tau-m-and-tau-t",
        "relax-without-tau-a", "target-only-with-tau-a", "target-only-calls-the-proxy-alone",
        "sd-calls-both-verifiers", "sd-calls-no-verifier", "relax-calls-the-proxy"])
def test_trace_read_back_refuses_rows_no_run_writes(bad, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv([_ESCALATED, bad], path)
    with pytest.raises(ValueError):
        read_trace_csv(path)
    write_trace_csv([_ESCALATED], path)
    assert read_trace_csv(path) == [_ESCALATED]


@pytest.mark.parametrize("family_name", ["ref_family", "perturbed_family"])
def test_every_method_trace_reads_back(family_name, request, tmp_path):
    """The routing rules hold for every row any decode method writes."""
    family = request.getfixturevalue(family_name)
    path = tmp_path / "trace.csv"
    for overrides in _EVERY_METHOD:
        result = run_experiment(ExperimentConfig(max_new_tokens=16, num_prompts=2, **overrides), family)
        write_trace_csv(result.records, path)
        assert read_trace_csv(path) == result.records


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_runs_the_cartesian_grid(tmp_path):
    base = ExperimentConfig(method="trispec", max_new_tokens=8, num_prompts=2)
    columns, rows = sweep(base, {"lambda": ["0.0", "1.01"], "seed": ["0", "1"]})
    assert columns[:2] == ["lambda", "seed"]
    # a grid key that is also a metric column is written once
    assert columns[2:] == [c for c in SWEEP_METRIC_COLUMNS if c != "seed"]
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


def _to_csv_row(rec):
    """The per-record formatter the trace writer once used, kept as a
    reference: cells in ``TRACE_COLUMNS`` order, None empty, booleans 1 or 0."""
    taus = ["" if tau is None else str(tau) for tau in (rec.tau_a, rec.tau_m, rec.tau_t)]
    return [rec.run_id, str(rec.round_index), rec.case, *taus, str(rec.emitted_count),
            "1" if rec.proxy_called else "0", "1" if rec.target_called else "0",
            str(rec.round_cost)]


def _trace_bytes(records):
    lines = [TRACE_SCHEMA + "\n", _csv_line(TRACE_COLUMNS)]
    lines += [_csv_line(_to_csv_row(rec)) for rec in records]
    return "".join(lines).encode("utf-8")


_cells = st.text(alphabet=st.sampled_from('a1 ,"\'\r\n\t'), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    width=st.integers(1, 4),
    cells=st.lists(_cells, max_size=24),
    records=st.lists(_records(), max_size=4),
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
    assert path.read_bytes() == _trace_bytes(records)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_records(), min_size=1, max_size=5), data=st.data())
def test_trace_bytes_are_the_per_record_formatters(records, data, tmp_path):
    """The writer formats each distinct row tail once per file; the bytes
    must still be the per-record formatter's. Repeats of a tail come under
    other run ids and indices, and at a cost of 0.0 or -0.0, which compare
    equal and print apart; a read-back cannot tell those two apart."""
    repeats = data.draw(st.lists(st.tuples(
        st.sampled_from(records), st.sampled_from(["", "other", 'a,"b"']), st.integers(0, 10**6),
        st.sampled_from([None, 0.0, -0.0]),
    ), max_size=8), label="repeats")
    records = records + [
        replace(rec, run_id=run_id, round_index=index, round_cost=rec.round_cost if cost is None else cost)
        for rec, run_id, index, cost in repeats
    ]
    records = data.draw(st.permutations(records), label="order")
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    assert path.read_bytes() == _trace_bytes(records)


def test_trace_tails_that_compare_equal_but_print_apart_are_each_written_as_they_print(tmp_path):
    base = TraceRecord("r", 0, "ProxyOnly", 1, 3, None, 2, True, False, 0.0)
    records = [replace(base, round_index=i, **change) for i, change in enumerate([
        {}, {"round_cost": -0.0}, {}, {"round_cost": 0}, {"round_cost": False},
        {"round_cost": 1.0}, {"round_cost": 1}, {"round_cost": True},
        {"tau_a": 1.0}, {"tau_a": True}, {"emitted_count": 2.0}, {"tau_t": 0}, {"tau_t": False},
        {"proxy_called": 1}, {"target_called": 0.0}, {"round_cost": -0.0},
    ])]
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    assert path.read_bytes() == _trace_bytes(records)
    lines = path.read_text().splitlines()[2:]
    assert [line.rsplit(",", 1)[1] for line in lines[:8]] == [
        "0.0", "-0.0", "0.0", "0", "False", "1.0", "1", "True"]


@pytest.mark.parametrize("run_id", ["", '"', ",", "\r", "\n", 'a "b", c\r\nd'])
def test_trace_text_cells_are_quoted_as_the_csv_module_quotes_them(run_id, tmp_path):
    records = [TraceRecord(run_id, i, case, None, None, None, 1, False, True, 90.0)
               for i, case in enumerate(["TargetOnly", "TargetOnly"])]
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    assert path.read_bytes() == _trace_bytes(records)
    assert read_trace_csv(path) == records
    odd = [replace(records[0], case="Relax:a,b"), replace(records[1], case="")]  # no run writes these
    write_trace_csv(odd, path)
    assert path.read_bytes() == _trace_bytes(odd)


def test_sweep_rejects_bad_grids():
    base = ExperimentConfig()
    with pytest.raises(ConfigError):
        sweep(base, {})
    with pytest.raises(ConfigError):
        sweep(base, {"beam": ["1"]})
    with pytest.raises(ConfigError):
        sweep(base, {"k": []})
    # a library caller may still name one config key under both spellings
    with pytest.raises(ConfigError, match="sweep keys 'lambda' and 'lam' name one config key"):
        sweep(base, {"lambda": ["0.5"], "lam": ["1.01"]})
