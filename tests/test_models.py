"""Oracle behavior: table lookup, n-gram training/backoff, mixtures, JSON."""

import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec.core import Distribution, Vocabulary, top2_margin
from trispec.models import (
    CorpusTooShortError,
    MixtureProxy,
    NGramSpec,
    NgramModel,
    PassMeter,
    ProxyDerivation,
    TableModel,
    Walk,
    derive_proxy,
    load_oracle,
    save_oracle,
    train_ngram,
    train_ngrams,
)
from trispec.models import _oracle_payload

AB = Vocabulary(2, ("a", "b"))
ABAB = [0, 1, 0, 1]  # "abab"


def test_table_model_longest_suffix_wins():
    rows = {
        (1,): Distribution([0.9, 0.1]),
        (0, 1): Distribution([0.1, 0.9]),
    }
    model = TableModel(Vocabulary(2), rows, default=Distribution([0.5, 0.5]))
    assert model.next_dist((0, 1))[1] == 0.9  # two-token suffix beats one
    assert model.next_dist((1, 1))[0] == 0.9  # falls back to (1,)
    assert model.next_dist((0,))[0] == 0.5  # default row


def test_table_model_missing_default_raises():
    model = TableModel(Vocabulary(2), {(1,): Distribution([1.0, 0.0])})
    with pytest.raises(LookupError):
        model.next_dist((0,))
    # a batched pass copies no rows, yet still refuses a state without one;
    # over such states a tree pass walks at once, so it raises at the pass
    with pytest.raises(LookupError):
        model.batch_score((1,), (1, 0))
    walked = model.walked
    with pytest.raises(LookupError):
        model.batch_score_paths((1,), [(), (0,)])
    assert model.invocation_count == 3 and model.walked is walked
    assert model.batch_score((1,), (1,)).rows.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert model.batch_score_paths((0,), []).ids == []


def test_table_model_rejects_wrong_row_size():
    with pytest.raises(ValueError):
        TableModel(Vocabulary(3), {(0,): Distribution([0.5, 0.5])})
    with pytest.raises(ValueError):
        TableModel(Vocabulary(3), {}, default=Distribution([0.5, 0.5]))


def test_ngram_unsmoothed_relative_frequencies():
    model = train_ngram(ABAB, NGramSpec(order=2, alpha=0.0), AB)
    # bigrams: a->b twice, b->a once; alpha=0 keeps pure frequencies
    assert model.next_dist((0,)).tolist() == [0.0, 1.0]
    assert model.next_dist((1,)).tolist() == [1.0, 0.0]


def test_ngram_additive_smoothing():
    model = train_ngram(ABAB, NGramSpec(order=2, alpha=1.0), AB)
    # P(b|a) = (2 + 1) / (2 + 1*2) = 0.75
    assert model.next_dist((0,))[1] == pytest.approx(0.75)
    assert model.next_dist((0,))[0] == pytest.approx(0.25)


def test_ngram_backoff_to_shorter_order():
    model = train_ngram(ABAB, NGramSpec(order=3, alpha=0.0), AB)
    # (a, b) was seen as a trigram context; (b, b) never was and must fall
    # back to the bigram row for (b,)
    assert model.next_dist((0, 1)).tolist() == [1.0, 0.0]
    assert model.next_dist((1, 1)).tolist() == [1.0, 0.0]


def test_ngram_empty_context_hits_unigram():
    model = train_ngram(ABAB, NGramSpec(order=2, alpha=0.0), AB)
    assert model.next_dist(()).tolist() == [0.5, 0.5]
    assert model.unigram().tolist() == [0.5, 0.5]


def test_ngram_uses_only_last_order_minus_one_tokens():
    model = train_ngram(ABAB, NGramSpec(order=2, alpha=0.5), AB)
    long_ctx = model.next_dist((1, 1, 1, 0))
    short_ctx = model.next_dist((0,))
    assert np.array_equal(long_ctx, short_ctx)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf"), -0.1])
def test_ngram_spec_refuses_a_non_finite_or_negative_alpha(alpha):
    with pytest.raises(ValueError, match="finite and >= 0"):
        NGramSpec(2, alpha=alpha)


def test_train_ngram_errors():
    with pytest.raises(CorpusTooShortError):
        train_ngram([0, 1], NGramSpec(order=3), AB)
    with pytest.raises(ValueError):
        train_ngram([0, 5, 1], NGramSpec(order=2), AB)  # token 5 out of vocab
    with pytest.raises(ValueError):
        train_ngram([0, -1, 1], NGramSpec(order=2), AB)
    with pytest.raises(ValueError):
        train_ngram([0, 2**70, 1], NGramSpec(order=2), AB)
    with pytest.raises(ValueError):
        NGramSpec(order=0)
    with pytest.raises(ValueError):
        NGramSpec(order=2, alpha=-0.1)


def _reference_counts(corpus, order):
    """The original position-by-position counting loop, kept as an oracle."""
    tokens = tuple(int(t) for t in corpus)
    counts = {}
    for j in range(1, order + 1):
        table = {}
        for i in range(len(tokens) - j + 1):
            row = table.setdefault(tokens[i : i + j - 1], {})
            nxt = tokens[i + j - 1]
            row[nxt] = row.get(nxt, 0) + 1
        counts[j] = table
    return counts


def _reference_fingerprint(corpus, order, alpha):
    header = f"ngram|order={order}|alpha={alpha!r}|n={len(corpus)}|".encode()
    return hashlib.sha256(header + np.asarray(corpus, dtype=np.uint32).tobytes()).hexdigest()


@st.composite
def _corpora(draw):
    """Corpora over V 2-300, often skewed to a few tokens so that long
    contexts repeat, with orders up to 8 and up to the corpus length."""
    size = draw(st.integers(2, 300))
    common = draw(st.integers(1, size))
    token = st.one_of(st.integers(0, common - 1), st.integers(0, size - 1))
    corpus = draw(st.lists(token, min_size=1, max_size=400))
    order = draw(st.integers(1, min(8, len(corpus))))
    return size, corpus, order


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_corpora())
def test_train_ngram_matches_the_counting_loop(case):
    size, corpus, order = case
    model = train_ngram(corpus, NGramSpec(order=order, alpha=0.1), Vocabulary(size))
    want = _reference_counts(corpus, order)
    assert model._counts == want
    for table in model._counts.values():  # plain ints, as the JSON file needs
        assert all(type(t) is int and type(c) is int for row in table.values() for t, c in row.items())
    assert model.spec.fingerprint == _reference_fingerprint(corpus, order, 0.1)


def test_train_ngram_matches_the_counting_loop_on_the_bundled_corpus(ref_family):
    train = ref_family.train_tokens
    for order in (1, 4, 6):
        model = train_ngram(train, NGramSpec(order=order), ref_family.vocab)
        assert model._counts == _reference_counts(train, order)
        assert model.spec.fingerprint == _reference_fingerprint(train, order, 0.1)


def _assert_trained_alone(together, corpus, orders, alpha, vocab):
    """Each model of ``train_ngrams`` is the model ``train_ngram`` trains
    alone at its order, byte for byte, and its own object over tables shared
    with the highest order's model."""
    assert [model.order for model in together] == list(orders)
    assert len({id(model) for model in together}) == len(orders)
    assert len({id(model._states) for model in together}) == len(orders)
    top = next(model for model in together if model.order == max(orders))
    for model in together:
        alone = train_ngram(corpus, NGramSpec(model.order, alpha), vocab)
        assert model.spec == alone.spec  # the fingerprint included
        assert model._counts == alone._counts
        assert [list(t) for t in model._counts.values()] == [list(t) for t in alone._counts.values()]
        assert all(model._counts[j] is top._counts[j] for j in model._counts)
        assert model._states.keys == alone._states.keys
        assert model._states.step == alone._states.step
        assert model._states.table.tobytes() == alone._states.table.tobytes()
        assert json.dumps(_oracle_payload(model), sort_keys=True) == json.dumps(
            _oracle_payload(alone), sort_keys=True)


@pytest.mark.parametrize("orders", [(2, 3, 4), (4, 3, 2), (2, 2, 2), (1, 1, 1), (4, 2, 4)])
def test_ngrams_trained_together_equal_ngrams_trained_alone(orders, ref_family, tmp_path):
    corpus, vocab = ref_family.train_tokens, ref_family.vocab
    together = train_ngrams(corpus, orders, 0.1, vocab)
    _assert_trained_alone(together, corpus, orders, 0.1, vocab)
    for i, model in enumerate(together):  # and saves the same file
        save_oracle(model, tmp_path / f"together{i}.json")
        save_oracle(train_ngram(corpus, NGramSpec(model.order), vocab), tmp_path / f"alone{i}.json")
        assert (tmp_path / f"together{i}.json").read_bytes() == (tmp_path / f"alone{i}.json").read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_corpora(), data=st.data())
def test_ngrams_trained_together_equal_ngrams_trained_alone_on_any_corpus(case, data):
    size, corpus, order = case
    orders = data.draw(st.lists(st.integers(1, order), min_size=1, max_size=4))
    alpha = data.draw(st.sampled_from([0.0, 0.1, 1.0]))
    together = train_ngrams(corpus, orders, alpha, Vocabulary(size))
    _assert_trained_alone(together, corpus, orders, alpha, Vocabulary(size))


def test_ngrams_trained_together_refuse_an_order_the_corpus_cannot_train():
    with pytest.raises(CorpusTooShortError):
        train_ngrams(ABAB, (2, 5), 0.1, AB)


def test_ngram_counts_must_cover_all_orders():
    with pytest.raises(ValueError):
        NgramModel(AB, NGramSpec(order=2), {1: {(): {0: 1}}})  # order 2 missing
    with pytest.raises(ValueError, match="no unigram row"):
        NgramModel(AB, NGramSpec(order=2), {1: {}, 2: {}})


@pytest.mark.parametrize("row", [{}, {0: 2, 1: 0}, {0: 3, 1: -1}])
def test_ngram_counts_must_be_positive(row):
    """Loaded counts are checked where they enter, not row by row later: an
    empty or non-positive count row could smooth to no law at alpha 0."""
    with pytest.raises(ValueError, match="counts must be positive"):
        NgramModel(AB, NGramSpec(order=2, alpha=0.0), {1: {(): {0: 2, 1: 1}}, 2: {(0,): row}})


def test_fingerprint_stamped_and_stable():
    a = train_ngram(ABAB, NGramSpec(order=2, alpha=0.1), AB)
    b = train_ngram(ABAB, NGramSpec(order=2, alpha=0.1), AB)
    c = train_ngram(ABAB + [0], NGramSpec(order=2, alpha=0.1), AB)
    assert a.spec.fingerprint == b.spec.fingerprint
    assert a.spec.fingerprint != c.spec.fingerprint


def test_invocation_counting():
    model = train_ngram(ABAB, NGramSpec(order=2), AB)
    assert model.invocation_count == 0
    model.next_dist((0,))
    assert model.invocation_count == 1
    model.batch_score((0,), [1, 0, 1])  # batched scoring is one pass
    assert model.invocation_count == 2
    model.batch_score_paths((0,), [(1,), (1, 0)])
    assert model.invocation_count == 3


def test_pass_meter_counts_per_role_from_its_start():
    drafter = train_ngram(ABAB, NGramSpec(order=2), AB)
    target = drafter.fork()
    drafter.next_dist((0,))  # before the meter starts: not counted
    meter = PassMeter(drafter, target=target)
    drafter.next_dist((0,))
    drafter.next_dist((1,))
    target.batch_score((0,), [1, 0])
    assert meter.passes() == (2, 0, 1)  # no proxy was given, so it reads 0


def test_fork_shares_tables_but_not_counter():
    model = train_ngram(ABAB, NGramSpec(order=2), AB)
    model.next_dist((0,))
    twin = model.fork()
    assert twin.invocation_count == 0
    twin.next_dist((1,))
    assert model.invocation_count == 1
    assert np.array_equal(twin.next_dist((0,)), model.next_dist((0,)))


def test_batch_score_matches_next_dist():
    model = train_ngram(ABAB, NGramSpec(order=2, alpha=0.3), AB)
    probe = model.fork()
    ctx, drafted = (1, 0), [1, 0, 0]
    block = model.batch_score(ctx, drafted).rows
    assert block.shape == (len(drafted) + 1, 2)
    for i, row in enumerate(block):
        expect = probe.next_dist(ctx + tuple(drafted[:i]))
        assert np.array_equal(row, expect)


def test_mixture_arithmetic():
    base = TableModel(Vocabulary(2), {}, default=Distribution([0.8, 0.2]))
    noise = np.array([0.5, 0.5])
    proxy = MixtureProxy(base, ProxyDerivation(0.3, "uniform"), noise)
    got = proxy.next_dist((0,))
    assert np.allclose(got, [0.7 * 0.8 + 0.3 * 0.5, 0.7 * 0.2 + 0.3 * 0.5], atol=1e-12)


def test_mixture_does_not_bump_base_counter():
    base = TableModel(Vocabulary(2), {}, default=Distribution([0.8, 0.2]))
    proxy = MixtureProxy(base, ProxyDerivation(0.5, "uniform"), np.array([0.5, 0.5]))
    proxy.next_dist(())
    proxy.batch_score((), [0, 1])
    assert proxy.invocation_count == 2
    assert base.invocation_count == 0


def test_mixture_rejects_wrong_noise_size():
    base = TableModel(Vocabulary(3), {}, default=Distribution([0.5, 0.3, 0.2]))
    with pytest.raises(ValueError):
        MixtureProxy(base, ProxyDerivation(0.2, "uniform"), np.array([0.5, 0.5]))


def test_proxy_derivation_bounds():
    with pytest.raises(ValueError):
        ProxyDerivation(-0.1)
    with pytest.raises(ValueError):
        ProxyDerivation(1.1)
    with pytest.raises(ValueError):
        ProxyDerivation(0.5, "gaussian")


def test_derive_proxy_uniform_noise():
    base = train_ngram(ABAB, NGramSpec(order=2), AB)
    proxy = derive_proxy(base, ProxyDerivation(1.0, "uniform"))
    assert np.allclose(proxy.next_dist((0,)), [0.5, 0.5])


def test_derive_proxy_endpoints():
    base = train_ngram(ABAB, NGramSpec(order=2, alpha=0.2), AB)
    exact = derive_proxy(base, ProxyDerivation(0.0, "unigram"))
    pure = derive_proxy(base, ProxyDerivation(1.0, "unigram"))
    for ctx in ((0,), (1,), ()):
        assert np.allclose(exact.next_dist(ctx), base.fork().next_dist(ctx))
        assert np.allclose(pure.next_dist(ctx), base.unigram())


def test_derive_proxy_unigram_needs_ngram_target():
    table = TableModel(Vocabulary(2), {}, default=Distribution([0.5, 0.5]))
    with pytest.raises(ValueError):
        derive_proxy(table, ProxyDerivation(0.3, "unigram"))


def test_mixture_agreement_degrades_with_epsilon(ref_family):
    """More noise, fewer argmax agreements with the clean target."""
    target = ref_family.target
    toks = ref_family.train_tokens
    ctxs = [tuple(toks[i : i + 8]) for i in range(0, 20000, 10)]
    assert len(ctxs) == 2000
    agree = {}
    for eps in (0.0, 0.3, 0.9):
        proxy = derive_proxy(target, ProxyDerivation(eps, "unigram")).fork()
        probe = target.fork()
        agree[eps] = sum(
            1 for c in ctxs if proxy.next_dist(c).argmax() == probe.next_dist(c).argmax()
        )
    assert agree[0.0] == 2000
    assert agree[0.3] == 1958  # noise at this level only flips near ties
    assert agree[0.9] == 1218


def test_save_load_round_trip_ngram(tmp_path):
    model = train_ngram(ABAB, NGramSpec(order=3, alpha=0.25), AB)
    path = tmp_path / "m.json"
    save_oracle(model, path)
    loaded = load_oracle(path)
    assert isinstance(loaded, NgramModel)
    assert loaded.spec == model.spec
    assert loaded.vocab.symbols == ("a", "b")
    for ctx in ((), (0,), (0, 1), (1, 1)):
        assert np.array_equal(loaded.next_dist(ctx), model.fork().next_dist(ctx))


def test_save_load_round_trip_table(tmp_path):
    model = TableModel(
        Vocabulary(2),
        {(0,): Distribution([0.25, 0.75])},
        default=Distribution([0.5, 0.5]),
    )
    path = tmp_path / "t.json"
    save_oracle(model, path)
    loaded = load_oracle(path)
    assert isinstance(loaded, TableModel)
    assert loaded.next_dist((0,))[1] == 0.75
    assert loaded.next_dist((1,))[1] == 0.5


def test_save_load_round_trip_mixture(tmp_path):
    base = train_ngram(ABAB, NGramSpec(order=2, alpha=0.1), AB)
    proxy = derive_proxy(base, ProxyDerivation(0.3, "unigram"))
    path = tmp_path / "p.json"
    save_oracle(proxy, path)
    loaded = load_oracle(path)
    assert isinstance(loaded, MixtureProxy)
    assert loaded.deriv == proxy.deriv
    assert np.allclose(loaded.next_dist((0,)), proxy.fork().next_dist((0,)))


def test_save_is_byte_deterministic(tmp_path):
    model = train_ngram(ABAB, NGramSpec(order=2, alpha=0.1), AB)
    save_oracle(model, tmp_path / "a.json")
    save_oracle(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@st.composite
def _saved_oracles(draw):
    """A table (V 2-6, rows from integer weights with ties and zeros, with
    or without a default), an n-gram of order 1-4 with alpha 0 or not, or a
    mixture over an n-gram with unigram or uniform noise."""
    size = draw(st.integers(2, 6))
    vocab = Vocabulary(size)
    token = st.integers(0, size - 1)
    kind = draw(st.sampled_from(["table", "ngram", "mixture"]))
    if kind == "table":
        row = st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any).map(
            lambda w: Distribution(np.array(w, float) / sum(w))
        )
        keys = draw(st.lists(st.lists(token, max_size=3).map(tuple), max_size=6, unique=True))
        rows = {key: draw(row) for key in keys}
        return TableModel(vocab, rows, default=draw(st.one_of(st.none(), row)))
    corpus = draw(st.lists(token, min_size=4, max_size=40))
    spec = NGramSpec(draw(st.integers(1, 4)), draw(st.sampled_from([0.0, 0.1, 0.7])))
    oracle = train_ngram(corpus, spec, vocab)
    if kind == "mixture":
        noise = draw(st.sampled_from(["unigram", "uniform"]))
        oracle = derive_proxy(oracle, ProxyDerivation(draw(st.floats(0.0, 1.0)), noise))
    return oracle


def _scored(score, *args):
    """A pass's rows (a batched pass's walk read as a block), or
    LookupError where a table without a default has no row for the context."""
    try:
        got = score(*args)
        return got.rows if isinstance(got, Walk) else got
    except LookupError:
        return LookupError


@settings(max_examples=200, deadline=None, derandomize=True)
@given(oracle=_saved_oracles(), data=st.data())
def test_model_files_round_trip_bit_for_bit(oracle, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "m.json"
    save_oracle(oracle, path)
    saved = path.read_bytes()
    loaded = load_oracle(path)
    save_oracle(loaded, path)
    assert path.read_bytes() == saved

    tokens = st.integers(0, oracle.vocab_size - 1)
    ctx = tuple(data.draw(st.lists(tokens, max_size=6), label="ctx"))
    drafted = tuple(data.draw(st.lists(tokens, max_size=5), label="drafted"))
    paths = data.draw(st.lists(st.lists(tokens, max_size=4).map(tuple), min_size=1, max_size=4),
                      label="paths")
    for method, args in (("next_dist", (ctx,)), ("batch_score", (ctx, drafted)),
                         ("batch_score_paths", (ctx, paths))):
        want = _scored(getattr(oracle.fork(), method), *args)
        got = _scored(getattr(loaded.fork(), method), *args)
        if want is LookupError:
            assert got is LookupError
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), method


def test_load_rejects_foreign_and_versioned_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else", "version": 1, "model": {}}))
    with pytest.raises(ValueError):
        load_oracle(bad)
    future = tmp_path / "future.json"
    future.write_text(json.dumps({"format": "trispec-model", "version": 99, "model": {}}))
    with pytest.raises(ValueError):
        load_oracle(future)


# ---------------------------------------------------------------------------
# window states: every pass against per-context reference rows
# ---------------------------------------------------------------------------


@st.composite
def _state_oracles(draw):
    """A table (keys of any length, not prefix-closed), an n-gram of order
    1-5 with alpha 0 or not, or a mixture over either."""
    size = draw(st.integers(2, 5))
    vocab = Vocabulary(size)
    token = st.integers(0, size - 1)
    row = st.lists(st.integers(0, 5), min_size=size, max_size=size).filter(any).map(
        lambda w: Distribution(np.array(w, float) / sum(w))
    )
    kind = draw(st.sampled_from(["table", "ngram", "mixture-table", "mixture-ngram"]))
    if kind.endswith("table"):
        keys = draw(st.lists(st.lists(token, max_size=4).map(tuple), max_size=8, unique=True))
        oracle = TableModel(vocab, {key: draw(row) for key in keys}, default=draw(row))
    else:
        corpus = draw(st.lists(token, min_size=5, max_size=60))
        spec = NGramSpec(draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 0.1, 1.0])))
        oracle = train_ngram(corpus, spec, vocab)
    if kind.startswith("mixture"):
        noise = draw(row).probs
        oracle = MixtureProxy(oracle, ProxyDerivation(draw(st.floats(0.0, 1.0))), noise)
    return oracle


def _smoothed_row(model, key):
    """The additive-smoothed row of a seen context, token by token."""
    table = model._counts[len(key) + 1][key]
    alpha, size = model.spec.alpha, model.vocab_size
    weights = np.full(size, alpha, dtype=np.float64)
    for token, count in table.items():
        weights[token] += count
    return weights / (sum(table.values()) + alpha * size)


def _backoff_row(oracle, ctx):
    """The row after ``ctx`` by per-context lookups: an n-gram's backoff
    loop, a table's longest matching suffix, a mixture of its base's."""
    if isinstance(oracle, MixtureProxy):
        eps = oracle.deriv.epsilon
        return (1.0 - eps) * _backoff_row(oracle.base, ctx) + eps * oracle.noise
    if isinstance(oracle, TableModel):
        for n in range(min(oracle.window, len(ctx)), -1, -1):
            row = oracle.rows.get(ctx[len(ctx) - n :])
            if row is not None:
                return row
        return oracle.default
    for j in range(oracle.order, 0, -1):
        if len(ctx) >= j - 1:
            key = ctx[len(ctx) - (j - 1) :] if j > 1 else ()
            if key in oracle._counts[j]:
                return _smoothed_row(oracle, key)
    raise AssertionError("no unigram row")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle=_state_oracles(), data=st.data())
def test_every_pass_equals_the_dist_of_each_untrimmed_context(oracle, data):
    row = functools.partial(_backoff_row, oracle)
    # ids outside the vocabulary too: they step to the root, as no key holds one
    token = st.integers(-1, oracle.vocab_size)
    window = oracle.window
    scorer, twin = oracle.fork(), oracle.fork()
    assert scorer._states is oracle._states is twin._states
    calls = data.draw(st.integers(1, 12), label="calls")
    for call in range(calls):
        # contexts shorter and longer than the window, from whichever fork
        ctx = tuple(data.draw(st.lists(token, max_size=window + 3), label="ctx"))
        kind = data.draw(st.sampled_from(["next_dist", "batch_score", "batch_score_paths"]))
        who = data.draw(st.sampled_from([scorer, twin]), label="fork")
        before = who.invocation_count
        if kind == "next_dist":
            got = who.next_dist(ctx)
            assert np.array_equal(got, row(ctx))
        elif kind == "batch_score":
            drafted = tuple(data.draw(st.lists(token, max_size=7), label="drafted"))
            block = who.batch_score(ctx, drafted).rows
            want = [row(ctx + drafted[:i]) for i in range(len(drafted) + 1)]
            assert block.dtype == np.float64 and not block.flags.writeable
            assert np.array_equal(block, np.array(want))
        else:
            paths = data.draw(
                st.lists(st.lists(token, max_size=6).map(tuple), min_size=1, max_size=6),
                label="paths",
            )
            rows = who.batch_score_paths(ctx, paths).rows
            assert not rows.flags.writeable
            assert np.array_equal(rows, np.array([row(ctx + p) for p in paths]))
        assert who.invocation_count == before + 1
    assert scorer.invocation_count + twin.invocation_count == calls
    assert oracle.invocation_count == 0

    states = oracle._states
    assert len(states.keys) == len(states.step) == len(states.table)  # every row is set
    for s, key in enumerate(states.keys):
        assert np.array_equal(states.table[s], row(key))
    base = oracle.base if isinstance(oracle, MixtureProxy) else oracle
    if isinstance(base, NgramModel):  # one state per seen context
        assert sorted(states.keys) == sorted(k for table in base._counts.values() for k in table)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle=_state_oracles(), data=st.data())
def test_states_keep_their_rows_argmax_and_margin_and_passes_record_their_states(oracle, data):
    """Greedy decisions read ``best`` and ``margin`` of the states a pass
    walked instead of its rows, so both must be the rows' own answers, bit
    for bit, and ``walked`` must index exactly the rows the pass returned."""
    token = st.integers(0, oracle.vocab_size - 1)
    scorer, twin = oracle.fork(), oracle.fork()
    for _ in range(data.draw(st.integers(1, 8), label="calls")):
        ctx = tuple(data.draw(st.lists(token, max_size=oracle.window + 2), label="ctx"))
        kind = data.draw(st.sampled_from(["next_dist", "batch_score", "batch_score_paths"]))
        who = data.draw(st.sampled_from([scorer, twin]), label="fork")
        if kind == "next_dist":
            rows = who.next_dist(ctx)[None]
        elif kind == "batch_score":
            drafted = data.draw(st.lists(token, max_size=6), label="drafted")
            rows = who.batch_score(ctx, drafted).rows
        else:
            paths = st.lists(st.lists(token, max_size=4).map(tuple), min_size=1, max_size=5)
            rows = who.batch_score_paths(ctx, data.draw(paths, label="paths")).rows
        assert len(who.walked) == len(rows)
        assert who._states.table[who.walked].tobytes() == rows.tobytes()
        assert who.walk().argmaxes == rows.argmax(axis=1).tolist()
        assert np.array(who.walk().margins).tobytes() == top2_margin(rows).tobytes()

    states = oracle._states
    assert scorer._states is twin._states is states  # forks share the values
    table = states.table[: len(states.keys)]
    assert states.best == table.argmax(axis=1).tolist()
    assert np.array(states.margin).tobytes() == top2_margin(table).tobytes()
    assert [type(b) for b in states.best] == [int] * len(table)

    fresh = oracle.fork()  # a fork made later walks the same states
    fresh.batch_score(ctx, ())
    twin.batch_score(ctx, ())
    assert fresh.walked == twin.walked and len(states.keys) == len(table)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle=_state_oracles(), data=st.data())
def test_a_tree_pass_walks_its_paths_on_the_first_read(oracle, data):
    """A tree pass is counted and enters its context when it is made, and
    walks its paths when its walk's ``ids`` are first read: each path's
    state is the one stepped over the path from ``_enter(ctx)``, an id
    outside the vocabulary stepping to the root, the empty path's the
    entered state. Later reads, and ``walked``, hand out the same list;
    ``walked`` read first walks a pass nobody read."""
    size = oracle.vocab_size
    token = st.integers(-1, size)  # -1 and ``size`` lie outside the vocabulary
    ctx = data.draw(st.lists(token, max_size=oracle.window + 3), label="ctx")
    paths = [()] + data.draw(st.lists(st.lists(token, max_size=4).map(tuple), max_size=5),
                             label="paths")
    step, root = oracle._states.step, oracle._states.root

    def stepped(path):
        s = oracle._enter(ctx)
        for t in path:
            s = step[s][t] if 0 <= t < size else root
        return s

    want = [stepped(path) for path in paths]
    scorer = oracle.fork()
    walk = scorer.batch_score_paths(ctx, paths)
    assert scorer.invocation_count == 1
    again = scorer.fork().batch_score_paths(tuple(ctx), tuple(paths))
    ctx.clear()  # the pass holds neither the context nor the caller's list of paths
    paths.clear()
    ids = walk.ids
    assert ids == want and walk.ids is ids
    assert scorer.walked is ids and scorer.walked is ids  # filled from the walk, then kept
    assert walk.states is oracle._states and scorer.walk() == walk

    twin = scorer.fork()
    unread = twin.batch_score_paths((), [(-1,), ()])
    assert twin.walked == [root, root] and unread.ids is twin.walked
    assert again.ids == want


def test_a_broken_mixture_row_raises_and_adds_no_state():
    """The mixed table is checked whole when the proxy is built."""
    base = TableModel(
        Vocabulary(2), {(1,): Distribution([0.2, 0.8])}, default=Distribution([0.5, 0.5])
    )
    with pytest.raises(ValueError, match="sums to"):
        MixtureProxy(base, ProxyDerivation(0.5), np.array([0.9, 0.9]))  # rows sum to 1.4
    assert base.batch_score((0,), (1,)).rows.tolist() == [[0.5, 0.5], [0.2, 0.8]]


def _longest_suffix_in(trie, string):
    return next(string[i:] for i in range(len(string) + 1) if string[i:] in trie)


@pytest.mark.parametrize("role, size", [("drafter", 30), ("proxy", 187), ("target", 603),
                                        ("mixture", 603)])
def test_the_automaton_of_each_default_oracle_is_exact(ref_family, perturbed_family, role, size):
    """Every transition, every row and the steps on ids outside the
    vocabulary of the bundled family's oracles, the mixture proxy too."""
    oracle = perturbed_family.proxy if role == "mixture" else getattr(ref_family, role)
    base = oracle.base if role == "mixture" else oracle
    states = oracle._states
    if role == "mixture":
        assert states.keys is base._states.keys and states.step is base._states.step
    keys = {key for table in base._counts.values() for key in table}
    trie = {key[:i] for key in keys for i in range(len(key) + 1)}
    assert trie == keys == set(states.keys) and len(states.keys) == size
    assert [len(k) for k in states.keys] == sorted(len(k) for k in keys)  # breadth-first
    index = {key: s for s, key in enumerate(states.keys)}
    root, vocab = index[()], oracle.vocab_size
    assert states.root == root
    for s, key in enumerate(states.keys):
        want = [index[_longest_suffix_in(trie, key + (t,))] for t in range(vocab)]
        assert states.step[s] == want, key
        assert states.table[s].tobytes() == _backoff_row(oracle, key).tobytes(), key
    # every entry that names a state is that state's one int object
    entries = [entry for row in states.step for entry in row]
    assert len(set(map(id, entries))) == len(set(entries))
    assert len(states.table) == size and not states.table.flags.writeable
    scorer = oracle.fork()
    for s, key in enumerate(states.keys):
        for bad in (-1, vocab):
            scorer.batch_score(key, (bad, 0))
            assert scorer.walked == [s, root, states.step[root][0]]
            scorer.batch_score_paths(key + (bad,), [(), (1,)])
            assert scorer.walked == [root, states.step[root][1]]


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_oracles_refuse_token_ids_outside_the_vocabulary(bad):
    v3 = Vocabulary(3)
    cases = [
        {1: {(): {0: 2, bad: 1}}, 2: {(0,): {1: 1}}},  # a next token
        {1: {(): {0: 2, 1: 1}}, 2: {(bad,): {1: 1}}},  # a context
    ]
    for counts in cases:
        with pytest.raises(ValueError, match="outside the vocabulary"):
            NgramModel(v3, NGramSpec(order=2), counts)
    row = Distribution([0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="outside the vocabulary"):
        TableModel(v3, {(0, bad): row}, default=row)


def test_ngram_counts_must_be_prefix_closed():
    counts = {1: {(): {0: 2, 1: 1}}, 2: {(0,): {1: 1}}, 3: {(1, 0): {1: 1}}}
    with pytest.raises(ValueError, match="order-3 contexts are not prefix-closed"):
        NgramModel(AB, NGramSpec(order=3), counts)
    counts[2][(1,)] = {0: 1}
    assert NgramModel(AB, NGramSpec(order=3), counts).next_dist((1, 0))[1] > 0.5
