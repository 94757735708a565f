"""Oracle behavior: table lookup, n-gram training/backoff, mixtures, JSON."""

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
    derive_proxy,
    load_oracle,
    save_oracle,
    train_ngram,
)

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


def test_ngram_counts_must_cover_all_orders():
    with pytest.raises(ValueError):
        NgramModel(AB, NGramSpec(order=2), {1: {(): {0: 1}}})  # order 2 missing


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
    block = model.batch_score(ctx, drafted)
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
    """A pass's block, or LookupError where a table without a default has
    no row for the context."""
    try:
        return score(*args)
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
# window states: every pass against the generic per-context ``_dist``
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


def _backoff_row(oracle, ctx):
    """An n-gram row by the backoff loop the oracle ran per context before
    it had states (a mixture mixes its base's); other oracles' ``_dist``."""
    if isinstance(oracle, MixtureProxy):
        eps = oracle.deriv.epsilon
        return (1.0 - eps) * _backoff_row(oracle.base, ctx) + eps * oracle.noise
    if not isinstance(oracle, NgramModel):
        return oracle._dist(ctx)
    for j in range(oracle.order, 0, -1):
        if len(ctx) >= j - 1:
            key = ctx[len(ctx) - (j - 1) :] if j > 1 else ()
            if key in oracle._counts[j]:
                return oracle._smoothed(key, j)
    raise AssertionError("no unigram row")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle=_state_oracles(), data=st.data())
def test_every_pass_equals_the_dist_of_each_untrimmed_context(oracle, data):
    def row(ctx):
        want = oracle._dist(ctx)
        assert np.array_equal(want, _backoff_row(oracle, ctx))
        return want

    # ids outside the vocabulary too: a state steps on them as _dist reads them
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
            block = who.batch_score(ctx, drafted)
            want = [row(ctx + drafted[:i]) for i in range(len(drafted) + 1)]
            assert block.dtype == np.float64 and not block.flags.writeable
            assert np.array_equal(block, np.array(want))
        else:
            paths = data.draw(
                st.lists(st.lists(token, max_size=6).map(tuple), min_size=1, max_size=6),
                label="paths",
            )
            rows = who.batch_score_paths(ctx, paths)
            assert not rows.flags.writeable
            assert np.array_equal(rows, np.array([row(ctx + p) for p in paths]))
        assert who.invocation_count == before + 1
    assert scorer.invocation_count + twin.invocation_count == calls
    assert oracle.invocation_count == 0

    states = oracle._states
    assert len(states.keys) == len(states.of_key) <= len(states.table)
    for s, key in enumerate(states.keys):
        assert states.of_key[key] == s and np.array_equal(states.table[s], row(key))
    base = oracle.base if isinstance(oracle, MixtureProxy) else oracle
    if isinstance(base, NgramModel):  # one state per seen context, at most
        assert all(key in base._counts[len(key) + 1] for key in states.keys)


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
            rows = who.batch_score(ctx, data.draw(st.lists(token, max_size=6), label="drafted"))
        else:
            paths = st.lists(st.lists(token, max_size=4).map(tuple), min_size=1, max_size=5)
            rows = who.batch_score_paths(ctx, data.draw(paths, label="paths"))
        assert len(who.walked) == len(rows)
        assert who._states.table[who.walked].tobytes() == rows.tobytes()
        assert who.argmaxes() == rows.argmax(axis=1).tolist()
        assert np.array(who.margins()).tobytes() == top2_margin(rows).tobytes()

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


def test_states_are_filled_on_first_use_and_shared_by_forks():
    model = train_ngram([0, 1, 1, 0, 1, 1, 0], NGramSpec(order=3), AB)
    assert not model._states.keys  # nothing is compiled up front
    twin = model.fork()
    twin.batch_score((0, 0, 0), [1, 1])
    # the context (0, 0) was never seen: the tail backs off to (0,)
    assert model._states.keys == [(0,), (0, 1), (1, 1)]
    assert model._states.step[0][1] == 1 and model._states.step[1][1] == 2
    assert 0 not in model._states.step[0]  # never asked for
    assert model.invocation_count == 0 and twin.invocation_count == 1
    model.next_dist((1, 1))
    assert len(model._states.keys) == 3  # a hit from the other fork


def test_a_broken_mixture_row_raises_and_adds_no_state():
    base = TableModel(
        Vocabulary(2), {(1,): Distribution([0.2, 0.8])}, default=Distribution([0.5, 0.5])
    )
    mix = MixtureProxy(base, ProxyDerivation(0.5), np.array([0.5, 0.5]))
    ok = mix.batch_score((0,), ())
    mix.noise = np.array([0.9, 0.9])  # new rows sum to 1.4
    with pytest.raises(ValueError, match="sums to"):
        mix.batch_score((0,), (1,))
    assert mix._states.keys == [(0,)] and not mix._states.step[0]
    assert np.array_equal(mix.batch_score((0,), ()), ok)  # a known state still reads


def test_ngram_counts_must_be_prefix_closed():
    counts = {1: {(): {0: 2, 1: 1}}, 2: {(0,): {1: 1}}, 3: {(1, 0): {1: 1}}}
    with pytest.raises(ValueError, match="order-3 contexts are not prefix-closed"):
        NgramModel(AB, NGramSpec(order=3), counts)
    counts[2][(1,)] = {0: 1}
    assert NgramModel(AB, NGramSpec(order=3), counts).next_dist((1, 0))[1] > 0.5
