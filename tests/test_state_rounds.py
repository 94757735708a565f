"""Sampled rounds read the states their passes walked, against rows.

At T=1 a round draws its draft from the drafter states' CDFs, reads the
acceptance ratio from the two walked states' tables, and draws its
correction from a CDF a state keeps: the bonus from the verifier state's
own, a residual from the one the verifier's states keep for the pair of
states. The reference below reads the blocks the passes return instead,
and draws with ``sample`` and ``residual_dist`` on their rows, as the
rounds once did. Both must emit the same tokens, flip the same coins, make
the same passes and draw the same number of uniforms from every stream,
also after the stores have filled over earlier rounds and decodes.
"""

import gc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec.core import Distribution, Vocabulary, sample, top2_margin
from trispec.models import PassMeter, TableModel
from trispec.router import MarginRule, trispec_round
from trispec.verification import DecodeStreams, residual_dist, sd_round

# ---------------------------------------------------------------------------
# the row-based reference
# ---------------------------------------------------------------------------


def _ref_coins(drafted, rows, tokens, coin_stream):
    """Accept ``tokens`` against the verifier's ``rows`` up to the first
    rejection; the coins and the acceptance length."""
    coins = []
    for i, token in enumerate(tokens):
        ratio = min(1.0, float(rows[i, token]) / float(drafted[i][token]))
        coins.append(1 if coin_stream.uniform() < ratio else 0)
        if not coins[-1]:
            return tuple(coins), i
    return tuple(coins), len(tokens)


def _ref_correction(drafted, rows, tokens, tau, stream):
    """The residual draw after a rejection at ``tau``, else the bonus."""
    if tau < len(tokens):
        return sample(residual_dist(drafted[tau], rows[tau]), stream)
    return sample(rows[tau], stream)


def _ref_draft(drafter, ctx, k, stream):
    tokens, drafted = (), []
    for _ in range(k):
        row = drafter.next_dist(ctx + tokens)
        tokens += (sample(row, stream),)
        drafted.append(row)
    return tokens, drafted


def _ref_trispec_round(drafter, proxy, target, ctx, k, lam, streams, raw_bonus):
    meter = PassMeter(drafter, proxy, target)
    tokens, drafted = _ref_draft(drafter, ctx, k, streams.draft)
    rows = proxy.batch_score(ctx, tokens).rows
    coins, tau_a = _ref_coins(drafted, rows, tokens, streams.proxy_coins)
    margins = top2_margin(rows).tolist()
    tau_m = next((i for i, m in enumerate(margins) if not m >= lam), len(margins))
    if tau_a < tau_m:
        if raw_bonus and tau_a < k:
            token = sample(rows[tau_a], streams.correction)
        else:
            token = _ref_correction(drafted, rows, tokens, tau_a, streams.correction)
        emitted = tokens[:tau_a] + (token,)
    else:
        rest = tokens[tau_m:]
        target_rows = target.batch_score(ctx + tokens[:tau_m], rest).rows
        _, tau = _ref_coins(drafted[tau_m:], target_rows, rest, streams.target_coins)
        token = _ref_correction(drafted[tau_m:], target_rows, rest, tau, streams.correction)
        emitted = tokens[:tau_m] + rest[:tau] + (token,)
    return emitted, coins, meter.passes()


def _ref_sd_round(drafter, verifier, ctx, k, streams, role):
    meter = PassMeter(drafter, **{role: verifier})
    tokens, drafted = _ref_draft(drafter, ctx, k, streams.draft)
    rows = verifier.batch_score(ctx, tokens).rows
    coins, tau = _ref_coins(drafted, rows, tokens, streams.coins_for(role))
    token = _ref_correction(drafted, rows, tokens, tau, streams.correction)
    return tokens[:tau] + (token,), coins, meter.passes()


# ---------------------------------------------------------------------------
# generated families and the comparison
# ---------------------------------------------------------------------------


@st.composite
def _table(draw, vocab):
    """A small table oracle whose rows are full of ties and zero entries."""
    weights = st.lists(st.integers(0, 4), min_size=vocab, max_size=vocab).filter(any)

    def row():
        w = np.array(draw(weights), dtype=float)
        return Distribution(w / w.sum())

    tokens = st.integers(0, vocab - 1)
    keys = draw(st.lists(st.one_of(st.tuples(tokens), st.tuples(tokens, tokens)),
                         max_size=5, unique=True))
    return TableModel(Vocabulary(vocab), {key: row() for key in keys}, default=row())


@st.composite
def _family(draw):
    vocab = draw(st.integers(2, 5))
    prompts = st.lists(st.integers(0, vocab - 1), max_size=3).map(tuple)
    return [draw(_table(vocab)) for _ in range(3)], draw(st.lists(prompts, min_size=2, max_size=3))


def _draws(streams):
    return tuple(s.draws for s in (streams.draft, streams.proxy_coins, streams.target_coins,
                                   streams.correction))


TOKENS = 10  # per decode: enough rounds that states and pairs recur


def _decode_both(oracles, prompts, new_round, ref_round):
    """Decode every prompt with both, in lockstep, on forks of one family:
    the forks share the states, so later decodes read what earlier ones
    stored."""
    new_oracles = [o.fork() for o in oracles]
    ref_oracles = [o.fork() for o in oracles]
    for seed, prompt in enumerate(prompts):
        new_streams = DecodeStreams.from_seed(seed, "state")
        ref_streams = DecodeStreams.from_seed(seed, "state")
        ctx = prompt
        while len(ctx) < len(prompt) + TOKENS:
            got = new_round(*new_oracles, ctx, new_streams)
            emitted, coins, passes = ref_round(*ref_oracles, ctx, ref_streams)
            assert (got.emitted, got.coins, got.passes) == (emitted, coins, passes)
            assert _draws(new_streams) == _draws(ref_streams)
            ctx += got.emitted


_LAMS = st.sampled_from([0.0, -1.0, 0.5, 1.01, 2.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=_family(), k=st.integers(1, 3), lam=_LAMS, raw_bonus=st.booleans())
def test_sampled_trispec_round_reads_states_as_the_rows_would_be_read(family, k, lam, raw_bonus):
    oracles, prompts = family
    rule = MarginRule(lam)
    _decode_both(
        oracles, prompts,
        lambda d, p, t, c, s: trispec_round(d, p, t, c, k, rule, 1.0, s, raw_bonus=raw_bonus),
        lambda d, p, t, c, s: _ref_trispec_round(d, p, t, c, k, lam, s, raw_bonus),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(family=_family(), k=st.integers(1, 3), role=st.sampled_from(["target", "proxy"]))
def test_sampled_sd_round_reads_states_as_the_rows_would_be_read(family, k, role):
    oracles, prompts = family

    def pick(p, t):
        return t if role == "target" else p

    _decode_both(
        oracles, prompts,
        lambda d, p, t, c, s: sd_round(d, pick(p, t), c, k, 1.0, s, role),
        lambda d, p, t, c, s: _ref_sd_round(d, pick(p, t), c, k, s, role),
    )


# ---------------------------------------------------------------------------
# the residual store across rebuilt families
# ---------------------------------------------------------------------------


def _flat_table(rows, default):
    vocab = Vocabulary(len(default))
    return TableModel(vocab, {key: Distribution(r) for key, r in rows.items()}, Distribution(default))


def _family_of(shift):
    """A family whose drafter favours the tokens its verifiers do not, so
    rounds reject, and whose residuals carry mass on two tokens. The
    drafter's rows move with ``shift``, and so do the residuals' CDFs."""
    drafter = _flat_table({(0,): [0.1, 0.1 + shift, 0.4, 0.4 - shift],
                           (1,): [0.2 - shift, 0.1, 0.3 + shift, 0.4]},
                          [0.1 + shift, 0.1, 0.4 - shift, 0.4])
    proxy = _flat_table({(2,): [0.3, 0.35, 0.2, 0.15]}, [0.5, 0.2, 0.2, 0.1])
    target = _flat_table({(3,): [0.2, 0.5, 0.2, 0.1]}, [0.35, 0.35, 0.2, 0.1])
    return [drafter, proxy, target]


def _decode_family(oracles):
    rule = MarginRule(0.25)  # some rounds stay with the proxy, some escalate
    _decode_both(
        oracles, [(0,), (1, 2), (), (2,), (3,), (0, 3)],
        lambda d, p, t, c, s: trispec_round(d, p, t, c, 3, rule, 1.0, s),
        lambda d, p, t, c, s: _ref_trispec_round(d, p, t, c, 3, 0.25, s, False),
    )


def test_a_rebuilt_family_never_reads_the_residuals_of_a_collected_one():
    first = _family_of(0.0)
    _decode_family(first)
    assert first[2]._states.residuals  # the first family's rejections were kept
    del first
    gc.collect()
    for shift in (0.05, 0.0, 0.1):  # new states, where the collected ones lived
        rebuilt = _family_of(shift)
        for verifier in rebuilt[1:]:
            assert verifier._states.residuals == {}
        _decode_family(rebuilt)
        del rebuilt
        gc.collect()


def test_a_verifier_keeps_the_drafter_states_its_residuals_were_drawn_against():
    """The store holds the drafter's states themselves, so while the
    verifier lives no rebuilt drafter's states can take their identity."""
    oracles = _family_of(0.0)
    _decode_family(oracles)
    old = id(oracles[0]._states)
    oracles[0] = _family_of(0.1)[0]  # a rebuilt drafter beside the same verifiers
    gc.collect()
    store = oracles[2]._states.residuals
    assert [id(key) for key in store] == [old]  # still there, so still alive
    assert oracles[0]._states not in store
    _decode_family(oracles)
    assert oracles[0]._states in oracles[2]._states.residuals
