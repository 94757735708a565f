"""Block scoring and the round functions that read it, against references.

The references below are the per-position round functions this package
ran before a scoring pass returned one ``(k+1, V)`` block: every scored
position is a ``Distribution``, a draft keeps one per token, greedy shaping
builds argmax one-hots, and a greedy draft draws one (ignored) uniform per
token through ``sample``. The block-native rounds must reproduce them
exactly: tokens, coins, lengths, margins, passes, and the uniforms drawn
from every stream, except that a greedy draft now draws none and keeps the
raw rows whose argmax one-hots the reference keeps.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec.baselines import RelaxPolicy, RoutingSignal, relaxed_sd_round
from trispec.core import Distribution, Vocabulary, normalize, sample, top2_margin
from trispec.models import (
    MixtureProxy,
    NGramSpec,
    PassMeter,
    ProxyDerivation,
    TableModel,
    Walk,
    train_ngram,
)
from trispec.router import MarginRule, trispec_round, trusted_prefix_len
from trispec.verification import DecodeStreams, Round, RoundCase, Verdict, sd_round

# ---------------------------------------------------------------------------
# the per-position references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RefChain:
    """A draft chain as it was: one ``Distribution`` per drafted token."""

    tokens: tuple
    dists: tuple

    @property
    def k(self):
        return len(self.tokens)

    def suffix(self, start):
        return _RefChain(self.tokens[start:], self.dists[start:])


def _argmax(dist):
    return int(dist.probs.argmax())


def _ref_apply_temperature(dist, temperature):
    """Shaping as it was: T=0 gives the argmax one-hot (lowest index on
    ties), and T=1 the row itself."""
    if temperature == 0.0:
        hot = np.zeros(len(dist))
        hot[_argmax(dist)] = 1.0
        return Distribution(hot)
    return dist


def _ref_scores(oracle, ctx, drafted):
    return [Distribution(row) for row in oracle.batch_score(ctx, drafted).rows]


def _ref_draft_chain(drafter, ctx, k, temperature, stream):
    tokens, dists = [], []
    for _ in range(k):
        raw = Distribution(drafter.next_dist(tuple(ctx) + tuple(tokens)))
        shaped = _ref_apply_temperature(raw, temperature)
        tokens.append(sample(shaped.probs, stream))
        dists.append(shaped)
    return _RefChain(tuple(tokens), tuple(dists))


def _ref_margin(dist):
    top_pair = np.partition(dist.probs, -2)[-2:]
    return float(top_pair.max() - top_pair.min())


def _ref_trusted(rule, dist):
    if isinstance(rule, MarginRule):
        return _ref_margin(dist) >= rule.lam
    if rule.kind == "top1_prob":
        return float(dist.probs.max()) >= rule.threshold
    probs = dist.probs[dist.probs > 0.0]
    entropy = float(-(probs * np.log(probs)).sum()) / math.log(len(dist))
    return entropy <= rule.threshold


def _ref_trusted_prefix_len(dists, rule):
    for i, dist in enumerate(dists):
        if not _ref_trusted(rule, dist):
            return i
    return len(dists)


def _ref_acceptance_coins(draft, dists, temperature, coin_stream, decide=None):
    coins = []
    for i, token in enumerate(draft.tokens):
        accept = None if decide is None else decide(i, token)
        if accept is None:
            if temperature == 0.0:
                accept = _argmax(dists[i]) == token
            else:
                ratio = min(1.0, float(dists[i].probs[token] / draft.dists[i].probs[token]))
                accept = coin_stream.uniform() < ratio
        coins.append(1 if accept else 0)
        if not accept:
            return tuple(coins), i
    return tuple(coins), draft.k


def _ref_draw_correction(draft, dists, tau, temperature, stream):
    if tau < draft.k:
        dist = Distribution(normalize(np.maximum(0.0, dists[tau].probs - draft.dists[tau].probs)))
        is_bonus = False
    else:
        dist = dists[draft.k]
        is_bonus = True
    return (_argmax(dist) if temperature == 0.0 else sample(dist.probs, stream)), is_bonus


def _ref_verify_chain(draft, dists, temperature, coin_stream, correction_stream):
    shaped = [_ref_apply_temperature(d, temperature) for d in dists]
    coins, tau = _ref_acceptance_coins(draft, shaped, temperature, coin_stream)
    token, is_bonus = _ref_draw_correction(draft, shaped, tau, temperature, correction_stream)
    return Verdict(draft.tokens[:tau] + (token,), coins, is_bonus, shaped[: tau + 1])


def _ref_pruned_target_verify(draft, tau_m, target, ctx, temperature, coins, correction):
    base = tuple(ctx) + draft.tokens[:tau_m]
    if tau_m == draft.k:
        bonus = _ref_apply_temperature(Distribution(target.next_dist(base)), temperature)
        token = _argmax(bonus) if temperature == 0.0 else sample(bonus.probs, correction)
        return Verdict((token,), (), True, (bonus,))
    sub = draft.suffix(tau_m)
    rows = _ref_scores(target, base, sub.tokens)
    return _ref_verify_chain(sub, rows, temperature, coins, correction)


def _ref_trispec_round(drafter, proxy, target, ctx, k, rule, temperature, streams,
                       raw_bonus=False):
    meter = PassMeter(drafter, proxy, target)
    base = tuple(ctx)
    draft = _ref_draft_chain(drafter, base, k, temperature, streams.draft)
    proxy_raw = _ref_scores(proxy, base, draft.tokens)
    proxy_shaped = [_ref_apply_temperature(d, temperature) for d in proxy_raw]
    coins, tau_a = _ref_acceptance_coins(draft, proxy_shaped, temperature, streams.proxy_coins)
    margin_view = proxy_raw if temperature == 0.0 else proxy_shaped
    margins = tuple(_ref_margin(d) for d in margin_view)
    tau_m = _ref_trusted_prefix_len(margin_view, rule)
    if tau_a < tau_m:
        if raw_bonus and tau_a < k:
            dist = proxy_shaped[tau_a]
            token = _argmax(dist) if temperature == 0.0 else sample(dist.probs, streams.correction)
            is_bonus = False
        else:
            token, is_bonus = _ref_draw_correction(
                draft, proxy_shaped, tau_a, temperature, streams.correction
            )
        case, tau_t, emitted = RoundCase.PROXY_ONLY, None, draft.tokens[:tau_a] + (token,)
    else:
        verdict = _ref_pruned_target_verify(
            draft, tau_m, target, base, temperature, streams.target_coins, streams.correction
        )
        case, tau_t = RoundCase.TARGET_ESCALATED, verdict.tau
        emitted = draft.tokens[:tau_m] + verdict.emitted
        is_bonus = verdict.is_bonus
    return Round(case, emitted, meter.passes(), tau_a, tau_m, tau_t, coins, margins, is_bonus,
                 draft)


def _ref_sd_round(drafter, verifier, ctx, k, temperature, streams, verifier_role):
    meter = PassMeter(drafter, **{verifier_role: verifier})
    draft = _ref_draft_chain(drafter, ctx, k, temperature, streams.draft)
    verdict = _ref_verify_chain(
        draft, _ref_scores(verifier, ctx, draft.tokens), temperature,
        streams.coins_for(verifier_role), streams.correction,
    )
    return Round(RoundCase.SD, verdict.emitted, meter.passes(), tau_a=verdict.tau,
                 coins=verdict.coins, correction_is_bonus=verdict.is_bonus, draft=draft)


def _ref_decide(policy, draft_dist, target_dist, token):
    if policy.kind == "chow":
        return True if draft_dist.probs[token] >= 1.0 - policy.alpha else None
    if policy.kind == "confidence_filter":
        return True if float(draft_dist.probs.max()) > policy.threshold else None
    if policy.kind == "token_specific":
        return target_dist.probs[token] >= (1.0 - policy.alpha) * float(target_dist.probs.max())
    order = np.lexsort((np.arange(len(target_dist)), -target_dist.probs))
    return token in order[: policy.k]


def _ref_relaxed_sd_round(drafter, target, ctx, k, policy, temperature, streams):
    meter = PassMeter(drafter, target=target)
    draft = _ref_draft_chain(drafter, ctx, k, temperature, streams.draft)
    scores = _ref_scores(target, ctx, draft.tokens)
    shaped = [_ref_apply_temperature(d, temperature) for d in scores]
    coins, tau = _ref_acceptance_coins(
        draft, shaped, temperature, streams.target_coins,
        decide=lambda i, token: _ref_decide(policy, draft.dists[i], shaped[i], token),
    )
    last = shaped[tau]
    token = _argmax(last) if temperature == 0.0 else sample(last.probs, streams.correction)
    return Round(RoundCase(f"Relax:{policy.kind}"), draft.tokens[:tau] + (token,), meter.passes(),
                 tau_a=tau, coins=coins, correction_is_bonus=tau == draft.k, draft=draft)


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
                         max_size=6, unique=True))
    return TableModel(Vocabulary(vocab), {key: row() for key in keys}, default=row())


@st.composite
def _family(draw):
    vocab = draw(st.integers(2, 6))
    ctx = draw(st.lists(st.integers(0, vocab - 1), max_size=4))
    return [draw(_table(vocab)) for _ in range(3)], ctx


_LAMS = st.one_of(st.sampled_from([0.0, 1.01, 1.5]), st.floats(0.0, 1.0))
_RULES = st.one_of(
    _LAMS.map(MarginRule),
    st.builds(RoutingSignal, st.sampled_from(["top1_prob", "composite_entropy"]), _LAMS),
)
_TEMPERATURES = st.sampled_from([0.0, 1.0])
ROUNDS = 3


def _draws(streams):
    return tuple(s.draws for s in (streams.draft, streams.proxy_coins,
                                   streams.target_coins, streams.correction))


def _run_both(oracles, ctx, temperature, new_round, ref_round):
    """Step both implementations in lockstep on forks of the same oracles."""
    new_oracles = [o.fork() for o in oracles]
    ref_oracles = [o.fork() for o in oracles]
    new_streams = DecodeStreams.from_seed(3, "diff")
    ref_streams = DecodeStreams.from_seed(3, "diff")
    ctx = list(ctx)
    for _ in range(ROUNDS):
        got = new_round(*new_oracles, ctx, new_streams)
        want = ref_round(*ref_oracles, ctx, ref_streams)
        for name in ("case", "emitted", "passes", "tau_a", "tau_m", "tau_t", "coins",
                     "margins", "correction_is_bonus"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.draft.tokens == want.draft.tokens
        rows = got.draft.dists
        if temperature == 0.0:  # raw rows: their argmax one-hots are the reference's
            rows = np.eye(rows.shape[1])[rows.argmax(axis=1)]
        assert np.array_equal(rows, [d.probs for d in want.draft.dists])
        got_draws, want_draws = _draws(new_streams), _draws(ref_streams)
        assert got_draws[1:] == want_draws[1:]
        assert got_draws[0] == (0 if temperature == 0.0 else want_draws[0])
        ctx.extend(got.emitted)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    family=_family(),
    k=st.integers(1, 6),
    rule=_RULES,
    temperature=_TEMPERATURES,
    raw_bonus=st.booleans(),
)
def test_trispec_round_matches_the_per_position_reference(family, k, rule, temperature, raw_bonus):
    oracles, ctx = family
    _run_both(
        oracles, ctx, temperature,
        lambda d, p, t, c, s: trispec_round(d, p, t, c, k, rule, temperature, s, raw_bonus),
        lambda d, p, t, c, s: _ref_trispec_round(d, p, t, c, k, rule, temperature, s, raw_bonus),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(family=_family(), k=st.integers(1, 6), temperature=_TEMPERATURES,
       role=st.sampled_from(["target", "proxy"]))
def test_sd_round_matches_the_per_position_reference(family, k, temperature, role):
    oracles, ctx = family

    def pick(d, p, t):
        return t if role == "target" else p

    _run_both(
        oracles, ctx, temperature,
        lambda d, p, t, c, s: sd_round(d, pick(d, p, t), c, k, temperature, s, role),
        lambda d, p, t, c, s: _ref_sd_round(d, pick(d, p, t), c, k, temperature, s, role),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    family=_family(),
    k=st.integers(1, 6),
    temperature=_TEMPERATURES,
    policy=st.builds(
        RelaxPolicy,
        st.sampled_from(RelaxPolicy._KINDS),
        alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        threshold=st.sampled_from([0.0, 0.5, 0.75, 1.0]),
        k=st.integers(1, 4),
    ),
)
def test_relaxed_round_matches_the_per_position_reference(family, k, temperature, policy):
    oracles, ctx = family
    _run_both(
        oracles, ctx, temperature,
        lambda d, p, t, c, s: relaxed_sd_round(d, t, c, k, policy, temperature, s),
        lambda d, p, t, c, s: _ref_relaxed_sd_round(d, t, c, k, policy, temperature, s),
    )


def _ref_signal(rule, dist):
    """The per-row value each rule compares with its threshold."""
    if isinstance(rule, MarginRule):
        return _ref_margin(dist)
    if rule.kind == "top1_prob":
        return float(dist.probs.max())
    probs = dist.probs[dist.probs > 0.0]
    return float(-(probs * np.log(probs)).sum()) / math.log(len(dist))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.one_of(st.integers(2, 6), st.integers(8, 24)).flatmap(lambda v: st.lists(
        st.lists(st.integers(0, 4), min_size=v, max_size=v).filter(any), min_size=1, max_size=7)),
    kind=st.sampled_from(["margin", "top1_prob", "composite_entropy"]),
    pick=st.integers(0, 6),
    nudge=st.sampled_from([-np.inf, 0.0, np.inf]),
)
def test_trust_rules_match_the_reference_at_their_own_boundaries(rows, kind, pick, nudge):
    """Thresholds set to a row's own signal value, or one float step either
    side of it, so a signal one ulp off flips the verdict. Rows of V >= 8
    holding zeros check that the entropy sums the same terms in the same
    order as the reference."""
    block = np.array([np.array(r, dtype=float) / sum(r) for r in rows])
    dists = [Distribution(row) for row in block]
    probe = MarginRule(0.0) if kind == "margin" else RoutingSignal(kind, 0.0)
    value = _ref_signal(probe, dists[pick % len(dists)])
    threshold = float(np.nextafter(value, nudge)) if nudge else value
    rule = MarginRule(threshold) if kind == "margin" else RoutingSignal(kind, threshold)
    want = [_ref_trusted(rule, d) for d in dists]
    assert np.asarray(rule.trusted(block)).tolist() == want
    assert [bool(rule.trusted(row)) for row in block] == want
    assert trusted_prefix_len(Walk.of_rows(block), rule) == _ref_trusted_prefix_len(dists, rule)
    if kind == "margin":
        assert top2_margin(block).tolist() == [_ref_margin(d) for d in dists]


# ---------------------------------------------------------------------------
# the block itself
# ---------------------------------------------------------------------------


@st.composite
def _oracle(draw):
    vocab = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["table", "ngram", "mixture-table", "mixture-ngram"]))
    if kind.endswith("table"):
        oracle = draw(_table(vocab))
    else:
        corpus = draw(st.lists(st.integers(0, vocab - 1), min_size=4, max_size=40))
        oracle = train_ngram(corpus, NGramSpec(draw(st.integers(1, 4)), 0.1), Vocabulary(vocab))
    if kind.startswith("mixture"):
        w = np.array(draw(st.lists(st.integers(1, 4), min_size=vocab, max_size=vocab)), float)
        deriv = ProxyDerivation(draw(st.floats(0.0, 1.0)))
        oracle = MixtureProxy(oracle, deriv, w / w.sum())
    return oracle


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle=_oracle(), data=st.data())
def test_block_is_read_only_and_equals_next_dist_of_each_prefix(oracle, data):
    tokens = st.integers(0, oracle.vocab_size - 1)
    ctx = tuple(data.draw(st.lists(tokens, max_size=8), label="ctx"))
    drafted = tuple(data.draw(st.lists(tokens, min_size=1, max_size=6), label="drafted"))
    paths = data.draw(st.lists(st.lists(tokens, max_size=4).map(tuple), min_size=1, max_size=5),
                      label="paths")
    scorer, probe = oracle.fork(), oracle.fork()

    block = scorer.batch_score(ctx, drafted).rows
    assert block.shape == (len(drafted) + 1, oracle.vocab_size) and block.dtype == np.float64
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.5
    for i, row in enumerate(block):
        prefix = ctx + drafted[:i]
        assert np.array_equal(row, probe.next_dist(prefix))  # the untrimmed context

    rows = scorer.batch_score_paths(ctx, paths).rows
    assert not rows.flags.writeable
    for row, path in zip(rows, paths):
        assert np.array_equal(row, probe.next_dist(ctx + path))
    assert scorer.invocation_count == 2


def test_mixture_block_rows_are_validated():
    base = TableModel(Vocabulary(2), {}, default=Distribution([0.5, 0.5]))
    with pytest.raises(ValueError, match="sums to"):  # the rows would sum to 1.4
        MixtureProxy(base, ProxyDerivation(0.5), np.array([0.9, 0.9]))
