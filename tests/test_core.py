"""Distribution primitives: the temperature check, sampling, margins, seeded streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec.core import (
    UNIFORM_BLOCK,
    AllZeroError,
    Distribution,
    RandomStream,
    Vocabulary,
    apply_temperature,
    normalize,
    sample,
    top2_margin,
)
from trispec.models import _States


class FixedUniforms:
    """Stand-in stream feeding a preset uniform sequence."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def uniform(self):
        self.draws += 1
        return self.values.pop(0)


positive_weights = st.lists(
    st.floats(0.0, 100.0, allow_nan=False), min_size=2, max_size=8
).filter(lambda w: sum(w) > 1e-6)


def test_vocabulary_basics():
    v = Vocabulary(3, ("a", "b", "c"))
    assert len(v) == 3
    assert v.decode([2, 0, 1]) == "cab"
    with pytest.raises(ValueError):
        Vocabulary(1)
    with pytest.raises(ValueError):
        Vocabulary(3, ("a", "b"))
    with pytest.raises(ValueError):
        Vocabulary(4).decode([0])  # no symbol table


def test_distribution_validation():
    d = Distribution([0.25, 0.75])
    assert d.probs[1] == 0.75
    assert len(d) == 2
    with pytest.raises(ValueError):
        Distribution([0.5, 0.6])  # sums to 1.1
    with pytest.raises(ValueError):
        Distribution([-0.1, 1.1])
    with pytest.raises(ValueError):
        Distribution([[0.5, 0.5]])
    with pytest.raises(ValueError):
        Distribution([float("nan"), 1.0])


def test_distribution_is_immutable():
    d = Distribution([0.5, 0.5])
    with pytest.raises(AttributeError):
        d.probs = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        d.probs[0] = 1.0  # numpy write flag


def test_argmax_tie_breaks_to_lowest_index():
    assert np.array([0.4, 0.4, 0.2]).argmax() == 0
    assert np.array([0.2, 0.4, 0.4]).argmax() == 1


def test_normalize_basic_and_errors():
    assert np.allclose(normalize([2.0, 2.0]), [0.5, 0.5])
    with pytest.raises(AllZeroError):
        normalize([0.0, 0.0])
    with pytest.raises(ValueError):
        normalize([-1.0, 2.0])
    with pytest.raises(ValueError):
        normalize([])


@given(positive_weights)
def test_normalize_is_idempotent(weights):
    once = normalize(weights)
    twice = normalize(once)
    assert np.allclose(once, twice, atol=1e-12)


def test_temperature_one_is_identity():
    d = np.array([0.3, 0.7])
    assert apply_temperature(d, 1.0) is d


def test_temperature_zero_is_argmax_onehot():
    # T=0 leaves the raw rows: greedy decisions read their argmax, the hot
    # index of the argmax one-hot, and build the one-hot only to judge it.
    row = np.array([0.3, 0.5, 0.2])
    assert apply_temperature(row, 0.0) is row
    assert np.eye(3)[apply_temperature(row, 0.0).argmax()].tolist() == [0.0, 1.0, 0.0]
    # tie goes to the lower index, matching argmax
    block = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert apply_temperature(block, 0.0) is block
    assert np.eye(2)[block.argmax(axis=1)].tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_top2_margin_of_a_block_is_per_row():
    block = np.array([[0.6, 0.3, 0.1], [0.25, 0.25, 0.5], [1.0, 0.0, 0.0]])
    margins = top2_margin(block)
    assert margins.tolist() == [top2_margin(row) for row in block]


def test_temperature_rejects_negative():
    with pytest.raises(ValueError):
        apply_temperature(np.array([1.0, 0.0]), -0.5)


def test_sample_inverse_cdf():
    d = np.array([0.5, 0.5])
    assert sample(d, FixedUniforms([0.25])) == 0
    assert sample(d, FixedUniforms([0.75])) == 1
    # searchsorted side="right": u exactly on the boundary falls rightward
    assert sample(d, FixedUniforms([0.5])) == 1


def test_sample_tail_shortfall_lands_on_last_positive():
    # CDF tops out just below 1; a larger u must not index past the end.
    d = np.array([0.3, 0.7 - 5e-10])
    assert sample(d, FixedUniforms([0.99999999999])) == 1


def _cdf_draw(row, stream):
    """A draw from the CDF a state keeps for ``row``."""
    return _States.of_rows(row[None]).draw(0, stream)


def test_cdf_draw_lands_on_the_last_positive_token_on_a_tail_shortfall():
    row = np.array([0.3, 0.7 - 5e-10, 0.0])
    assert _cdf_draw(row, FixedUniforms([0.99999999999])) == 1


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0)), min_size=2, max_size=8)
    .filter(lambda w: sum(w) > 1e-6),
    shortfall=st.sampled_from([0.0, 1e-9]),
    u=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0 - 1e-12)),
)
def test_cdf_draw_equals_sample(weights, shortfall, u):
    """Bisecting the kept CDF draws ``sample``'s token for the same
    uniform, zero entries and a CDF that ends below ``u`` included."""
    row = normalize(weights) * (1.0 - shortfall)
    stream = FixedUniforms([u])
    assert _cdf_draw(row, stream) == sample(row, FixedUniforms([u]))
    assert stream.draws == 1


def test_sample_consumes_one_draw():
    stream = FixedUniforms([0.1, 0.9])
    sample(np.array([0.5, 0.5]), stream)
    assert stream.draws == 1


def test_top2_margin_values():
    assert top2_margin(np.array([0.6, 0.3, 0.1])) == pytest.approx(0.3)
    assert top2_margin(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert top2_margin(np.array([0.25] * 4)) == pytest.approx(0.0)
    assert top2_margin(np.array([1.0])) == 0.0


def test_random_stream_reproducible():
    a = RandomStream(7, "draft")
    b = RandomStream(7, "draft")
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    assert a.draws == 5


def test_random_stream_labels_are_independent():
    a = RandomStream(7, "draft")
    b = RandomStream(7, "coins")
    assert [a.uniform() for _ in range(4)] != [b.uniform() for _ in range(4)]


def test_random_stream_seed_matters():
    assert RandomStream(1, "x").uniform() != RandomStream(2, "x").uniform()


def test_random_stream_derive_composes_labels():
    child = RandomStream(3, "prompt0").derive("draft")
    assert child.label == "prompt0/draft"
    assert child.uniform() == RandomStream(3, "prompt0/draft").uniform()
    assert RandomStream(3).derive("draft").label == "draft"


def test_random_stream_rejects_negative_seed():
    with pytest.raises(ValueError):
        RandomStream(-1)


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5, 2**70])
def test_random_stream_rejects_seeds_that_would_alias(seed):
    # Seeds are 64-bit: a wider one is refused, not folded onto a narrower
    # seed whose stream it would then replay.
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        RandomStream(seed, "draft")


def test_random_stream_uniform_range():
    stream = RandomStream(0, "range")
    for _ in range(100):
        u = stream.uniform()
        assert 0.0 <= u < 1.0


def _eager_uniforms(seed, label, n):
    """The stream's sequence from a generator seeded up front, as the
    stream itself once did: the seed, then the label's SHA-256 words."""
    import hashlib

    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, *words]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    return [float(gen.random()) for _ in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    label=st.text(max_size=12),
    child=st.one_of(st.none(), st.text(min_size=1, max_size=6)),
    n=st.integers(1, 6),
)
def test_lazy_stream_draws_equal_an_eager_generator(seed, label, child, n):
    stream = RandomStream(seed, label)
    if child is not None:
        stream = stream.derive(child)
    assert (stream.seed, stream.draws) == (seed, 0)
    assert [stream.uniform() for _ in range(n)] == _eager_uniforms(seed, stream.label, n)
    assert stream.draws == n


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    label=st.text(max_size=8),
    n=st.integers(3 * UNIFORM_BLOCK + 1, 5 * UNIFORM_BLOCK),
)
def test_block_uniforms_equal_one_generator_call_per_draw(seed, label, n):
    """Uniforms read from blocks, over at least three refills, are the
    doubles one ``Generator.random()`` call per draw gives, and ``draws``
    counts those read, not those the blocks hold."""
    stream = RandomStream(seed, label)
    assert stream._gen is None  # never drawn from: no generator
    assert [stream.uniform() for _ in range(n)] == _eager_uniforms(seed, label, n)
    assert stream.draws == n


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**63, 2**64 - 1])
@pytest.mark.parametrize("label", ["", "prompt0/draft", "prompt11/coins/target/" + "x" * 28])
def test_stream_seeded_from_words_equals_the_seed_sequence_of_ints(seed, label):
    """A stream hands ``SeedSequence`` its entropy as 32-bit words; the
    first 200 uniforms are those of the int list it was once given, on
    both sides of each word boundary of the seed."""
    assert len(label) in (0, 13, 50)
    stream = RandomStream(seed, label)
    assert [stream.uniform() for _ in range(200)] == _eager_uniforms(seed, label, 200)


def test_stream_seeds_its_generator_on_the_first_draw(monkeypatch):
    made = []
    pcg = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *a: made.append(a) or pcg(*a))
    stream = RandomStream(5, "coins").derive("proxy")
    assert not made and repr(stream) == "RandomStream(seed=5, label='coins/proxy', draws=0)"
    stream.uniform()
    stream.uniform()
    assert len(made) == 1 and stream.draws == 2
