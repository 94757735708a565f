"""Two temperatures: greedy (0) and sampling (1).

Every public function that takes a temperature refuses any other, NaN
included, before it makes a forward pass or draws a uniform.
"""

import inspect
import math

import pytest

import trispec
from trispec.baselines import RelaxPolicy
from trispec.core import RandomStream
from trispec.models import ModelOracle
from trispec.router import MarginRule
from trispec.verification import DecodeStreams

REFUSED = [0.5, 2.0, -1.0, math.nan]


def _calls(fam, ctx, streams):
    """One call of each covered function, by name, as a function of T."""
    d, p, t = fam.drafter, fam.proxy, fam.target
    draft = trispec.draft_chain(d, ctx, 4, 1.0, RandomStream(0, "setup"))
    t.batch_score(ctx, draft.tokens)
    scores = t.walk()  # the target's k+1 states
    coin, corr = streams.target_coins, streams.correction
    rule, policy = MarginRule(0.5), RelaxPolicy("chow")
    return {
        "acceptance_coins": lambda T: trispec.acceptance_coins(draft, scores, T, coin),
        "apply_temperature": lambda T: trispec.apply_temperature(None, T),
        "draft_chain": lambda T: trispec.draft_chain(d, ctx, 4, T, streams.draft),
        "draw_correction": lambda T: trispec.draw_correction(draft, scores, 1, T, corr),
        "paired_equivalence": lambda T: trispec.paired_equivalence(fam, 1.01, "target", T, 2, 0),
        "pruned_target_verify": lambda T: trispec.pruned_target_verify(
            draft, 1, t, ctx, T, coin, corr
        ),
        "relaxed_sd_round": lambda T: trispec.relaxed_sd_round(d, t, ctx, 4, policy, T, streams),
        "sd_round": lambda T: trispec.sd_round(d, t, ctx, 4, T, streams),
        "target_only_round": lambda T: trispec.target_only_round(t, ctx, T, streams),
        "trispec_round": lambda T: trispec.trispec_round(d, p, t, ctx, 4, rule, T, streams),
        "verify_chain": lambda T: trispec.verify_chain(draft, scores, T, coin, corr),
    }


COVERED = (
    "acceptance_coins",
    "apply_temperature",
    "draft_chain",
    "draw_correction",
    "paired_equivalence",
    "pruned_target_verify",
    "relaxed_sd_round",
    "sd_round",
    "target_only_round",
    "trispec_round",
    "verify_chain",
)


def test_every_public_function_with_a_temperature_is_covered():
    found = {
        name
        for name in trispec.__all__
        if inspect.isfunction(getattr(trispec, name))
        and "temperature" in inspect.signature(getattr(trispec, name)).parameters
    }
    assert found == set(COVERED)


@pytest.mark.parametrize("temperature", REFUSED)
@pytest.mark.parametrize("name", COVERED)
def test_other_temperatures_are_refused(name, temperature, ref_family, monkeypatch):
    fam = ref_family.fork()
    ctx = tuple(ref_family.held_tokens[:8])
    call = _calls(fam, ctx, DecodeStreams.from_seed(0))[name]
    passes, draws = [], []
    for method in ("next_dist", "batch_score", "batch_score_paths"):
        real = getattr(ModelOracle, method)
        monkeypatch.setattr(
            ModelOracle, method, lambda self, *a, _real=real: passes.append(1) or _real(self, *a)
        )
    uniform = RandomStream.uniform
    monkeypatch.setattr(RandomStream, "uniform", lambda self: draws.append(1) or uniform(self))
    with pytest.raises(ValueError, match="temperature"):
        call(temperature)
    assert passes == [] and draws == []
    call(1.0)  # the same call at T=1 is valid, and the patches see it
    assert passes or draws or name == "apply_temperature"
