"""Cost ledger, the latency identity, efficiency ratios, margin histograms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec.core import Distribution, Vocabulary
from trispec.metrics import (
    CostModel,
    MarginHistogram,
    RoundCost,
    RunReport,
    accumulate,
    lemma_check,
    margin_histogram,
    speedup_vs_target_only,
    target_invocation_ratio,
)
from trispec.models import TableModel
from trispec.verification import Round, RoundCase


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(c_d=-1.0)
    with pytest.raises(ValueError):
        CostModel(t_o=-0.5)
    with pytest.warns(UserWarning):
        CostModel(c_d=10.0, c_p=5.0, c_t=90.0)  # inverted drafter/proxy order
    assert CostModel() == CostModel(1.0, 5.0, 90.0, 0.0)


@pytest.mark.parametrize("field", ["c_d", "c_p", "c_t", "t_o"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_cost_model_refuses_non_finite_constants(field, value):
    with pytest.raises(ValueError, match="finite"):
        CostModel(**{field: value})


def test_round_cost_total():
    assert RoundCost(draft=6.0, verify=95.0, overhead=2.5).total == 103.5


def test_add_round_arithmetic():
    report = RunReport(cost=CostModel(t_o=2.0))
    cost = report.add_round(
        emitted_count=4, drafter_passes=6, proxy_passes=1, target_passes=1,
        case_label="TargetEscalated",
    )
    assert cost == RoundCost(draft=6.0, verify=95.0, overhead=2.0)
    assert report.N == 4
    assert report.rounds == 1
    assert report.accepted_total == 3
    assert report.L == 103.0
    assert report.case_counts == {"TargetEscalated": 1}
    with pytest.raises(ValueError):
        report.add_round(0, 1, 1, 0, "ProxyOnly")


def test_tau_mean_excludes_the_correction_token():
    report = RunReport(cost=CostModel())
    report.add_round(3, 2, 1, 0, "ProxyOnly")
    report.add_round(1, 2, 1, 1, "TargetEscalated")
    assert report.tau_mean == 1.0  # (2 + 0) / 2 accepted draft tokens
    assert report.tokens_per_round == 2.0  # (3 + 1) / 2 emitted tokens
    empty = RunReport(cost=CostModel())
    assert empty.tau_mean == 0.0 and empty.tokens_per_round == 0.0


rounds_strategy = st.lists(
    st.tuples(
        st.integers(1, 8),  # emitted
        st.integers(0, 8),  # drafter passes
        st.integers(0, 3),  # proxy passes
        st.integers(0, 2),  # target passes
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(rounds=rounds_strategy, t_o=st.floats(0.0, 5.0, allow_nan=False))
def test_latency_identity_holds_for_any_round_fold(rounds, t_o):
    report = RunReport(cost=CostModel(t_o=t_o))
    for emitted, d, p, t in rounds:
        report.add_round(emitted, d, p, t, "ProxyOnly")
    assert lemma_check(report) <= 1e-9 * max(report.L, 1.0)


def test_lemma_check_on_empty_report_is_zero():
    assert lemma_check(RunReport(cost=CostModel())) == 0.0


def test_target_invocation_ratio():
    report = RunReport(cost=CostModel())
    report.add_round(5, 6, 1, 1, "TargetEscalated")
    report.add_round(3, 6, 1, 0, "ProxyOnly")
    assert report.r_t == pytest.approx(1 / 8)
    assert target_invocation_ratio(RunReport(cost=CostModel())) == 0.0


def test_speedup_against_sequential_target_decoding():
    report = RunReport(cost=CostModel())
    report.add_round(10, 0, 0, 5, "TargetEscalated")  # L = 5 * 90 = 450
    assert report.speedup == pytest.approx(2.0)  # 10 * 90 / 450
    assert speedup_vs_target_only(report, CostModel(), t_o_base=10.0) == pytest.approx(1000 / 450)
    with pytest.raises(ValueError):
        speedup_vs_target_only(RunReport(cost=CostModel()), CostModel())


def _proxy_only_round():
    return Round(
        case=RoundCase.PROXY_ONLY,
        emitted=(0, 1),
        tau_a=1,
        tau_m=3,
        tau_t=None,
        passes=(4, 1, 0),
        coins=(1, 0),
        margins=(0.9, 0.8),
    )


def test_accumulate_returns_the_round_cost():
    report = RunReport(cost=CostModel())
    assert accumulate(report, _proxy_only_round()) == RoundCost(draft=4.0, verify=5.0, overhead=0.0)
    assert report.N == 2
    assert report.drafter_passes == 4 and report.proxy_passes == 1 and report.target_passes == 0
    assert report.case_counts == {"ProxyOnly": 1}


# ---------------------------------------------------------------------------
# margin histogram
# ---------------------------------------------------------------------------


def _histogram_fixture():
    proxy = TableModel(
        Vocabulary(2),
        {
            (0,): Distribution([0.61, 0.39]),       # margin 0.22  -> bin 4
            (1,): Distribution([0.5625, 0.4375]),   # margin 0.125 -> bin 2
            (9,): Distribution([1.0, 0.0]),         # margin 1.0   -> clamped to bin 19
        },
        default=Distribution([0.75, 0.25]),          # margin 0.5   -> bin 10
    )
    target = TableModel(
        Vocabulary(2),
        {(1,): Distribution([0.1, 0.9])},            # disagrees only after a 1
        default=Distribution([0.8, 0.2]),
    )
    contexts = [(0,), (1,), (7,), (8,), (9,)]
    return proxy, target, contexts


def test_margin_histogram_frozen_masses():
    proxy, target, contexts = _histogram_fixture()
    hist = margin_histogram(proxy, target, contexts, bins=20)
    assert hist.positions == 5
    assert hist.bins == 20
    assert hist.match_mass[4] == pytest.approx(0.2)
    assert hist.mismatch_mass[2] == pytest.approx(0.2)
    assert hist.match_mass[10] == pytest.approx(0.4)  # both default contexts
    assert hist.match_mass[19] == pytest.approx(0.2)  # the one-hot clamps into the last bin
    assert sum(hist.match_mass) + sum(hist.mismatch_mass) == pytest.approx(1.0)
    # evaluation went through forks: the decode counters stay pristine
    assert proxy.invocation_count == 0
    assert target.invocation_count == 0


def test_margin_histogram_rejects_degenerate_input():
    proxy, target, contexts = _histogram_fixture()
    with pytest.raises(ValueError):
        margin_histogram(proxy, target, contexts, bins=0)
    with pytest.raises(ValueError):
        margin_histogram(proxy, target, [], bins=20)


def test_mismatch_fraction_skips_empty_bins():
    proxy, target, contexts = _histogram_fixture()
    hist = margin_histogram(proxy, target, contexts, bins=20)
    fractions = dict(hist.mismatch_fraction())
    assert len(fractions) == 4  # only the occupied bins appear
    assert fractions[0.125] == pytest.approx(1.0)
    assert fractions[0.225] == 0.0
    assert fractions[0.525] == 0.0
    assert fractions[0.975] == 0.0


def test_histogram_row_layout():
    hist = MarginHistogram(
        edges=(0.0, 0.5, 1.0),
        match_mass=(0.5, 0.25),
        mismatch_mass=(0.0, 0.25),
        positions=4,
    )
    assert hist.to_rows() == [(0.25, 0.5, 0.0), (0.75, 0.25, 0.25)]
