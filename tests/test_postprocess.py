"""Plan extraction, score transformation, and audit metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbins.data import BinStats, Dataset

from .conftest import tiny_stats
from fairbins.model import ModelConfig, build_model, identity_plan
from fairbins.postprocess import (
    MetricsError,
    PlanError,
    TransitionPlan,
    _draw_bins,
    apply_expected_score,
    apply_interpolated,
    apply_stochastic,
    auc_from_bins,
    audit_stats,
    expected_assignment_stats,
    extract_plan,
    fairness_violations,
    pr_auc_from_bins,
)


def two_bin_plan() -> TransitionPlan:
    return TransitionPlan(
        edges=(0.0, 0.5, 1.0),
        groups=np.array(
            [
                [[0.8, 0.2], [0.2, 0.8]],
                [[1.0, 0.0], [0.4, 0.6]],
            ]
        ),
    )


def test_identity_violations_match_raw_data():
    stats = tiny_stats()
    v = fairness_violations(stats)
    assert v.dp == pytest.approx(0.0, abs=1e-12)
    assert v.eodds == pytest.approx(0.2, abs=1e-12)
    assert v.prp == pytest.approx(0.2, abs=1e-12)
    assert v.prp_excluded == ()
    assert v.dp_bins.shape == (2,)


def test_pooled_rank_auc():
    stats = tiny_stats()
    assert auc_from_bins(stats, pooled=True) == pytest.approx(0.70, abs=1e-12)


def test_per_group_rank_auc():
    stats = tiny_stats()
    per = auc_from_bins(stats, pooled=False)
    assert set(per) == {1, 2}
    assert per[1] == pytest.approx(0.80, abs=1e-12)
    assert per[2] == pytest.approx(0.60, abs=1e-12)


def test_pooled_step_pr_auc():
    stats = tiny_stats()
    assert pr_auc_from_bins(stats, pooled=True) == pytest.approx(0.64, abs=1e-12)


def test_auc_requires_both_label_classes():
    stats = BinStats(
        n=np.array([[5.0, 5.0], [5.0, 5.0]]),
        npos=np.array([[5.0, 5.0], [0.0, 0.0]]),
        midpoints=(0.25, 0.75),
        edges=(0.0, 0.5, 1.0),
    )
    with pytest.raises(MetricsError, match="positives"):
        auc_from_bins(stats, pooled=False)
    with pytest.raises(MetricsError):
        pr_auc_from_bins(
            BinStats(
                n=stats.n, npos=np.zeros((2, 2)), midpoints=stats.midpoints,
                edges=stats.edges,
            )
        )


def test_prp_skips_empty_cells_and_reports_them():
    stats = BinStats(
        n=np.array([[0.0, 10.0], [4.0, 6.0]]),
        npos=np.array([[0.0, 5.0], [1.0, 3.0]]),
        midpoints=(0.25, 0.75),
        edges=(0.0, 0.5, 1.0),
    )
    v = fairness_violations(stats)
    assert (0, 1) in v.prp_excluded
    assert v.prp == pytest.approx(0.0, abs=1e-12)  # only bin 1 compares: both 0.5


def test_expected_assignment_pushes_counts_through_plan():
    stats = tiny_stats()
    out = expected_assignment_stats(two_bin_plan(), stats)
    assert out.npos[0].tolist() == pytest.approx([3.2, 6.8])
    assert out.n[0].tolist() == pytest.approx([10.0, 10.0])
    assert out.n[1].tolist() == pytest.approx([14.0, 6.0])
    # conservation, exactly
    np.testing.assert_allclose(out.group_totals, stats.group_totals, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.group_pos, stats.group_pos, rtol=0, atol=1e-12)


def test_expected_assignment_rejects_shape_mismatch():
    stats = tiny_stats()
    plan = TransitionPlan(edges=(0.0, 1.0), groups=np.ones((2, 1, 1)))
    with pytest.raises(PlanError, match="statistics"):
        expected_assignment_stats(plan, stats)


def test_interpolation_carries_relative_position():
    plan = TransitionPlan(
        edges=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        groups=np.tile(np.eye(5), (2, 1, 1)),
    )
    # force every draw from bin 1 into bin 3
    plan.groups[0] = 0.0
    plan.groups[0, :, 3] = 1.0
    obs = Dataset(score=[0.25], label=[0], group=[1])
    out = apply_interpolated(plan, obs, seed=7)
    assert out[0] == pytest.approx(0.65, abs=1e-12)


def test_expected_score_is_plan_weighted_interpolation():
    plan = two_bin_plan()
    obs = Dataset(score=[0.25], label=[0], group=[1])
    # halfway through bin 0: destinations land at 0.25 and 0.75
    want = 0.8 * 0.25 + 0.2 * 0.75
    out = apply_expected_score(plan, obs)
    assert out[0] == pytest.approx(want, abs=1e-12)
    again = apply_expected_score(plan, obs)
    assert out.tolist() == again.tolist()


def test_stochastic_draws_follow_row_frequencies():
    plan = TransitionPlan(
        edges=(0.0, 0.5, 1.0),
        groups=np.array([[[0.3, 0.7], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]),
    )
    obs = Dataset(score=[0.25] * 100_000, label=[0] * 100_000, group=[1] * 100_000)
    dest = apply_stochastic(plan, obs, seed=11)
    assert abs(dest.mean() - 0.7) < 0.01


def test_same_seed_reproduces_different_seed_varies():
    plan = two_bin_plan()
    obs = Dataset(score=np.linspace(0.0, 0.99, 500), label=np.zeros(500),
                  group=1 + np.arange(500) % 2)
    a = apply_stochastic(plan, obs, seed=3)
    b = apply_stochastic(plan, obs, seed=3)
    c = apply_stochastic(plan, obs, seed=4)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


def test_interpolated_scores_land_in_drawn_bins():
    plan = two_bin_plan()
    obs = Dataset(score=np.linspace(0.0, 0.99, 200), label=np.zeros(200),
                  group=np.full(200, 2))
    bins = apply_stochastic(plan, obs, seed=5)
    scores = apply_interpolated(plan, obs, seed=5)
    assert plan.spec.assign(scores).tolist() == bins.tolist()


def test_unknown_group_is_rejected():
    with pytest.raises(PlanError, match="group 3"):
        apply_stochastic(two_bin_plan(), Dataset(score=[0.5], label=[0], group=[3]), seed=0)


def test_extract_plan_cleans_roundoff():
    stats = tiny_stats()
    model = build_model(stats, ModelConfig(eps_dp=1.0, eps_eodds=1.0, eps_prp=1.0,
                                                retention=0.5, window=2))
    x = identity_plan(model)
    x[model.x_index[(0, 0, 1)]] = -5e-8  # solver dust on an off-diagonal entry
    plan = extract_plan(x, model)
    assert plan.groups[0, 0, 1] == 0.0
    np.testing.assert_allclose(plan.groups.sum(axis=2), 1.0, rtol=0, atol=1e-15)
    plan.validate(retention=0.5, window=2)


def test_extract_plan_rejects_broken_rows():
    stats = tiny_stats()
    model = build_model(stats, ModelConfig(eps_dp=1.0, eps_eodds=1.0, eps_prp=1.0,
                                                retention=0.5, window=2))
    x = identity_plan(model)
    x[model.x_index[(0, 0, 0)]] = 1.001
    with pytest.raises(PlanError, match="unit mass"):
        extract_plan(x, model)
    x2 = identity_plan(model)
    x2[model.x_index[(1, 1, 0)]] = -1e-3
    with pytest.raises(PlanError, match="below zero"):
        extract_plan(x2, model)


def test_plan_json_round_trip():
    plan = two_bin_plan()
    back = TransitionPlan.from_json(plan.to_json())
    assert back.edges == plan.edges
    np.testing.assert_array_equal(back.groups, plan.groups)


def test_validate_flags_retention_and_window_breaks():
    plan = two_bin_plan()
    with pytest.raises(PlanError, match="retention"):
        plan.validate(retention=0.1)
    wide = TransitionPlan(
        edges=(0.0, 1 / 3, 2 / 3, 1.0),
        groups=np.array([[[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]] * 2),
    )
    with pytest.raises(PlanError, match="window"):
        wide.validate(window=2)
    wide.validate(window=3)


def test_audit_report_serializes_with_flags():
    stats = BinStats(
        n=np.array([[0.0, 10.0], [4.0, 6.0]]),
        npos=np.array([[0.0, 5.0], [1.0, 3.0]]),
        midpoints=(0.25, 0.75),
        edges=(0.0, 0.5, 1.0),
    )
    report = audit_stats(stats)
    text = report.to_json()
    assert '"epsDP"' in text and '"rocAuc"' in text
    assert any("prp undefined" in f for f in report.flags)
    assert report.roc_auc is not None
    assert audit_stats(stats).to_json() == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_plans_conserve_and_stay_monotone(seed):
    rng = np.random.default_rng(seed)
    B = int(rng.integers(2, 6))
    G = 2
    raw = rng.random((G, B, B)) + 1e-3
    plan = TransitionPlan(
        edges=tuple(np.linspace(0.0, 1.0, B + 1)),
        groups=raw / raw.sum(axis=2, keepdims=True),
    )
    stats = BinStats(
        n=rng.integers(1, 20, size=(G, B)).astype(float),
        npos=np.zeros((G, B)),
        midpoints=tuple((np.linspace(0, 1, B + 1)[:-1] + np.linspace(0, 1, B + 1)[1:]) / 2),
        edges=plan.edges,
    )
    out = expected_assignment_stats(plan, stats)
    np.testing.assert_allclose(out.group_totals, stats.group_totals, rtol=0, atol=1e-9)

    # expected-score map never leaves [0, 1] and is monotone within a source bin
    lo, hi = 0.31 / B, 0.44 / B  # both inside bin 0
    obs = Dataset(score=[lo, hi], label=[0, 0], group=[1, 1])
    s = apply_expected_score(plan, obs)
    assert 0.0 <= s[0] <= 1.0 and 0.0 <= s[1] <= 1.0
    assert s[0] <= s[1] + 1e-12


@st.composite
def plans_with_zeros(draw, max_groups=3, max_bins=6):
    """Row-stochastic plans on random edges whose rows carry zero entries."""
    G = draw(st.integers(1, max_groups))
    B = draw(st.integers(2, max_bins))
    cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=B - 1, max_size=B - 1,
                         unique=True))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1 / 3, 0.7, 1.0]),
                                     min_size=G * B * B, max_size=G * B * B)))
    weights = weights.reshape(G, B, B)
    empty = weights.sum(axis=2) == 0.0
    weights[empty, 0] = 1.0
    return TransitionPlan(edges=(0.0, *sorted(cuts), 1.0),
                          groups=weights / weights.sum(axis=2, keepdims=True))


def rows_for(draw, plan: TransitionPlan, n: int):
    groups = np.array(draw(st.lists(st.integers(1, plan.ngroups), min_size=n, max_size=n)))
    bins = np.array(draw(st.lists(st.integers(0, plan.nbins - 1), min_size=n, max_size=n)))
    return groups, bins


def draw_bins_by_counting(plan, groups, bins, seed):
    """The former (N, B) formula: count the cumulative entries at or below u."""
    u = np.random.default_rng(seed).random(len(groups))
    cums = np.cumsum(plan.groups, axis=2)[groups - 1, bins]
    return np.minimum((cums <= u[:, None]).sum(axis=1), plan.nbins - 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_draw_bins_equal_the_counting_formula(data, seed):
    plan = data.draw(plans_with_zeros())
    n = data.draw(st.integers(1, 80))
    groups, bins = rows_for(data.draw, plan, n)
    # make some rows' draws land exactly on a cumulative value, twice over
    # where the row has a zero entry right after it
    u = np.random.default_rng(seed).random(n)
    for k in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        row = np.zeros(plan.nbins)
        row[0], row[-1] = u[k], 1.0 - u[k]
        plan.groups[groups[k] - 1, bins[k]] = row
    got = _draw_bins(plan, groups, bins, seed)
    assert got.tolist() == draw_bins_by_counting(plan, groups, bins, seed).tolist()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_expected_score_matches_the_dense_formula(data):
    plan = data.draw(plans_with_zeros())
    n = data.draw(st.integers(1, 60))
    groups, _ = rows_for(data.draw, plan, n)
    scores = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    # the former (N, B) formula: every destination's landing point, weighted
    e = np.asarray(plan.edges)
    bins = plan.spec.assign(scores)
    frac = (scores - e[bins]) / (e[bins + 1] - e[bins])
    landed = e[:-1][None, :] + frac[:, None] * (e[1:] - e[:-1])[None, :]
    want = (plan.groups[groups - 1, bins] * landed).sum(axis=1)
    got = apply_expected_score(plan, Dataset(scores, np.zeros(n), groups))
    assert np.abs(got - want).max() <= 1e-12
