import math
from dataclasses import fields

import pytest

from treesink.core import (GrowthParameters, TrunkScriptEntry, ZoneRule,
                           ZoneRuleSet, round_half_away, validate_parameters,
                           validate_target)
from treesink.synthetic import script_only_dataset


def test_reference_configuration_passes(params, zones):
    report = validate_parameters(params, zones)
    assert report.ok, report.violations


def test_kilogram_scale_environment_passes(params, zones):
    # environment factors on a kg-per-m² scale are legal configurations;
    # validation is unit-agnostic
    p = params.with_values(v_env=(0.056, 0.1))
    assert validate_parameters(p, zones).ok


def test_lambda_out_of_range(params):
    report = validate_parameters(params.with_values(lambda_mix=1.2))
    assert not report.ok
    assert any("lambda_mix" in v for v in report.violations)


def test_fixed_coefficient_rule_violation(params, zones):
    bad = zones.with_rule(ZoneRule(2, 2, m1=1.0, m2=0.1, m_max=1,
                                   a1=0.0, a2=0.05))
    report = validate_parameters(params, bad)
    assert not report.ok
    assert any("Z^22" in v and "m1" in v for v in report.violations)


@pytest.mark.parametrize("coef", ["m1", "m2", "a1", "a2", "m_max"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_zone_coefficients_rejected(params, zones, coef, bad):
    # an infinite m_max means no cap, every other non-finite value is bad
    rule = zones.get(2, 4)
    report = validate_parameters(
        params, zones.with_rule(ZoneRule(**{**vars(rule), coef: bad})))
    assert report.ok == (coef == "m_max" and bad == math.inf)
    if coef != "m_max":
        assert f"zone Z^24: {coef} must be finite: {bad!r}" in \
            report.violations


def test_fixed_rule_not_enforced_when_flag_off(params, zones):
    rules = tuple(ZoneRule(r.bearer_pa, r.axillary_pa, m1=r.m1 + 1.0,
                           m2=r.m2, m_max=r.m_max + 1.0, a1=r.a1, a2=r.a2)
                  for r in zones.rules)
    free = ZoneRuleSet(rules=rules, eq_fixed=False)
    assert validate_parameters(params, free).ok


def test_p_rg_reference_pinned(params):
    report = validate_parameters(params.with_values(p_rg=(0.9, 0.1, 0.05, 0.01)))
    assert any("p_rg(1)" in v for v in report.violations)


@pytest.mark.parametrize("field,value,token", [
    ("alpha", 0.0, "alpha"),
    ("alpha", 1.5, "alpha"),
    ("gamma", -0.1, "gamma"),
    ("sp0", 0.0, "sp0"),
    ("root_fraction", 1.0, "root_fraction"),
    ("wood_density", 0.0, "wood_density"),
])
def test_parameter_bounds(params, field, value, token):
    report = validate_parameters(params.with_values(**{field: value}))
    assert any(token in v for v in report.violations)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", [f.name for f in fields(GrowthParameters)])
def test_non_finite_parameters_rejected(params, field, bad):
    # every field and every tuple entry, the last one here
    value = getattr(params, field)
    value = value[:-1] + (bad,) if isinstance(value, tuple) else bad
    report = validate_parameters(params.with_values(**{field: value}))
    assert f"{field} must be finite: {value!r}" in report.violations


def test_round_half_away():
    assert round_half_away(3.4) == 3
    assert round_half_away(3.5) == 4
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.0) == 0


def test_slw_schedule_interpolates_and_clamps(params):
    assert params.slw_at(21) == pytest.approx(0.0072)
    assert params.slw_at(46) == pytest.approx(0.0093)
    assert params.slw_at(10) == pytest.approx(0.0072)   # clamped young
    assert params.slw_at(60) == pytest.approx(0.0093)   # clamped old
    mid = params.slw_at(33.5)
    assert 0.0072 < mid < 0.0093


def test_zone_sequence_is_acrotonic(zones):
    order = [r.axillary_pa for r in zones.zones_of(2)]
    assert order == [0, 4, 3, 2]


def test_target_validation_catches_problems():
    script = (TrunkScriptEntry(1, 2, ((3, 5),)),)
    report = validate_target(script_only_dataset(script))
    assert any("more branches" in v for v in report.violations)


def test_target_validation_empty_script():
    report = validate_target(script_only_dataset(()))
    assert any("empty" in v for v in report.violations)


def test_growth_parameters_immutable(params):
    with pytest.raises(Exception):
        params.alpha = 0.5


def test_internode_leaf_ratio_per_class(params):
    assert params.internode_leaf_ratio(4) == pytest.approx(0.065)
    for pa in (1, 2, 3):
        assert params.internode_leaf_ratio(pa) == pytest.approx(0.7)


def test_zone_rule_lookup(zones):
    assert zones.get(2, 4).m2 == pytest.approx(1.1)
    assert zones.get(3, 2) is None
    assert not zones.get(2, 0).branching
    assert math.isfinite(zones.get(2, 0).m_max)


def test_every_exported_name_resolves():
    import treesink
    assert [n for n in treesink.__all__ if not hasattr(treesink, n)] == []
