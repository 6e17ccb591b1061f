import math
from dataclasses import fields, replace

import pytest

from treesink.calibration import AnnealSchedule, FitSpec
from treesink.core import (RANGES, GrowthParameters, InvalidValue,
                           SimulationError, TrunkScriptEntry, Violation,
                           ZoneRule, ZoneRuleSet, round_half_away,
                           validate_parameters, validate_target)
from treesink.synthetic import reference_zone_rules, script_only_dataset


def test_reference_configuration_passes(params, zones):
    report = validate_parameters(params, zones)
    assert report == [], report


def test_kilogram_scale_environment_passes(params, zones):
    # environment factors on a kg-per-m² scale are legal configurations;
    # validation is unit-agnostic
    p = params.with_values(v_env=(0.056, 0.1))
    assert validate_parameters(p, zones) == []


def test_lambda_out_of_range(params):
    report = validate_parameters(params.with_values(lambda_mix=1.2))
    assert [(v.kind, v.keys) for v in report] == [("range", ("lambda_mix",))]


def test_fixed_coefficient_rule_violation(params, zones):
    bad = zones.with_rule(ZoneRule(2, 2, m1=1.0, m2=0.1, m_max=1,
                                   a1=0.0, a2=0.05))
    assert validate_parameters(params, bad) == [Violation(
        ((2, 2),), "zone Z^22: fixed-coefficient rule requires m1 = 0, got 1")]


@pytest.mark.parametrize("coef", ["m1", "m2", "a1", "a2", "m_max"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_zone_coefficients_rejected(params, zones, coef, bad):
    # an infinite m_max means no cap, every other non-finite value is bad
    rule = zones.get(2, 4)
    report = validate_parameters(
        params, zones.with_rule(ZoneRule(**{**vars(rule), coef: bad})))
    assert (report == []) == (coef == "m_max" and bad == math.inf)
    if coef != "m_max":
        assert Violation(((2, 4),), f"zone Z^24: {coef} must be finite: "
                         f"{bad!r}", "range") in report


def test_fixed_rule_not_enforced_when_flag_off(params, zones):
    rules = tuple(ZoneRule(r.bearer_pa, r.axillary_pa, m1=r.m1 + 1.0,
                           m2=r.m2, m_max=r.m_max + 1.0, a1=r.a1, a2=r.a2)
                  for r in zones.rules)
    free = ZoneRuleSet(rules=rules, eq_fixed=False)
    assert validate_parameters(params, free) == []


def test_p_rg_reference_pinned(params):
    report = validate_parameters(params.with_values(p_rg=(0.9, 0.1, 0.05, 0.01)))
    assert report == [Violation(
        ("p_rg",), "p_rg(1) must equal 1 exactly (reference value): 0.9")]


#: the range rows whose numbers are integers
INTEGER_ROWS = {"pa_max", "short_shoot_metamers", "annealing steps_per_t",
                "seed", "max_nfev", "refit_every", "polish_rounds"}


def range_end_cases():
    """(row, value, the name its range violation gives or None) of each
    finite end of each row of RANGES: the end itself, accepted if it is
    closed, and one number beyond it (one float, or an integer row's next
    integer), rejected.  A vector row's value goes in its last entry, and
    a weight is trunk_mass's."""
    cases = []
    for name, (low, high, ends) in RANGES.items():
        entry = "weight_trunk_mass" if name == "weight" else name
        if isinstance(getattr(GrowthParameters, name, None), tuple):
            entry += f"({len(getattr(GrowthParameters, name))})"
        for end, closed, outward in ((low, ends[0] == "[", -math.inf),
                                     (high, ends[1] == "]", math.inf)):
            if math.isinf(end):
                continue
            if name in INTEGER_ROWS:
                beyond = end + (1 if outward > 0 else -1)
            else:
                end, beyond = float(end), math.nextafter(end, outward)
            cases += [(name, end, None if closed else entry),
                      (name, beyond, entry)]
    return cases


def range_violations(params, name, value):
    """The range violations that ``value`` in the row ``name`` gives where
    it is checked: validate_parameters for a parameter (a vector's last
    entry) or a zone field (zone Z^24's, its fixed coefficients not
    pinned), and the InvalidValue of AnnealSchedule or FitSpec for a fit
    setting or trunk_mass's weight."""
    if name in ("m1", "a1"):
        rules = reference_zone_rules().rules
        zones = ZoneRuleSet(rules=tuple(replace(r, **{name: value})
                                        if r.key == (2, 4) else r
                                        for r in rules), eq_fixed=False)
        report = validate_parameters(params, zones)
    elif hasattr(GrowthParameters, name):
        old = getattr(params, name)
        new = old[:-1] + (value,) if isinstance(old, tuple) else value
        report = validate_parameters(params.with_values(**{name: new}))
    else:
        try:
            if name.startswith("annealing "):
                AnnealSchedule(**{name.split()[1]: value})
            elif name == "weight":
                FitSpec(continuous=[], weights={"trunk_mass": value})
            else:
                FitSpec(continuous=[], **{name: value})
        except InvalidValue as exc:
            return [exc.violation]
        return []
    return [v for v in report if v.kind == "range"]


@pytest.mark.parametrize("field,value,token", range_end_cases())
def test_parameter_bounds(params, field, value, token):
    # every range of RANGES, at each finite end, each end printed in full
    violations = range_violations(params, field, value)
    if token is None:
        assert violations == []
        return
    low, high, ends = RANGES[field]
    condition = (f"{'>' if ends[0] == '(' else '>='} {low!r}"
                 if high == math.inf else
                 f"in {ends[0]}{low!r}, {high!r}{ends[1]}")
    message = f"{token} must be {condition}: {value!r}"
    if field in ("m1", "a1"):
        keys, message = ((2, 4),), f"zone Z^24: {message}"
    else:
        keys = (token.partition("(")[0],)
    assert violations == [Violation(keys, message, "range")]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", [f.name for f in fields(GrowthParameters)])
def test_non_finite_parameters_rejected(params, field, bad):
    # every field and every tuple entry, the last one here
    value = getattr(params, field)
    value = value[:-1] + (bad,) if isinstance(value, tuple) else bad
    report = validate_parameters(params.with_values(**{field: value}))
    assert Violation((field,), f"{field} must be finite: {value!r}",
                     "range") in report


def test_round_half_away():
    assert round_half_away(3.4) == 3
    assert round_half_away(3.5) == 4
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.0) == 0


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_round_half_away_rejects_non_finite(x):
    with pytest.raises(SimulationError, match=f"non-finite value {x}"):
        round_half_away(x)


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
    assert validate_target(script_only_dataset(script)) == [Violation(
        (("script", 0),), "script entry 1: more branches (5) than metamers (2)")]


def test_target_validation_empty_script():
    assert validate_target(script_only_dataset(())) == [
        Violation((), "trunk script is empty")]


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
