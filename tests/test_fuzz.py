"""Property tests: the config file round trip and the parameter validator."""
import dataclasses
import math

from hypothesis import given, settings, strategies as st

from syndemic.cli import ConfigError, RunConfig, format_config, parse_config
from syndemic.model import PARAMETER_FIELDS, Parameters, validate_parameters

# Deterministic and bounded, so tier-1 stays reproducible and fast.
FUZZ = settings(max_examples=40, deadline=None, database=None,
                derandomize=True)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def initial_states(draw):
    """None, absolute counts, or fractions summing to 1 with a total."""
    kind = draw(st.sampled_from(["none", "counts", "fractions"]))
    if kind == "none":
        return None, None
    if kind == "counts":
        return tuple(draw(st.lists(finite, min_size=10, max_size=10))), None
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                            min_size=10, max_size=10).filter(
        lambda w: sum(w) > 0.0))
    fractions = tuple(w / math.fsum(weights) for w in weights)
    return fractions, draw(positive)


# Any text, with the characters the line format cannot hold (a comment
# marker, the str.splitlines separators, whitespace) drawn often: such a
# token must be refused by format_config.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
out_tokens = st.text(st.one_of(st.characters(),
                               st.sampled_from("# \t" + _LINE_BREAKS)),
                     max_size=20)

n_ref_tokens = st.one_of(st.none(), st.sampled_from(["dfe", "N0"]),
                         positive.map(repr))


@st.composite
def run_configs(draw):
    init_values, init_total = draw(initial_states())
    return RunConfig(
        assignments=draw(st.dictionaries(st.sampled_from(PARAMETER_FIELDS),
                                         finite)),
        init_values=init_values,
        init_total=init_total,
        horizon=draw(finite),
        rel_tol=draw(finite),
        abs_tol=draw(st.none() | finite),
        n_ref=draw(n_ref_tokens),
        out=draw(st.none() | out_tokens))


@FUZZ
@given(run_configs())
def test_config_round_trip(cfg):
    try:
        text = format_config(cfg)
    except ConfigError:
        assert ("#" in cfg.out or cfg.out != cfg.out.strip()
                or any(c in cfg.out for c in _LINE_BREAKS))
        return
    assert parse_config(text) == cfg


_AT_LEAST_ONE = ("beta2p", "psi", "delta", "eta")


@st.composite
def valid_parameters(draw):
    values = {}
    for name in PARAMETER_FIELDS:
        if name in ("Lambda", "mu"):
            values[name] = draw(st.floats(min_value=1e-6, max_value=1e6))
        elif name == "beta1p":
            values[name] = draw(st.floats(min_value=0.0, max_value=1.0))
        elif name in _AT_LEAST_ONE:
            values[name] = draw(st.floats(min_value=1.0, max_value=1e3))
        else:
            values[name] = draw(st.floats(min_value=0.0, max_value=1e3))
    return Parameters(**values)


bad_values = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))


@FUZZ
@given(valid_parameters(), st.sampled_from(PARAMETER_FIELDS), bad_values)
def test_validator_rejects_each_non_finite_or_negative_field(params, name,
                                                             value):
    assert validate_parameters(params) == []
    bad = dataclasses.replace(params, **{name: value})
    problems = validate_parameters(bad)
    assert any(message.startswith(f"{name} ") for message in problems)
