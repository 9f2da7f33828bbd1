"""The canonical JSONL line codec against its definition.

``event_to_json_line`` renders events through a per-class codec; the
canonical line is defined as ``json.dumps(event_to_dict(e),
sort_keys=True, separators=(",", ":"))``, kept here as the oracle.  The
property test draws every registered event class with values well past
what simulations emit (NaN, infinities, negative zero, non-ASCII, control
and surrogate characters, integers beyond 64 bits) and in any
``__dict__`` insertion order, as ``Observability.emit_new`` installs
them.  The fallback cases pin the events the codec must hand to ``json``:
values of a subclass or foreign type, a ``__dict__`` that is not exactly
the declared fields, and values ``json`` cannot serialize.
"""

import dataclasses
import enum
import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import sinks
from repro.obs.events import EVENT_TYPES, CpmStepEvent, ObsEvent, event_to_dict
from repro.obs.sinks import event_to_json_line


def canonical_line(event) -> str:
    """The canonical line's definition (the codec's oracle)."""
    return json.dumps(event_to_dict(event), sort_keys=True, separators=(",", ":"))


_VALUES = {
    str: st.text(st.characters(exclude_categories=()), max_size=24),  # with surrogates
    int: st.integers(min_value=-(2**70), max_value=2**70),
    float: st.floats() | st.sampled_from((-0.0, float("nan"), float("inf"), float("-inf"))),
    bool: st.booleans(),
}


@st.composite
def events(draw, cls):
    """An instance of ``cls`` with its fields in a drawn insertion order."""
    hints = typing.get_type_hints(cls)
    names = draw(st.permutations([field.name for field in dataclasses.fields(cls)]))
    event = object.__new__(cls)
    object.__setattr__(
        event, "__dict__", {name: draw(_VALUES[hints[name]]) for name in names}
    )
    return event


ANY_EVENT = st.one_of([events(cls) for cls in EVENT_TYPES.values()])


def _step(**overrides) -> CpmStepEvent:
    fields = dict(
        seq=3, core_label="P0C1", workload="idle",
        reduction_steps=4, safe=False, slack_ps=-0.75,
    )
    fields.update(overrides)
    event = object.__new__(CpmStepEvent)
    object.__setattr__(event, "__dict__", fields)
    return event


class Level(enum.IntEnum):
    HIGH = 7


class Label(str):
    pass


class TestCodecMatchesJson:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(event=ANY_EVENT)
    def test_every_event_class_matches_the_oracle(self, event):
        assert event_to_json_line(event) == canonical_line(event)

    def test_lines_are_ascii(self):
        event = _step(core_label="P0C1é☃\n\x00\ud800")
        line = event_to_json_line(event)
        assert line.isascii()
        assert line == canonical_line(event)

    def test_base_event_with_one_field(self):
        event = ObsEvent(seq=5)
        assert event_to_json_line(event) == '{"seq":5,"type":"ObsEvent"}'


class TestStringMemo:
    def test_string_first_seen_after_the_memo_filled_is_memoized(self):
        # A fleet stream names eight new cores per chip: labels that first
        # appear after the memo filled must still be served from it.
        memo = sinks._LITERALS[str].__self__
        for index in range(sinks._STR_MEMO_LIMIT + 1):
            event = _step(core_label=f"F{index}C0")
            assert event_to_json_line(event) == canonical_line(event)
        assert len(memo) <= sinks._STR_MEMO_LIMIT
        late = f"F{sinks._STR_MEMO_LIMIT}C0"
        assert late in memo
        assert memo[late] == json.dumps(late)


class TestFallback:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"slack_ps": np.float64(1.5)},
            {"slack_ps": np.float64("nan")},
            {"reduction_steps": Level.HIGH},
            {"core_label": Label("P0C1")},
            {"hostname": "extra"},  # an emit_new call with an extra field
            {"type": "Spoofed"},  # an extra key the discriminator shadows
            {"slack_ps": None},
        ],
        ids=["np-float64", "np-nan", "int-enum", "str-subclass", "extra-key",
             "type-key", "none"],
    )
    def test_fallback_lines_match_the_oracle(self, overrides):
        event = _step(**overrides)
        assert event_to_json_line(event) == canonical_line(event)

    @pytest.mark.parametrize("renamed", [None, "slack"], ids=["missing", "renamed"])
    def test_missing_key_matches_the_oracle(self, renamed):
        event = _step()
        value = event.__dict__.pop("slack_ps")
        if renamed is not None:  # same key count, one unknown name
            event.__dict__[renamed] = value
        assert event_to_json_line(event) == canonical_line(event)

    @pytest.mark.parametrize(
        "value", [{1, 2}, object(), np.bool_(True), np.int64(3)],
        ids=["set", "object", "np-bool", "np-int64"],
    )
    def test_unserializable_value_raises_like_json(self, value):
        event = _step(slack_ps=value)
        with pytest.raises(Exception) as expected:
            canonical_line(event)
        with pytest.raises(expected.type) as raised:
            event_to_json_line(event)
        assert str(raised.value) == str(expected.value)

    def test_class_with_a_type_field(self):
        typed = dataclasses.make_dataclass(
            "TypedEvent", [("type", str)], bases=(ObsEvent,), frozen=True
        )
        event = typed(seq=1, type="shadowed")
        assert event_to_json_line(event) == canonical_line(event)
        assert json.loads(event_to_json_line(event))["type"] == "shadowed"

    def test_percent_in_class_name(self):
        odd = dataclasses.make_dataclass(
            "Odd%sEvent", [("note", str)], bases=(ObsEvent,), frozen=True
        )
        event = odd(seq=2, note="100%")
        assert event_to_json_line(event) == canonical_line(event)
