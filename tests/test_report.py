"""report.dump_json writes the bytes of json.dumps(x, indent=2) plus a
newline for every tree of str, int, bool, None, dict, list and tuple, and
refuses anything else by name and path."""

import enum
import json
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from symcont import AnalysisConfig, Budget, run_all
from symcont import cli
from symcont.report import dump_json

from conftest import REPO_ROOT

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.workloads import build_specs  # noqa: E402


def reference(x) -> str:
    return json.dumps(x, indent=2) + "\n"


# characters the ASCII escaping treats specially: quotes, backslashes,
# control characters, line and paragraph separators, lone surrogates,
# non-ASCII letters and astral characters
_SPECIAL = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029", "\ud800",
     "\udfff", "\u00e9", "\uffff", "\U0001f600", "/"]
)
TEXT = st.lists(st.one_of(st.characters(), _SPECIAL), max_size=8).map("".join)
SCALARS = st.one_of(
    TEXT,
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=20,
)
DOCUMENTS = st.one_of(
    st.dictionaries(TEXT, TREES, max_size=6),
    st.lists(TREES, max_size=6),
    st.lists(TREES, max_size=6).map(tuple),
)


class Level(enum.IntEnum):
    LOW = 1


class Label(str):
    pass


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
@example({"bools": [True, 1, False, 0], "": {}, "e": [], "t": ()})
@example([{"a": {"b": [[], {}, [[]]]}}, 10**80, -(10**80)])
@example({"\ud800\"\\\u2028": "\udfff\x00\u00e9"})
def test_matches_stdlib_indent_encoder(doc):
    assert dump_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"a": {"b": [0, 1.5]}}, "$['a']['b'][1]"),
        ([0.0], "$[0]"),
        ({"a": [{1: "x"}]}, "$['a'][0][1]"),
        ({"a": {None: 1}}, "$['a'][None]"),
        ({"level": Level.LOW}, "$['level']"),
        ({"ok": True, "label": Label("x")}, "$['label']"),
        ((1, [float("nan")]), "$[1][0]"),
        (1.5, "$"),
        ("a report", "$"),
    ],
)
def test_refuses_other_types_by_path(doc, where):
    with pytest.raises(TypeError, match=re.escape(f"at {where} as JSON")):
        dump_json(doc)


@pytest.fixture(scope="module")
def catalog_report() -> dict:
    """The report of `symcont zoo --all --format json`."""
    return {"command": "zoo", **run_all(AnalysisConfig(), Budget()).to_json()}


def test_catalog_report_matches(catalog_report):
    assert dump_json(catalog_report) == reference(catalog_report)


def test_catalog_report_skips_stdlib_encoder(catalog_report, monkeypatch):
    """The standard library's pure-Python indenting encoder is never run."""

    def refuse(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert dump_json(catalog_report).startswith('{\n  "command": "zoo",\n')


def test_spec_reports_match(tmp_path, monkeypatch):
    """Every JSON report of the benchmark's seed-1 spec files."""
    reports = []

    def recording(data):
        reports.append(data)
        return dump_json(data)

    monkeypatch.setattr(cli, "dump_json", recording)
    for op in build_specs(1, tmp_path):
        op.run()
    assert len(reports) > 100
    for data in reports:
        assert dump_json(data) == reference(data)
