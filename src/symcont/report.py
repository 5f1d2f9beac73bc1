"""Deterministic report assembly and rendering.

All reports are plain dicts with stable key order (insertion order), so JSON
output is byte-identical across runs for fixed inputs, configuration, and
seed. Numbers appear in exact form only: an exact number is a string, and
the only JSON numbers are ints (counts and config values).

dump_json writes the bytes of ``json.dumps(report, indent=2) + "\n"``:
every item of a dict or list on a line of its own, indented two spaces
deeper than its container, with a comma ending each line that has a next
item; ``": "`` after a key; ``{}`` and ``[]`` for empty containers; every
string and key with ASCII escapes (``\\uXXXX`` for any other character);
and one trailing newline. A report holds only str, int, bool, None, dict
with str keys, list and tuple; anything else, a float or a subclass of int
or str included, is a TypeError.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .analysis import AnalysisConfig, ModulusProfile, Verdict, NOTIONS
from .exactnum import format_quadext


class _Unwritable(Exception):
    """A value dump_json does not write, with the keys and indices that lead
    to it, innermost first."""

    def __init__(self, value: object, key: bool = False) -> None:
        self.value, self.key = value, key
        self.path: list = []


def dump_json(data: dict | list | tuple) -> str:
    """The report as indented JSON (the module docstring gives the format).

    The document is appended to one list piece by piece and joined once,
    with every scalar written inline: with an indent, json.dumps runs its
    pure-Python encoder, which takes twice as long or more."""
    out: list[str] = []
    try:
        _write_container(data, out, "\n")
    except _Unwritable as exc:
        where = "$" + "".join(f"[{p!r}]" for p in reversed(exc.path))
        raise TypeError(
            f"cannot write {'the key ' if exc.key else ''}"
            f"{type(exc.value).__name__} {exc.value!r} at {where} "
            "as JSON: a report holds str, int, bool, None, dict with str keys, "
            "list and tuple only"
        ) from None
    out.append("\n")
    return "".join(out)


def _write_container(o: object, out: list[str], nl: str) -> None:
    """Append the JSON of the dict, list or tuple o, whose first line is
    already open and whose closing bracket goes after nl (a newline and the
    indent of o's own line)."""
    inner = nl + "  "
    t = type(o)
    if t is dict:
        if not o:
            out.append("{}")
            return
        lead, sep = "{" + inner, "," + inner
        try:
            for k, v in o.items():
                if type(k) is not str:
                    raise _Unwritable(k, key=True)
                out.append(lead + _quote(k) + ": ")
                lead = sep
                t = type(v)
                if t is str:
                    out.append(_quote(v))
                elif v is None:
                    out.append("null")
                elif v is True:
                    out.append("true")
                elif v is False:
                    out.append("false")
                elif t is int:
                    out.append(int.__repr__(v))
                elif t is dict or t is list or t is tuple:
                    _write_container(v, out, inner)
                else:
                    raise _Unwritable(v)
        except _Unwritable as exc:
            exc.path.append(k)
            raise
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        lead, sep = "[" + inner, "," + inner
        try:
            for i, v in enumerate(o):
                out.append(lead)
                lead = sep
                t = type(v)
                if t is str:
                    out.append(_quote(v))
                elif v is None:
                    out.append("null")
                elif v is True:
                    out.append("true")
                elif v is False:
                    out.append("false")
                elif t is int:
                    out.append(int.__repr__(v))
                elif t is dict or t is list or t is tuple:
                    _write_container(v, out, inner)
                else:
                    raise _Unwritable(v)
        except _Unwritable as exc:
            exc.path.append(i)
            raise
        out.append(nl + "]")
    else:
        raise _Unwritable(o)


def config_json(config: AnalysisConfig) -> dict:
    return {
        "delta_schedule": [format_quadext(d) for d in config.delta_schedule],
        "grid_exponent": config.grid_exponent,
        "max_pairs": config.max_pairs,
        "enum_limit": config.enum_limit,
        "seed": config.seed,
        "output_format": config.output_format,
    }


def analyze_report(
    domain_desc: str,
    function_desc: str,
    config: AnalysisConfig,
    verdicts: dict[str, Verdict],
    consistency: list[str],
    wrt_b: Verdict | None = None,
    witness_checks: dict[str, list[str]] | None = None,
) -> dict:
    report = {
        "command": "analyze",
        "domain": domain_desc,
        "function": function_desc,
        "config": config_json(config),
        "verdicts": {n: verdicts[n].to_json() for n in NOTIONS if n in verdicts},
        "consistency": list(consistency),
    }
    if wrt_b is not None:
        report["wrt_b"] = wrt_b.to_json()
    if witness_checks is not None:
        report["witness_checks"] = witness_checks
    return report


def moduli_report(
    domain_desc: str,
    function_desc: str,
    config: AnalysisConfig,
    profile: ModulusProfile,
) -> dict:
    return {
        "command": "moduli",
        "domain": domain_desc,
        "function": function_desc,
        "config": config_json(config),
        "profile": profile.to_json(),
    }


# ---------------------------------------------------------------------------
# text rendering


def _verdict_lines(verdict: dict, indent: str = "") -> list[str]:
    """Text lines of one verdict, read from its JSON form."""
    lines = [
        f"{indent}{verdict['notion']:<9} {verdict['status']:<12} "
        f"method={verdict['method']}  scope={verdict['scope']}"
    ]
    w = verdict["witness"]
    if w:
        kind = w.get("kind", "?")
        detail = ""
        if kind == "pair" and "x" in w:
            detail = f" x={w['x']} y={w['y']} osc={w.get('osc', '?')}"
        elif kind == "anchor":
            detail = f" anchor={w['anchor']} jump={w['jump']}"
        elif kind in ("pair_family", "sequence", "approach", "chain"):
            terms = w.get("terms") or w.get("records") or []
            if terms:
                detail = f" first: {json.dumps(terms[0])}"
        lines.append(f"{indent}  witness [{kind}]{detail}")
    if verdict["certificate"]:
        kind = verdict["certificate"].get("kind", "?")
        lines.append(f"{indent}  certificate [{kind}]")
    for note in verdict["notes"]:
        lines.append(f"{indent}  note: {note}")
    return lines


def render_analyze_text(report: dict) -> str:
    lines = [
        f"domain:   {report['domain']}",
        f"function: {report['function']}",
        "",
    ]
    for verdict_json in report["verdicts"].values():
        lines.extend(_verdict_lines(verdict_json))
    if "wrt_b" in report:
        lines.append("")
        lines.extend(_verdict_lines(report["wrt_b"]))
    if report["consistency"]:
        lines.append("")
        for flag in report["consistency"]:
            lines.append(f"CONSISTENCY: {flag}")
    if "witness_checks" in report:
        lines.append("")
        bad = {n: errs for n, errs in report["witness_checks"].items() if errs}
        if bad:
            for notion, errs in bad.items():
                for err in errs:
                    lines.append(f"WITNESS {notion}: {err}")
        else:
            lines.append("all witnesses re-verified")
    return "\n".join(lines) + "\n"


def render_moduli_text(report: dict) -> str:
    profile = report["profile"]
    lines = [
        f"domain:   {report['domain']}",
        f"function: {report['function']}",
        f"notion:   {profile['notion']}  points={profile['points']}"
        f"  sampled={profile['sampled']}  truncated={profile['truncated']}",
        "",
        f"{'delta':<22} {'omega':<22} challenges",
    ]
    for row in profile["rows"]:
        omega = "-" if row["omega"] is None else row["omega"]
        lines.append(f"{row['delta']:<22} {omega:<22} {row['challenges']}")
    return "\n".join(lines) + "\n"


def render_zoo_text(report: dict) -> str:
    lines: list[str] = []
    for case in report["cases"]:
        status = "ok" if case["ok"] else "MISMATCH"
        lines.append(f"{case['example']} [{case['case']}] {status}")
        lines.append(f"  domain:   {case['domain']}")
        lines.append(f"  function: {case['function']}")
        for verdict_json in case["verdicts"].values():
            lines.extend(_verdict_lines(verdict_json, indent="  "))
        if case["wrt_b"] is not None:
            w = case["wrt_b"]
            lines.append(
                f"  {w['notion']:<9} {w['status']:<12} "
                f"method={w['method']}  scope={w['scope']}"
            )
        for seq in case["sequences"]:
            mark = "verified" if seq["ok"] else f"FAILED: {seq['failure']}"
            extra = " (decides the verdict)" if seq["overrode_model_verdict"] else ""
            lines.append(
                f"  sequence [{seq['kind']}] {seq['terms_checked']} terms "
                f"{mark}{extra}"
            )
        for flag in case["consistency"]:
            lines.append(f"  CONSISTENCY: {flag}")
        for mm in case["mismatches"]:
            lines.append(f"  MISMATCH: {mm}")
        lines.append("")
    if report.get("relations"):
        lines.append("separation relations:")
    for rel in report.get("relations", []):
        mark = "confirmed" if rel["confirmed"] else "NOT CONFIRMED"
        lines.append(f"  {rel['relation']:<24} {mark}")
        for chk in rel["checks"]:
            ok = "ok" if chk["holds"] else "FAIL"
            lines.append(
                f"    {chk['example']}[{chk['case']}] {chk['notion']} "
                f"required={chk['required']} actual={chk['actual']} {ok}"
            )
    lines.append("")
    n = len(report["cases"])
    if report["ok"]:
        lines.append(f"zoo: all {n} cases match the expected verdicts")
    else:
        bad = sum(1 for c in report["cases"] if not c["ok"])
        lines.append(f"zoo: {bad} of {n} cases failed")
    return "\n".join(lines) + "\n"
