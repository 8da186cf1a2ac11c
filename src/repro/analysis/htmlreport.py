"""Self-contained HTML rendering of a campaign artifact.

``python -m repro report --json campaign.json --html out.html`` funnels
through :func:`render_html_report`: one HTML file, no external assets,
no JavaScript — inline CSS, an inline SVG for the coverage saturation
curve, plain tables for the profiler/coverage/metrics numbers, the
provenance audit (prune causes, race graph, wakeup-tree admissions,
corpus energy), the span timeline when ``--trace`` is given, and the
embedded counterexample timelines in ``<pre>`` blocks.  The input is the
JSON artifact the CLI writes (see :mod:`repro.cli`), so reports can be
regenerated from CI artifacts long after the campaign ran.
"""

from __future__ import annotations

import html
from typing import Any, Dict, Iterable, List, Optional, Sequence

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1c2733; }
h1 { border-bottom: 2px solid #1c2733; padding-bottom: .3rem; }
h2 { margin-top: 2rem; }
table { border-collapse: collapse; margin: .75rem 0; }
th, td { border: 1px solid #b9c2cc; padding: .3rem .7rem; text-align: right; }
th { background: #eef2f6; }
td:first-child, th:first-child { text-align: left; }
pre { background: #f6f8fa; border: 1px solid #d7dde3; padding: .8rem;
      overflow-x: auto; font-size: .85rem; }
.verdict { display: inline-block; padding: .15rem .7rem; border-radius: .3rem;
           color: #fff; font-weight: 600; }
.verdict-ok { background: #1a7f37; }
.verdict-fail { background: #c4302b; }
.verdict-unknown { background: #b58105; }
svg { background: #fcfdfe; border: 1px solid #d7dde3; }
.note { color: #5a6773; font-size: .9rem; }
.bar { display: inline-block; height: .7rem; background: #4078c0;
       vertical-align: baseline; }
ul.spans, ul.spans ul { list-style: none; padding-left: 1.2rem; }
ul.spans li { border-left: 2px solid #d7dde3; padding: .1rem 0 .1rem .6rem;
              margin: .15rem 0; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(_fmt(v))}</td>" for v in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _saturation_svg(
    curve: Sequence[Sequence[int]], width: int = 640, height: int = 200
) -> str:
    """The saturation curve ("new histories per bucket") as inline SVG."""
    if not curve:
        return "<p class='note'>no saturation samples recorded</p>"
    pad = 34
    xs = [start for start, _ in curve]
    ys = [new for _, new in curve]
    x_max = max(xs) or 1
    y_max = max(ys) or 1
    inner_w, inner_h = width - 2 * pad, height - 2 * pad

    def px(x: int) -> float:
        return pad + (x / x_max) * inner_w if x_max else pad

    def py(y: int) -> float:
        return height - pad - (y / y_max) * inner_h

    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in curve)
    dots = "".join(
        f"<circle cx='{px(x):.1f}' cy='{py(y):.1f}' r='3' fill='#2563eb'/>"
        for x, y in curve
    )
    return (
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        "role='img' aria-label='coverage saturation curve'>"
        f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
        f"y2='{height - pad}' stroke='#5a6773'/>"
        f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' "
        "stroke='#5a6773'/>"
        f"<polyline points='{points}' fill='none' stroke='#2563eb' "
        "stroke-width='2'/>"
        f"{dots}"
        f"<text x='{width - pad}' y='{height - pad + 16}' text-anchor='end' "
        f"font-size='11'>campaign position (max {x_max})</text>"
        f"<text x='{pad}' y='{pad - 8}' font-size='11'>new histories per "
        f"bucket (max {y_max})</text>"
        "</svg>"
    )


def _coverage_section(coverage: Optional[Dict[str, Any]]) -> str:
    if not coverage:
        return ""
    # Lazy: avoid a hard analysis → obs import edge at module load.
    from repro.obs.coverage import CoverageTracker

    tracker = CoverageTracker.from_snapshot(coverage)
    report = tracker.report(bucket=tracker.bucket_for(24))
    facets = _table(
        ["facet", "distinct"],
        [
            ["runs observed", report["observed"]],
            ["histories", report["distinct_histories"]],
            ["history shapes", report["distinct_history_shapes"]],
            ["schedule prefixes", report["distinct_schedule_prefixes"]],
            ["spec transitions", report["spec_transitions"]],
        ],
    )
    depths = _table(
        ["prefix depth", "distinct prefixes"],
        sorted(report["prefix_depths"].items()),
    )
    svg = _saturation_svg(report["saturation"])
    return (
        "<h2>Schedule-space coverage</h2>"
        + facets
        + "<h3>Decision-tree spread</h3>"
        + depths
        + "<h3>Saturation</h3>"
        + svg
    )


def _profile_section(artifact: Dict[str, Any]) -> str:
    rows: List[Dict[str, Any]] = artifact.get("profile") or []
    if not rows:
        return ""
    effort = _table(
        ["checker", "object", "width", "completions", "nodes", "nodes/compl", "nodes max"],
        [
            [
                r["checker"],
                r["oid"],
                r["width"],
                r["completions"],
                r["nodes"],
                r["nodes_per_completion"],
                r["nodes_max"],
            ]
            for r in rows
        ],
    )
    quality = _table(
        ["checker", "object", "width", "memo hit-rate", "candidates", "rejections", "frontier mean", "frontier max"],
        [
            [
                r["checker"],
                r["oid"],
                r["width"],
                r["memo_hit_rate"],
                r["candidates"],
                r["rejections"],
                r["frontier_mean"],
                r["frontier_max"],
            ]
            for r in rows
        ],
    )
    return "<h2>Search profile</h2>" + effort + quality


def _stats_section(artifact: Dict[str, Any]) -> str:
    stats = artifact.get("stats") or {}
    counters = {
        name: value
        for name, value in (stats.get("counters") or {}).items()
        if not name.startswith("profile.")
    }
    if not counters:
        return ""
    return "<h2>Campaign counters</h2>" + _table(
        ["counter", "value"], sorted(counters.items())
    )


def _counterexample_section(artifact: Dict[str, Any]) -> str:
    entries = artifact.get("counterexamples") or []
    if not entries:
        return ""
    parts = ["<h2>Counterexamples</h2>"]
    for entry in entries:
        title = f"{entry.get('verdict', '?').upper()}: {entry.get('reason', '')}"
        meta = []
        if entry.get("seed") is not None:
            meta.append(f"seed {entry['seed']}")
        if entry.get("oid"):
            meta.append(f"object {entry['oid']}")
        meta.append(f"{entry.get('operations', 0)} operation(s)")
        parts.append(f"<h3>{_esc(title)}</h3>")
        parts.append(f"<p class='note'>{_esc(', '.join(meta))}</p>")
        parts.append(f"<pre>{_esc(entry.get('timeline', ''))}</pre>")
        if entry.get("replay_snippet"):
            parts.append("<p class='note'>replay:</p>")
            parts.append(f"<pre>{_esc(entry['replay_snippet'])}</pre>")
    dropped = artifact.get("counterexamples_dropped", 0)
    if dropped:
        parts.append(
            f"<p class='note'>{dropped} further counterexample(s) not "
            "embedded — rerun with --trace and replay from the artifact.</p>"
        )
    return "".join(parts)


def _hbar_table(
    title_headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """A table whose last column is a value rendered with a proportional
    horizontal bar — the no-JS histogram of the provenance section."""
    values = [row[-1] for row in rows]
    peak = max([v for v in values if isinstance(v, (int, float))] + [1])
    head = "".join(f"<th>{_esc(h)}</th>" for h in title_headers)
    body_rows = []
    for row in rows:
        cells = "".join(f"<td>{_esc(_fmt(v))}</td>" for v in row[:-1])
        value = row[-1]
        width = int(round(160 * value / peak)) if peak else 0
        bar = (
            f"<td><span class='bar' style='width:{width}px'></span> "
            f"{_esc(_fmt(value))}</td>"
        )
        body_rows.append(f"<tr>{cells}{bar}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body_rows)}</tbody></table>"
    )


def _provenance_section(audit: Dict[str, Any]) -> str:
    """The exploration-provenance ledger under the audit's badge;
    ``audit`` is :func:`~repro.obs.provenance.audit_artifact`'s result."""
    ledger, failure = audit["ledger"], audit["failure"]
    parts = ["<h2>Exploration provenance</h2>"]
    if ledger is None:
        return parts[0] + f"<p class='note'>{_esc(failure)}</p>"
    # Lazy, like _coverage_section: no analysis → obs edge at import.
    from repro.obs.provenance import ledger_report

    report = ledger_report(ledger)
    books = report["reconciliation"]
    if books["visited"] or failure:
        badge = (
            "<span class='verdict verdict-ok'>balanced</span>"
            if failure is None
            else f"<span class='verdict verdict-fail'>{_esc(failure)}</span>"
        )
        parts.append(f"<h3>Schedule dispositions {badge}</h3>")
        parts.append(
            _table(
                ["disposition", "count"],
                [
                    ["visited", books["visited"]],
                    ["executed", books["executed"]],
                    ["completed", books["completed"]],
                    ["pruned", books["pruned"]],
                    ["roots", books["roots"]],
                    ["advances", books["advances"]],
                    ["race reversals", books["race_reversals"]],
                ],
            )
        )
    if report["prune_causes"]:
        parts.append("<h3>Prune causes</h3>")
        parts.append(
            _hbar_table(
                ["cause", "pruned"], sorted(report["prune_causes"].items())
            )
        )
    if report["wakeups"]:
        parts.append("<h3>Wakeup-tree admissions</h3>")
        parts.append(
            _hbar_table(
                ["outcome", "count"], sorted(report["wakeups"].items())
            )
        )
    if report["races"]:
        parts.append("<h3>Race graph</h3>")
        rows = []
        for edge, count in sorted(report["races"].items()):
            exemplar = ledger.evidence.get(edge) or {}
            steps = (
                f"{exemplar.get('i')} &lt; {exemplar.get('j')}"
                if exemplar
                else ""
            )
            rows.append([edge, steps, count])
        parts.append(_hbar_table(["earlier → later", "e.g. steps", "races"], rows))
    greybox = report["greybox"]
    if greybox:
        picks = {
            name[len("pick."):]: value
            for name, value in greybox.items()
            if name.startswith("pick.")
        }
        if picks:
            parts.append("<h3>Corpus energy at pick time</h3>")
            # High-energy buckets first, the order ENERGY_BUCKETS defines.
            from repro.obs.provenance import ENERGY_BUCKETS

            order = [label for _, label in ENERGY_BUCKETS] + ["<0.25"]
            rows = [
                [label, picks[label]] for label in order if label in picks
            ]
            parts.append(_hbar_table(["energy", "picks"], rows))
        others = {
            name: value
            for name, value in greybox.items()
            if not name.startswith("pick.")
        }
        if others:
            parts.append("<h3>Greybox telemetry</h3>")
            parts.append(_hbar_table(["counter", "count"], sorted(others.items())))
    return "".join(parts)


def _span_items(nodes: Sequence[Dict[str, Any]]) -> str:
    items = []
    for node in nodes:
        flags = []
        if node.get("visits", 0) > 1:
            flags.append(f"{node['visits']} visits")
        if node.get("open"):
            flags.append("open")
        suffix = f" <em>({', '.join(flags)})</em>" if flags else ""
        children = node.get("children") or ()
        nested = f"<ul>{_span_items(children)}</ul>" if children else ""
        items.append(
            f"<li><code>{_esc(node.get('span_id', ''))}</code> "
            f"{_fmt(node.get('elapsed_s', 0.0))}s{suffix}{nested}</li>"
        )
    return "".join(items)


def _span_section(spans: Sequence[Dict[str, Any]]) -> str:
    if not spans:
        return ""
    return (
        "<h2>Span timeline</h2>"
        "<p class='note'>Hierarchical spans with deterministic ids: the "
        "traces of sequential, forked and resumed invocations of the "
        "same campaign reassemble into this one tree.</p>"
        f"<ul class='spans'>{_span_items(spans)}</ul>"
    )


def render_html_report(
    artifact: Dict[str, Any],
    spans: Sequence[Dict[str, Any]] = (),
    audit: Optional[Dict[str, Any]] = None,
) -> str:
    """One self-contained HTML page for a campaign artifact dict.

    ``spans`` (:func:`~repro.obs.tracing.assemble_spans` over the
    campaign's trace) adds the span timeline; ``audit`` is
    :func:`~repro.obs.provenance.audit_artifact`'s result for the
    artifact, computed here when not given.
    """
    if audit is None:
        from repro.obs.provenance import audit_artifact

        audit = audit_artifact(artifact)
    verdict = str(artifact.get("verdict", "UNKNOWN"))
    css_class = {
        "OK": "verdict-ok",
        "FAIL": "verdict-fail",
    }.get(verdict, "verdict-unknown")
    tallies = artifact.get("tallies") or {}
    title = (
        f"{artifact.get('kind', 'campaign')} · {artifact.get('workload', '?')}"
    )
    head = (
        f"<h1>{_esc(title)} "
        f"<span class='verdict {css_class}'>{_esc(verdict)}</span></h1>"
        f"<p class='note'>checker: {_esc(artifact.get('checker', '?'))} · "
        f"elapsed: {_fmt(artifact.get('elapsed_s', 0.0))}s</p>"
    )
    sections = [
        head,
        _table(["tally", "value"], sorted(tallies.items())),
        _coverage_section(artifact.get("coverage")),
        _profile_section(artifact),
        _stats_section(artifact),
        _provenance_section(audit),
        _span_section(spans),
        _counterexample_section(artifact),
    ]
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        "<body>" + "".join(sections) + "</body></html>"
    )
