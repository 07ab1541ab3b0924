"""Exporters and the live terminal dashboard for fleet metrics.

Three ways out of a :class:`~repro.obs.registry.FleetAggregator` rollup,
each reading its schema-1 family layout
(:meth:`~repro.obs.registry.FleetAggregator.families`):

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}``
  histogram series), validated in CI by :func:`validate_prometheus_text`
  so the output stays scrapeable without a Prometheus install;
* :func:`registry_jsonl` — one JSON line per sample, for the same
  tail-friendly pipelines the campaign telemetry stream uses;
* :func:`render_dashboard` + :class:`MultiLineWriter` — a rewriting
  multi-line terminal panel (campaign progress, fleet tail latency,
  per-policy SLO verdicts) that ``--dashboard`` drives live, and
  :func:`html_report` — the same panel frozen into a static HTML file.

Everything here is a pure function of already-collected metrics; nothing
imports :mod:`repro.ssd` or :mod:`repro.campaign`.
"""

from __future__ import annotations

import html as _html
import io
import json
import re
import sys
from typing import Dict, List, Optional, Sequence, TextIO

from ..errors import SimulationError
from .slo import SloReport
from .telemetry import format_duration

_EXPOSITION_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Prometheus accepts floats everywhere; render integers without ".0"
    # so counters read naturally.
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(names: Sequence[str], values: Sequence[str],
               extra: Optional[Dict[str, str]] = None) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    for name, value in (extra or {}).items():
        pairs.append(f'{name}="{_escape_label(value)}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def prometheus_text(fleet) -> str:
    """Render a fleet rollup in the Prometheus text exposition format.

    Histograms become the conventional cumulative series: one
    ``_bucket{le="<upper edge>"}`` per *occupied* bucket (plus
    ``le="+Inf"``), with underflow samples folded into every bucket and
    overflow only into ``+Inf`` — so ``+Inf`` always equals ``_count``.
    """
    lines: List[str] = []
    for family, samples in fleet.families():
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, value in samples:
            if family.kind != "histogram":
                labels = _label_str(family.label_names, values)
                lines.append(f"{family.name}{labels} {_format_value(value)}")
                continue
            hist = value
            cumulative = hist.underflow
            for index in sorted(hist.counts):
                cumulative += hist.counts[index]
                labels = _label_str(
                    family.label_names, values,
                    {"le": repr(hist.bucket_upper_edge(index))})
                lines.append(f"{family.name}_bucket{labels} {cumulative}")
            labels = _label_str(family.label_names, values, {"le": "+Inf"})
            lines.append(f"{family.name}_bucket{labels} {hist.count}")
            plain = _label_str(family.label_names, values)
            lines.append(f"{family.name}_sum{plain} "
                         f"{_format_value(hist.sum_us)}")
            lines.append(f"{family.name}_count{plain} {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""


def validate_prometheus_text(text: str) -> dict:
    """Structurally validate exposition text; raises on malformed output.

    Checks metric/label syntax, known ``# TYPE`` kinds, monotone
    histogram buckets, and the ``+Inf == _count`` invariant.  Returns a
    summary dict (families/samples counted) for CI logs.
    """
    kinds: Dict[str, str] = {}
    samples = 0
    buckets: Dict[str, List[float]] = {}  # series key -> cumulative counts
    inf_counts: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                raise SimulationError(f"line {lineno}: bad TYPE line {line!r}")
            if not _EXPOSITION_NAME_RE.match(parts[2]):
                raise SimulationError(
                    f"line {lineno}: bad metric name {parts[2]!r}")
            if parts[2] in kinds:
                raise SimulationError(
                    f"line {lineno}: duplicate TYPE for {parts[2]}")
            kinds[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE_RE.match(line)
        if match is None:
            raise SimulationError(f"line {lineno}: malformed sample {line!r}")
        name, labels, value = (match.group("name"), match.group("labels"),
                               match.group("value"))
        try:
            number = float(value)
        except ValueError:
            raise SimulationError(
                f"line {lineno}: non-numeric value {value!r}") from None
        label_map: Dict[str, str] = {}
        if labels:
            for pair in re.split(r",(?=[a-zA-Z_])", labels):
                pair_match = _LABEL_PAIR_RE.match(pair)
                if pair_match is None:
                    raise SimulationError(
                        f"line {lineno}: malformed label pair {pair!r}")
                label_map[pair_match.group("name")] = pair_match.group("value")
        samples += 1
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in kinds:
                base = name[:-len(suffix)]
                break
        if base not in kinds:
            raise SimulationError(
                f"line {lineno}: sample {name!r} has no # TYPE header")
        if kinds[base] == "histogram" and name == base + "_bucket":
            if "le" not in label_map:
                raise SimulationError(
                    f"line {lineno}: histogram bucket without le label")
            key = name + "|" + ",".join(
                f"{k}={v}" for k, v in sorted(label_map.items())
                if k != "le")
            if label_map["le"] == "+Inf":
                inf_counts[key] = number
            else:
                series = buckets.setdefault(key, [])
                if series and number < series[-1]:
                    raise SimulationError(
                        f"line {lineno}: bucket counts not monotone")
                series.append(number)
        if kinds.get(base) == "histogram" and name == base + "_count":
            key = base + "_bucket|" + ",".join(
                f"{k}={v}" for k, v in sorted(label_map.items()))
            counts[key] = number
    for key, inf in inf_counts.items():
        series = buckets.get(key, [])
        if series and series[-1] > inf:
            raise SimulationError(f"{key}: finite bucket exceeds +Inf")
        if key in counts and counts[key] != inf:
            raise SimulationError(
                f"{key}: +Inf bucket {inf} != _count {counts[key]}")
    return {"families": len(kinds), "samples": samples,
            "histograms": sum(1 for k in kinds.values() if k == "histogram")}


def registry_jsonl(fleet) -> str:
    """One JSON object per metric sample of a fleet rollup (histograms
    stay sparse dicts)."""
    buffer = io.StringIO()
    for family, samples in fleet.families():
        for values, value in samples:
            record = {
                "metric": family.name,
                "kind": family.kind,
                "labels": dict(zip(family.label_names, values)),
            }
            if family.kind == "histogram":
                record["hist"] = value.to_dict()
            else:
                record["value"] = value
            buffer.write(json.dumps(record, sort_keys=True) + "\n")
    return buffer.getvalue()


class MultiLineWriter:
    """Rewriting multi-line terminal block (ANSI cursor-up based).

    The multi-line sibling of
    :class:`~repro.obs.telemetry.LiveLineWriter`: each :meth:`update`
    repaints the whole block in place; :meth:`finish` leaves the final
    frame on screen and restores normal scrolling output.
    """

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream or sys.stderr
        self._height = 0

    def update(self, lines: Sequence[str]) -> None:
        out = []
        if self._height:
            out.append(f"\x1b[{self._height}F")  # to the block's first line
        for line in lines:
            out.append("\x1b[2K" + line + "\n")  # clear, then repaint
        # shrinkage: blank any rows the previous frame used below this one
        for _ in range(self._height - len(lines)):
            out.append("\x1b[2K\n")
        if self._height > len(lines):
            out.append(f"\x1b[{self._height - len(lines)}F")
        self.stream.write("".join(out))
        self.stream.flush()
        self._height = len(lines)

    def finish(self, lines: Optional[Sequence[str]] = None) -> None:
        if lines is not None:
            self.update(lines)
        self._height = 0


def _fmt_us(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:9.1f}"


def render_dashboard(fleet, done: int = 0, total: int = 0,
                     failed: int = 0, elapsed_s: float = 0.0,
                     slo_reports: Optional[Sequence[SloReport]] = None,
                     width: int = 100) -> List[str]:
    """The fleet panel as a list of terminal lines.

    ``fleet`` duck-types :class:`~repro.obs.registry.FleetAggregator`;
    ``slo_reports`` (from :func:`repro.obs.slo.evaluate_fleet`) adds a
    per-policy verdict column when given.
    """
    lines = []
    header = f"── fleet {done}/{total} cells"
    if fleet.cached:
        header += f" · {fleet.cached} cached"
    if failed:
        header += f" · {failed} FAILED"
    if elapsed_s > 0:
        header += f" · {format_duration(elapsed_s)}"
    lines.append(header[:width].ljust(width, "─")[:width])
    overall = fleet.overall_read_hist()
    if overall.count:
        lines.append(
            f"reads {overall.count:>10d}   p50 {overall.percentile(50.0):9.1f} us"
            f"   p99 {overall.percentile(99.0):9.1f} us"
            f"   p999 {overall.percentile(99.9):9.1f} us")
    else:
        lines.append("reads          0   (no latency samples yet)")
    verdicts: Dict[str, str] = {}
    for report in slo_reports or ():
        mark = "ok" if report.passed else f"FAIL {report.slo}"
        # a policy shows its first failing SLO, else "ok"
        if verdicts.get(report.subject, "ok") == "ok":
            verdicts[report.subject] = mark
    rows = fleet.policy_summary()
    if rows:
        lines.append(f"{'policy':<12} {'cells':>5} {'reads':>10} "
                     f"{'p50_us':>9} {'p99_us':>9} {'p999_us':>9} "
                     f"{'retry%':>7} {'degr':>4}  slo")
        for row in rows:
            lines.append(
                f"{row['policy']:<12} {row['cells']:>5d} {row['reads']:>10d} "
                f"{_fmt_us(row['p50_us'])} {_fmt_us(row['p99_us'])} "
                f"{_fmt_us(row['p999_us'])} "
                f"{100.0 * row['retry_rate']:>6.2f}% {row['degraded_cells']:>4d}"
                f"  {verdicts.get(row['policy'], '-')}")
    return [line[:width] for line in lines]


def html_report(fleet, slo_reports: Optional[Sequence[SloReport]] = None,
                title: str = "Fleet metrics report") -> str:
    """A dependency-free static HTML snapshot of the fleet panel."""
    rows = fleet.policy_summary()
    verdicts: Dict[str, List[SloReport]] = {}
    for report in slo_reports or ():
        verdicts.setdefault(report.subject, []).append(report)

    def cell(value) -> str:
        if value is None:
            return "<td>-</td>"
        if isinstance(value, float):
            return f"<td>{value:.1f}</td>"
        return f"<td>{_html.escape(str(value))}</td>"

    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title>",
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:0.3em 0.8em;text-align:right}"
        "th{background:#eee}td:first-child{text-align:left}"
        ".pass{color:#060}.fail{color:#a00;font-weight:bold}</style>",
        f"</head><body><h1>{_html.escape(title)}</h1>",
        f"<p>{fleet.cells} cells ({fleet.cached} cached, "
        f"{fleet.failed} failed)</p>",
        "<table><tr><th>policy</th><th>cells</th><th>reads</th>"
        "<th>p50 (us)</th><th>p99 (us)</th><th>p999 (us)</th>"
        "<th>retry rate</th><th>degraded cells</th><th>SLOs</th></tr>",
    ]
    for row in rows:
        marks = []
        for report in verdicts.get(row["policy"], []):
            klass = "pass" if report.passed else "fail"
            text = "PASS" if report.passed else "FAIL"
            marks.append(f"<span class='{klass}'>"
                         f"{_html.escape(report.slo)}: {text}</span>")
        parts.append(
            "<tr>" + cell(row["policy"]) + cell(row["cells"])
            + cell(row["reads"]) + cell(row["p50_us"]) + cell(row["p99_us"])
            + cell(row["p999_us"]) + f"<td>{100 * row['retry_rate']:.2f}%</td>"
            + cell(row["degraded_cells"])
            + "<td>" + (" ".join(marks) or "-") + "</td></tr>")
    parts.append("</table>")
    if slo_reports:
        parts.append("<h2>SLO verdicts</h2><table><tr><th>policy</th>"
                     "<th>SLO</th><th>rule</th><th>observed</th>"
                     "<th>limit</th><th>verdict</th></tr>")
        for report in slo_reports:
            for verdict in report.verdicts:
                klass = "pass" if verdict.ok else "fail"
                text = "ok" if verdict.ok else "VIOLATED"
                observed = ("-" if verdict.observed is None
                            else f"{verdict.observed:.4g}")
                parts.append(
                    f"<tr><td>{_html.escape(report.subject)}</td>"
                    f"<td>{_html.escape(report.slo)}</td>"
                    f"<td>{_html.escape(verdict.kind)}:"
                    f"{_html.escape(verdict.rule)}</td>"
                    f"<td>{observed}</td><td>{verdict.limit:.4g}</td>"
                    f"<td class='{klass}'>{text}</td></tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "".join(parts)
