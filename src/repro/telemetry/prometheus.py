"""Prometheus text-format exposition: rendering helpers and a strict parser.

The render helpers produce `text format version 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ output —
``# HELP`` / ``# TYPE`` headers followed by samples — for the three metric
shapes the engine exports:

* :func:`render_counter` — monotonically increasing totals (by convention
  the metric name ends in ``_total``);
* :func:`render_gauge` — point-in-time values (hit ratio, pool sizes);
* :func:`render_histogram` — cumulative ``_bucket{le=...}`` samples with
  explicit bounds plus the ``_sum`` / ``_count`` pair.

:func:`parse_exposition` is the other direction: a strict parser for the
same grammar (metric-name and label-name character sets, label-value escape
sequences, float values, ``NaN``/``Inf`` literals, one ``TYPE`` per metric
and only before its samples).  It exists so tests can hold
``EngineStats.to_prometheus()`` to the grammar instead of eyeballing
strings — it is not a scrape client.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MetricSample",
    "escape_help",
    "escape_label_value",
    "format_sample",
    "render_counter",
    "render_gauge",
    "render_histogram",
    "parse_exposition",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _check_metric_name(name: str) -> str:
    if not _METRIC_NAME.match(name):
        raise ValueError(f"invalid Prometheus metric name {name!r}")
    return name


def _check_label_name(name: str) -> str:
    if not _LABEL_NAME.match(name) or name.startswith("__"):
        raise ValueError(f"invalid Prometheus label name {name!r}")
    return name


def escape_label_value(value: str) -> str:
    """Escape a label value per the text format (backslash, quote, newline)."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline only, per the format)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    """Render a sample value: integers stay integral, specials use Go names."""
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise ValueError("metric values must be numbers, not booleans")
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def format_sample(
    name: str, value: float, labels: Optional[Mapping[str, str]] = None
) -> str:
    """Render one sample line ``name{labels} value``."""
    _check_metric_name(name)
    if labels:
        rendered = ",".join(
            f'{_check_label_name(key)}="{escape_label_value(str(val))}"'
            for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _header(name: str, help_text: str, metric_type: str) -> List[str]:
    _check_metric_name(name)
    return [
        f"# HELP {name} {escape_help(help_text)}",
        f"# TYPE {name} {metric_type}",
    ]


def render_counter(
    name: str,
    help_text: str,
    value: float,
    labels: Optional[Mapping[str, str]] = None,
) -> List[str]:
    """Render one counter metric (header + a single sample)."""
    return _header(name, help_text, "counter") + [format_sample(name, value, labels)]


def render_gauge(
    name: str,
    help_text: str,
    value: float,
    labels: Optional[Mapping[str, str]] = None,
) -> List[str]:
    """Render one gauge metric (header + a single sample)."""
    return _header(name, help_text, "gauge") + [format_sample(name, value, labels)]


def render_histogram(
    name: str,
    help_text: str,
    series: Sequence[
        Tuple[Optional[Mapping[str, str]], Sequence[float], Sequence[int], float, int]
    ],
) -> List[str]:
    """Render one histogram metric, possibly with several labelled series.

    ``series`` holds ``(labels, bounds, cumulative_counts, sum, count)``
    tuples: ``bounds`` are the explicit upper bucket bounds (ascending,
    excluding ``+Inf``) and ``cumulative_counts`` the matching cumulative
    observation counts.  The mandatory ``+Inf`` bucket (equal to ``count``),
    ``_sum`` and ``_count`` samples are appended per series.
    """
    lines = _header(name, help_text, "histogram")
    for labels, bounds, cumulative, total_sum, count in series:
        base = dict(labels) if labels else {}
        if len(bounds) != len(cumulative):
            raise ValueError(
                f"histogram {name}: {len(bounds)} bounds but "
                f"{len(cumulative)} cumulative counts"
            )
        previous = 0
        for bound, cum in zip(bounds, cumulative):
            if cum < previous:
                raise ValueError(
                    f"histogram {name}: bucket counts must be cumulative "
                    f"(le={bound!r} dropped to {cum} from {previous})"
                )
            previous = cum
            lines.append(
                format_sample(
                    f"{name}_bucket", cum, {**base, "le": _format_value(bound)}
                )
            )
        if previous > count:
            raise ValueError(
                f"histogram {name}: finite buckets hold {previous} observations "
                f"but count is {count}"
            )
        lines.append(format_sample(f"{name}_bucket", count, {**base, "le": "+Inf"}))
        lines.append(format_sample(f"{name}_sum", total_sum, base or None))
        lines.append(format_sample(f"{name}_count", count, base or None))
    return lines


# ----------------------------------------------------------------------
# Parsing (grammar validation for tests; loadgen and perfbench read /metrics with it)
# ----------------------------------------------------------------------
@dataclass
class MetricSample:
    """One parsed sample line."""

    name: str
    labels: Dict[str, str] = field(default_factory=dict)
    value: float = 0.0


_SAMPLE_VALUE = re.compile(r"^[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|Inf|NaN)$")


def _parse_labels(raw: str, line_number: int) -> Dict[str, str]:
    """Parse the inside of a ``{...}`` label block."""
    labels: Dict[str, str] = {}
    position = 0
    length = len(raw)
    while position < length:
        match = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", raw[position:])
        if match is None:
            raise ValueError(f"line {line_number}: bad label name at {raw[position:]!r}")
        name = match.group(0)
        position += match.end()
        if position >= length or raw[position] != "=":
            raise ValueError(f"line {line_number}: expected '=' after label {name!r}")
        position += 1
        if position >= length or raw[position] != '"':
            raise ValueError(f"line {line_number}: label {name!r} value must be quoted")
        position += 1
        value_chars: List[str] = []
        while position < length and raw[position] != '"':
            char = raw[position]
            if char == "\\":
                position += 1
                if position >= length:
                    raise ValueError(f"line {line_number}: dangling escape in label value")
                escape = raw[position]
                if escape == "n":
                    value_chars.append("\n")
                elif escape in ('"', "\\"):
                    value_chars.append(escape)
                else:
                    raise ValueError(
                        f"line {line_number}: invalid escape \\{escape} in label value"
                    )
            else:
                value_chars.append(char)
            position += 1
        if position >= length:
            raise ValueError(f"line {line_number}: unterminated label value")
        position += 1  # closing quote
        if name in labels:
            raise ValueError(f"line {line_number}: duplicate label {name!r}")
        labels[name] = "".join(value_chars)
        if position < length:
            if raw[position] != ",":
                raise ValueError(
                    f"line {line_number}: expected ',' between labels, got {raw[position]!r}"
                )
            position += 1
    return labels


def parse_exposition(text: str) -> List[MetricSample]:
    """Parse (and validate) a Prometheus text-format exposition.

    Returns every sample in order.  Raises :class:`ValueError` on any
    grammar violation: malformed names or label blocks, non-numeric values,
    a ``TYPE`` line after samples of its metric or repeated for it, or an
    unknown metric type.  Histogram *semantics* (bucket monotonicity, the
    ``+Inf`` bucket) are deliberately left to callers — the grammar does
    not require them, the tests do.
    """
    samples: List[MetricSample] = []
    typed: Dict[str, str] = {}
    seen_samples: Dict[str, bool] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                # Free-form comment: legal, skipped.
                continue
            if parts[1] == "HELP":
                if len(parts) < 3:
                    raise ValueError(f"line {line_number}: HELP needs a metric name")
                _check_metric_name(parts[2])
                continue
            if len(parts) != 4:
                raise ValueError(f"line {line_number}: TYPE needs a name and a type")
            _, _, name, metric_type = parts
            _check_metric_name(name)
            if metric_type not in _VALID_TYPES:
                raise ValueError(
                    f"line {line_number}: unknown metric type {metric_type!r}"
                )
            if name in typed:
                raise ValueError(f"line {line_number}: repeated TYPE for {name!r}")
            if seen_samples.get(name):
                raise ValueError(
                    f"line {line_number}: TYPE for {name!r} after its samples"
                )
            typed[name] = metric_type
            continue
        # Sample line: name[{labels}] value [timestamp]
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
        if match is None:
            raise ValueError(f"line {line_number}: bad metric name in {line!r}")
        name = match.group(1)
        rest = line[match.end():]
        labels: Dict[str, str] = {}
        if rest.startswith("{"):
            closing = rest.rfind("}")
            if closing < 0:
                raise ValueError(f"line {line_number}: unterminated label block")
            labels = _parse_labels(rest[1:closing], line_number)
            rest = rest[closing + 1:]
        fields = rest.split()
        if len(fields) not in (1, 2):
            raise ValueError(
                f"line {line_number}: expected 'value [timestamp]', got {rest!r}"
            )
        if not _SAMPLE_VALUE.match(fields[0]):
            raise ValueError(f"line {line_number}: bad sample value {fields[0]!r}")
        if len(fields) == 2 and not re.match(r"^-?\d+$", fields[1]):
            raise ValueError(f"line {line_number}: bad timestamp {fields[1]!r}")
        value = float(fields[0])
        # A histogram/summary's _bucket/_sum/_count samples belong to the
        # typed family name.
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and typed.get(base) in ("histogram", "summary"):
                family = base
                break
        seen_samples[family] = True
        samples.append(MetricSample(name=name, labels=labels, value=value))
    return samples


def samples_by_name(samples: Iterable[MetricSample]) -> Dict[str, List[MetricSample]]:
    """Group parsed samples by metric name (test convenience)."""
    grouped: Dict[str, List[MetricSample]] = {}
    for sample in samples:
        grouped.setdefault(sample.name, []).append(sample)
    return grouped
