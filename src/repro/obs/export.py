"""Render a :class:`~repro.obs.registry.MetricsRegistry` for machines.

Two wire formats over the same :meth:`~repro.obs.registry.MetricsRegistry.collect`
snapshot:

- **Prometheus text exposition** (:func:`to_prometheus_text`): the
  ``# HELP``/``# TYPE`` format scrapers ingest.  Counters are exposed
  under their registered name (the serving stack registers them with the
  conventional ``_total`` suffix already); histograms expand into
  cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
- **JSON** (:func:`to_json` / :func:`to_json_dict`): the same samples as
  a structured document, emitted with ``allow_nan=False`` so the output
  is always strict-JSON parseable -- non-finite sample values are
  rendered as the strings ``"+Inf"``/``"-Inf"`` (NaN never occurs; the
  primitives reject it at observation time).

Both formats flatten to the *same* sample map, and the matching parsers
(:func:`parse_prometheus_text`, :func:`samples_from_json`) return it, so
"exported identically via Prometheus text and JSON" is a mechanical
assertion: parse both, compare dicts.  CI does exactly that (see
``examples/metrics_snapshot_roundtrip.py``).

:func:`to_text` is the human rendering the ``repro stats`` CLI prints.
"""

from __future__ import annotations

import json
import math

from repro.obs.registry import MetricsRegistry

__all__ = [
    "parse_prometheus_text",
    "samples_from_json",
    "to_json",
    "to_json_dict",
    "to_prometheus_text",
    "to_text",
]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _bound_str(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.collect():
        name = family["name"]
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if family["type"] == "histogram":
                for bound, cumulative in sample["buckets"]:
                    bucket_labels = {**labels, "le": _bound_str(bound)}
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                    )
                lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(sample['sum'])}")
                lines.append(f"{name}_count{_format_labels(labels)} {sample['count']}")
            else:
                lines.append(f"{name}{_format_labels(labels)} {_format_value(sample['value'])}")
    return "\n".join(lines) + "\n"


def _json_value(value: float):
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return float(value)


def to_json_dict(registry: MetricsRegistry) -> dict:
    """The registry as a strict-JSON-safe plain dict."""
    families = []
    for family in registry.collect():
        samples = []
        for sample in family["samples"]:
            if family["type"] == "histogram":
                samples.append(
                    {
                        "labels": sample["labels"],
                        "sum": _json_value(sample["sum"]),
                        "count": sample["count"],
                        "buckets": [
                            {"le": _bound_str(bound), "count": cumulative}
                            for bound, cumulative in sample["buckets"]
                        ],
                    }
                )
            else:
                samples.append(
                    {"labels": sample["labels"], "value": _json_value(sample["value"])}
                )
        families.append(
            {
                "name": family["name"],
                "type": family["type"],
                "help": family["help"],
                "samples": samples,
            }
        )
    return {"metrics": families}


def to_json(registry: MetricsRegistry, *, indent: int | None = None) -> str:
    """The registry as a strict JSON document (no ``NaN``/``Infinity``
    literals, so any conforming parser accepts it)."""
    return json.dumps(to_json_dict(registry), allow_nan=False, sort_keys=True, indent=indent)


def _parse_number(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    return float(token)


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Flatten Prometheus exposition text to ``{sample_key: value}``.

    The sample key is the exposition line's name-plus-labels part with
    labels in sorted order, e.g.
    ``repro_tier_failures_total{reason="error",tier="Exact"}``.
    A minimal parser for round-trip checks, not a full scraper.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, value_token = line.rpartition(" ")
        if not body:
            raise ValueError(f"malformed exposition line: {line!r}")
        if "{" in body:
            name, _, label_body = body.partition("{")
            label_body = label_body.rstrip("}")
            pairs = []
            for item in _split_label_pairs(label_body):
                label_name, _, label_value = item.partition("=")
                pairs.append((label_name, label_value.strip('"')))
            key = name + _format_labels(dict(pairs))
        else:
            key = body
        samples[key] = _parse_number(value_token)
    return samples


def _split_label_pairs(body: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    pairs: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for ch in body:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        pairs.append("".join(current))
    return pairs


def samples_from_json(document: str | dict) -> dict[str, float]:
    """Flatten a :func:`to_json` document to the same ``{sample_key:
    value}`` map :func:`parse_prometheus_text` produces, for equality
    checks across the two exports."""
    if isinstance(document, str):
        document = json.loads(document)
    samples: dict[str, float] = {}
    for family in document["metrics"]:
        name = family["name"]
        for sample in family["samples"]:
            labels = sample["labels"]
            if family["type"] == "histogram":
                for bucket in sample["buckets"]:
                    key = name + "_bucket" + _format_labels({**labels, "le": bucket["le"]})
                    samples[key] = float(bucket["count"])
                samples[name + "_sum" + _format_labels(labels)] = _parse_number(
                    str(sample["sum"])
                )
                samples[name + "_count" + _format_labels(labels)] = float(sample["count"])
            else:
                samples[name + _format_labels(labels)] = _parse_number(str(sample["value"]))
    return samples


def to_text(registry: MetricsRegistry) -> str:
    """A compact human rendering: one line per sample, histograms
    summarised as count/sum (the full buckets live in the wire formats)."""
    lines: list[str] = []
    for family in registry.collect():
        name = family["name"]
        for sample in family["samples"]:
            labels = _format_labels(sample["labels"])
            if family["type"] == "histogram":
                count = sample["count"]
                mean = sample["sum"] / count if count else 0.0
                lines.append(
                    f"{name}{labels}  count={count} sum={_format_value(sample['sum'])} "
                    f"mean={mean:.6g}"
                )
            else:
                lines.append(f"{name}{labels}  {_format_value(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
