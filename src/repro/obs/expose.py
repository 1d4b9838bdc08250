"""Exposition and cross-process aggregation of metric snapshots.

:mod:`repro.obs.metrics` owns the in-process instruments; this module owns
everything that leaves the process:

* :func:`load_snapshots` / :func:`merge_snapshots` — the supervisor-side
  aggregation of per-worker ``metrics-*.json`` files.  Because every
  histogram shares the fixed :data:`~repro.obs.metrics.DEFAULT_BUCKETS`
  boundaries, the merge is an elementwise sum — exact, not approximate.
* :func:`render_prometheus` — the text exposition format (v0.0.4) behind
  every worker's ``/metrics`` endpoint.
* :func:`parse_prometheus` — the inverse, for ``repro top``'s scraper (it
  understands exactly the subset we emit).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def load_snapshot(path: Union[str, os.PathLike]) -> Optional[dict]:
    """Read one snapshot file; damage degrades to ``None``, never an error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict) or "metrics" not in document:
        return None
    return document


def load_snapshots(directory: Union[str, os.PathLike]) -> list[dict]:
    """Every readable per-process snapshot in a fleet run directory."""
    snapshots = []
    for path in sorted(Path(directory).glob("metrics-*.json")):
        document = load_snapshot(path)
        if document is not None:
            snapshots.append(document)
    return snapshots


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Exact aggregation of per-process snapshots.

    Counters and histogram bucket counts / sums / sample counts add;
    gauges add too (the gauges exported here are rates and occupancy, for
    which the fleet-wide value *is* the sum).  Bucket boundaries are
    required to agree — they come from one shared literal, so a mismatch
    means mixed code versions and the offending series is skipped rather
    than merged wrongly.
    """
    merged: dict = {"service": "fleet", "merged_from": len(snapshots), "metrics": {}}
    out = merged["metrics"]
    for snapshot in snapshots:
        for name, metric in snapshot.get("metrics", {}).items():
            target = out.get(name)
            if target is None:
                target = {
                    "kind": metric.get("kind", "untyped"),
                    "help": metric.get("help", ""),
                    "labelnames": list(metric.get("labelnames", [])),
                    "series": {},
                }
                if "buckets" in metric:
                    target["buckets"] = list(metric["buckets"])
                out[name] = target
            if "buckets" in metric and metric["buckets"] != target.get("buckets"):
                continue  # mixed boundaries cannot merge exactly
            for key, value in metric.get("series", {}).items():
                existing = target["series"].get(key)
                if isinstance(value, dict):  # histogram series
                    if existing is None:
                        target["series"][key] = {
                            "counts": list(value["counts"]),
                            "sum": value["sum"],
                            "count": value["count"],
                        }
                    else:
                        existing["counts"] = [
                            a + b for a, b in zip(existing["counts"], value["counts"])
                        ]
                        existing["sum"] += value["sum"]
                        existing["count"] += value["count"]
                else:
                    target["series"][key] = (existing or 0.0) + value
    return merged


def _render_labels(labelnames: list, values: list, extra: Optional[tuple] = None) -> str:
    pairs = [f'{name}="{value}"' for name, value in zip(labelnames, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(snapshot: dict) -> str:
    """The Prometheus text format (v0.0.4) of one snapshot document."""
    lines: list[str] = []
    for name, metric in sorted(snapshot.get("metrics", {}).items()):
        kind = metric.get("kind", "untyped")
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {kind}")
        labelnames = list(metric.get("labelnames", []))
        for key in sorted(metric.get("series", {})):
            values = json.loads(key)
            value = metric["series"][key]
            if kind == "histogram":
                buckets = metric.get("buckets", [])
                cumulative = 0
                for bound, count in zip(buckets, value["counts"]):
                    cumulative += count
                    labels = _render_labels(labelnames, values, ("le", format(bound, ".10g")))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                if len(value["counts"]) > len(buckets):
                    cumulative += value["counts"][len(buckets)]
                labels = _render_labels(labelnames, values, ("le", "+Inf"))
                lines.append(f"{name}_bucket{labels} {cumulative}")
                plain = _render_labels(labelnames, values)
                lines.append(f"{name}_sum{plain} {_fmt(value['sum'])}")
                lines.append(f"{name}_count{plain} {value['count']}")
            else:
                labels = _render_labels(labelnames, values)
                lines.append(f"{name}{labels} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict:
    """Parse our own exposition back into ``{name: {labels_tuple: value}}``."""
    families: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value_text = line.rpartition(" ")
        if not head:
            continue
        labels: dict = {}
        name = head
        if "{" in head:
            name, _, label_text = head.partition("{")
            for pair in label_text.rstrip("}").split(","):
                if not pair:
                    continue
                label_name, _, label_value = pair.partition("=")
                labels[label_name] = label_value.strip('"')
        try:
            value = float(value_text)
        except ValueError:
            continue
        families.setdefault(name, {})[tuple(sorted(labels.items()))] = value
    return families
