"""Fleet-wide metrics registry: counters, gauges and histograms.

The serving stack (store → pipeline → scheduler → server → fleet) grew one
ad-hoc counter dict per layer (``stage_calls``, ``store_hits``,
``FleetSupervisor.respawns`` ...).  Those stay — tests pin them and they are free —
but they cannot be *aggregated*: every fleet worker is its own process, and
"requests per second across the fleet" or "the p99 of the synthesize stage"
needs per-process series that merge exactly.  This module provides that:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` with label support,
  thread-safe, zero dependencies;
* histograms use **fixed exponential bucket boundaries**
  (:data:`DEFAULT_BUCKETS`, shared by every process by construction), so a
  cross-process merge is an elementwise integer sum — *exact*, never an
  approximation;
* :meth:`Registry.snapshot` — a plain-JSON document of every series;
  :meth:`Registry.write_snapshot` persists it atomically (temp +
  ``os.replace``, the store's discipline), one file per process in the
  fleet ``run_dir``.

Aggregation across processes and the Prometheus text exposition live in
:mod:`repro.obs.expose`.  Everything here is inert until :mod:`repro.obs`
activates it — the layers hold ``None`` and pay one attribute check when
observability is off.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Optional, Union

#: Fixed exponential histogram boundaries (seconds): 0.5 ms doubling up to
#: ~262 s.  Every process derives the identical tuple from this literal, so
#: per-bucket counts merge across processes by index — exactly.
DEFAULT_BUCKETS = tuple(0.0005 * 2.0**i for i in range(20))


def _label_key(labelnames: tuple, labels: dict) -> tuple:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Metric:
    """Base of one named metric family (all series share the labelnames)."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: tuple = ()):  # noqa: A002
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict = {}
        self._lock = threading.Lock()

    def _to_snapshot(self) -> dict:
        with self._lock:
            series = {json.dumps(list(key)): value for key, value in self._series.items()}
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": series,
        }


class Counter(Metric):
    """A monotonically increasing count (merges across processes by sum)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._series.get(key, 0.0)


class Gauge(Metric):
    """A point-in-time level (rates, occupancy; merges by sum)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._series.get(key, 0.0)


class Histogram(Metric):
    """A distribution over :data:`DEFAULT_BUCKETS`-style fixed boundaries.

    Internally each series holds *per-bucket* (non-cumulative) counts plus
    one overflow slot, the sample sum and the sample count; the cumulative
    form Prometheus expects is derived at render time.  Because every
    process uses the same boundaries, merging is an elementwise sum.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: tuple = (),
        buckets: tuple = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        slot = len(self.buckets)  # overflow unless a bound holds the value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                slot = index
                break
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
                self._series[key] = series
            series["counts"][slot] += 1
            series["sum"] += value
            series["count"] += 1

    def _to_snapshot(self) -> dict:
        document = super()._to_snapshot()
        document["buckets"] = list(self.buckets)
        # deep-copy the mutable series payloads: a snapshot must not alias
        # state that later observations keep mutating
        document["series"] = {
            key: {"counts": list(value["counts"]), "sum": value["sum"], "count": value["count"]}
            for key, value in document["series"].items()
        }
        return document

    def quantile(self, fraction: float, **labels) -> Optional[float]:
        """Bucket-boundary quantile estimate of one series (None: empty)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None or not series["count"]:
                return None
            counts = list(series["counts"])
            total = series["count"]
        return quantile_from_counts(counts, self.buckets, total, fraction)


def quantile_from_counts(
    counts: list, buckets: tuple, total: int, fraction: float
) -> Optional[float]:
    """Upper-bound quantile from per-bucket counts (exposition-side helper)."""
    if not total:
        return None
    rank = max(1, int(round(fraction * total)))
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank:
            if index < len(buckets):
                return buckets[index]
            return buckets[-1] if buckets else None
    return buckets[-1] if buckets else None


class Registry:
    """One process's metric families, keyed by name (get-or-create)."""

    def __init__(self, service: str = ""):
        self.service = service
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, labelnames: tuple, **kwargs):  # noqa: A002
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help, labelnames=labelnames, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "", labelnames: tuple = ()) -> Counter:  # noqa: A002
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "") -> Gauge:  # noqa: A002
        return self._get_or_create(Gauge, name, help, ())

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: tuple = (),
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def snapshot(self) -> dict:
        """A plain-JSON document of every series (the merge/exposition unit)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {
            "service": self.service,
            "pid": os.getpid(),
            "metrics": {name: metric._to_snapshot() for name, metric in sorted(metrics.items())},
        }

    def write_snapshot(self, path: Union[str, os.PathLike]) -> Path:
        """Atomically persist :meth:`snapshot` (temp file + ``os.replace``)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.snapshot(), separators=(",", ":"))
        fd, temp_name = tempfile.mkstemp(
            prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path
