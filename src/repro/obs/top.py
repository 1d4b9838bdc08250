"""``repro top`` — a live terminal dashboard over the obs subsystem.

Two data sources:

* ``--url`` scrapes one server's ``/metrics`` (plus ``/cache/stats`` and
  ``/health`` for store/worker detail).  Against a multi-worker fleet the
  kernel load-balances each scrape over ``SO_REUSEPORT``, so per-worker
  counters jitter between polls — fine for a single server, directional
  for a fleet.
* ``--run-dir`` merges every per-process snapshot file in a fleet run
  directory (workers + supervisor) — the exact fleet-wide view.

``--once`` (or ``--iterations N``) renders without clearing the screen,
which is what the CI smoke and the tests use.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Optional

from repro.obs.expose import (
    load_snapshots,
    merge_snapshots,
    parse_prometheus,
    render_prometheus,
)

_CLEAR = "\x1b[2J\x1b[H"


def _get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _families_from_url(url: str) -> dict:
    return parse_prometheus(_get(url.rstrip("/") + "/metrics"))


def _families_from_run_dir(run_dir: str) -> dict:
    merged = merge_snapshots(load_snapshots(run_dir))
    # render + parse our own exposition: one code path for both sources
    return parse_prometheus(render_prometheus(merged))


def _series_sum(families: dict, name: str, **match) -> float:
    total = 0.0
    for labels, value in families.get(name, {}).items():
        label_map = dict(labels)
        if all(label_map.get(k) == v for k, v in match.items()):
            total += value
    return total


def _quantile(families: dict, name: str, fraction: float) -> Optional[float]:
    """Bucket-boundary quantile from ``<name>_bucket`` cumulative series."""
    points: dict = {}
    for labels, value in families.get(f"{name}_bucket", {}).items():
        label_map = dict(labels)
        le = label_map.get("le")
        if le is None:
            continue
        bound = float("inf") if le == "+Inf" else float(le)
        points[bound] = points.get(bound, 0.0) + value
    if not points:
        return None
    total = points.get(float("inf"), max(points.values()))
    if total <= 0:
        return None
    rank = max(1.0, round(fraction * total))
    last_finite = None
    for bound in sorted(points):
        if bound != float("inf"):
            last_finite = bound
        if points[bound] >= rank:
            return bound if bound != float("inf") else last_finite
    return last_finite


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000:.1f} ms"


def sample(families: dict) -> dict:
    """Normalize one scrape/merge into the dashboard's quantities."""
    return {
        "requests": _series_sum(families, "repro_requests_total"),
        "request_errors": _series_sum(families, "repro_request_errors_total"),
        "p50": _quantile(families, "repro_request_seconds", 0.50),
        "p99": _quantile(families, "repro_request_seconds", 0.99),
        "stages": {
            source: _series_sum(
                families, "repro_stage_resolutions_total", source=source
            )
            for source in ("computed", "memory", "store")
        },
        "store": {
            "hit": _series_sum(families, "repro_store_reads_total", outcome="hit"),
            "miss": _series_sum(families, "repro_store_reads_total", outcome="miss"),
            "writes": _series_sum(families, "repro_store_writes_total"),
            "quarantined": _series_sum(families, "repro_store_quarantined_total"),
        },
        "sat": {
            kind: _series_sum(families, "repro_sat_total", kind=kind)
            for kind in ("conflicts", "propagations", "decisions", "restarts", "learned")
        },
        "kernel_codes_per_second": _series_sum(families, "repro_kernel_codes_per_second"),
        "fleet": {
            "workers": _series_sum(families, "repro_fleet_workers"),
            "respawns": _series_sum(families, "repro_fleet_events_total", kind="respawn"),
            "recycles": _series_sum(families, "repro_fleet_events_total", kind="recycle"),
            "hung_kills": _series_sum(families, "repro_fleet_events_total", kind="hung_kill"),
        },
    }


def _rate(now: dict, before: Optional[dict], elapsed: float) -> Optional[float]:
    if before is None or elapsed <= 0:
        return None
    delta = now["requests"] - before["requests"]
    if delta < 0:
        return None  # scrape landed on a different fleet worker
    return delta / elapsed


def render(current: dict, rate: Optional[float], source: str) -> str:
    stages = current["stages"]
    store = current["store"]
    sat = current["sat"]
    fleet = current["fleet"]
    reads = store["hit"] + store["miss"]
    hit_rate = store["hit"] / reads if reads else 0.0
    rate_text = f"{rate:.1f} req/s" if rate is not None else "- req/s"
    lines = [
        f"repro top — {source}",
        (
            f"requests  {current['requests']:.0f} total · {rate_text} · "
            f"p50 {_ms(current['p50'])} · p99 {_ms(current['p99'])} · "
            f"errors {current['request_errors']:.0f}"
        ),
        (
            f"stages    computed {stages['computed']:.0f} · memory {stages['memory']:.0f} · "
            f"store {stages['store']:.0f}"
        ),
        (
            f"store     hits {store['hit']:.0f} ({hit_rate * 100:.0f}%) · "
            f"misses {store['miss']:.0f} · "
            f"writes {store['writes']:.0f} · quarantined {store['quarantined']:.0f}"
        ),
    ]
    if any(sat.values()) or current["kernel_codes_per_second"]:
        lines.append(
            f"sat       conflicts {sat['conflicts']:.0f} · "
            f"propagations {sat['propagations']:.0f} · restarts {sat['restarts']:.0f} · "
            f"kernel {current['kernel_codes_per_second']:.3g} codes/s"
        )
    if fleet["workers"] or fleet["respawns"] or fleet["recycles"]:
        lines.append(
            f"fleet     workers {fleet['workers']:.0f} · respawns {fleet['respawns']:.0f} · "
            f"recycles {fleet['recycles']:.0f} · hung kills {fleet['hung_kills']:.0f}"
        )
    return "\n".join(lines)


def run_top(
    url: Optional[str] = None,
    run_dir: Optional[str] = None,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    json_output: bool = False,
) -> int:
    """The ``repro top`` loop, printing to stdout; returns an exit code.

    A live loop (``iterations`` unset) clears the screen before each frame.
    """
    if (url is None) == (run_dir is None):
        print("repro top: exactly one of --url / --run-dir is required")
        return 2
    source = url or run_dir
    before = None
    before_at = None
    count = 0
    while True:
        try:
            families = (
                _families_from_url(url) if url else _families_from_run_dir(run_dir)
            )
        except (urllib.error.URLError, OSError, ValueError) as error:
            print(f"repro top: cannot sample {source}: {error}")
            return 1
        now = time.monotonic()
        current = sample(families)
        rate = _rate(current, before, now - (before_at or now))
        if json_output:
            print(json.dumps({**current, "req_per_s": rate}, default=str))
        else:
            if iterations is None:
                sys.stdout.write(_CLEAR)
            print(render(current, rate, source))
            sys.stdout.flush()
        before, before_at = current, now
        count += 1
        if iterations is not None and count >= iterations:
            return 0
        time.sleep(interval)
