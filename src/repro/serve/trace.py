"""Workload traces for serving-tier benchmarks.

Real photo-serving traffic is heavily skewed — a few photos are viewed
constantly while the long tail is touched once — so cache benchmarks
that replay a *uniform* trace overstate miss rates and understate the
value of coalescing.  Following the workload-trace methodology of RAG
serving studies, the serving benchmarks here replay a zipfian
popularity trace instead.

Beyond the flat zipfian draw, this module generates *timed* traces —
lists of :class:`TraceEvent` with arrival offsets — shaped like the
traffic a real PSP front end survives or dies by:

* :func:`diurnal_trace` — a sinusoidal day curve (trough to peak and
  back) with Poisson arrivals, the steady-state baseline;
* :func:`flash_crowd_trace` — baseline traffic plus a spike window
  where the offered rate multiplies and most arrivals pile onto one
  suddenly-viral photo;
* :func:`thundering_herd_trace` — the pathological instant: N viewers
  request the *same* photo at the *same* moment (a push notification
  landing), the worst case for coalescing and admission.

Every generator is seeded and deterministic, draws tenants from an
arbitrarily large population (a million users costs nothing — names
are materialized only for events actually drawn), and emits events
sorted by arrival time, ready for the replayers in
:mod:`repro.serve.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Re-exported: the benchmarks and replayers import it from here.
from repro.serve.stats import percentile  # noqa: F401


@dataclass(frozen=True)
class TraceEvent:
    """One arrival in a timed workload trace.

    ``at_s`` is the offset from trace start; ``tenant`` the requesting
    user; ``photo_rank`` an index into whatever photo list the
    replayer maps ranks onto (rank 0 = most popular).
    """

    at_s: float
    tenant: str
    photo_rank: int


def _tenant_names(rng: np.random.Generator, tenants: int, count: int) -> list[str]:
    """Draw ``count`` tenant names from a ``tenants``-sized population."""
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    ids = rng.integers(0, tenants, size=count)
    return [f"user-{i}" for i in ids]


def diurnal_trace(
    *,
    tenants: int,
    photos: int,
    duration_s: float,
    peak_rps: float,
    trough_rps: float | None = None,
    s: float = 1.1,
    seed: int = 7,
) -> list[TraceEvent]:
    """A day-curve workload: Poisson arrivals under a sinusoidal rate.

    The offered rate swings from ``trough_rps`` (default: a fifth of
    peak) up to ``peak_rps`` and back across ``duration_s`` — one
    "day" compressed into the trace window.  Photos follow the
    zipfian popularity law; tenants are uniform over the population.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if peak_rps <= 0:
        raise ValueError(f"peak_rps must be > 0, got {peak_rps}")
    trough = peak_rps / 5.0 if trough_rps is None else trough_rps
    if not 0 <= trough <= peak_rps:
        raise ValueError(
            f"trough_rps must be in [0, peak_rps], got {trough}"
        )
    rng = np.random.default_rng(seed)
    # Thinning (Lewis & Shedler): draw homogeneous arrivals at the
    # peak rate, keep each with probability rate(t)/peak.
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak_rps))
        if t >= duration_s:
            break
        # Trough at the edges, peak mid-window.
        rate = trough + (peak_rps - trough) * (
            0.5 - 0.5 * float(np.cos(2 * np.pi * t / duration_s))
        )
        if rng.random() < rate / peak_rps:
            times.append(t)
    ranks = rng.choice(photos, size=len(times), p=zipf_weights(photos, s))
    names = _tenant_names(rng, tenants, len(times))
    return [
        TraceEvent(at_s=when, tenant=name, photo_rank=int(rank))
        for when, name, rank in zip(times, names, ranks)
    ]


def flash_crowd_trace(
    *,
    tenants: int,
    photos: int,
    duration_s: float,
    base_rps: float,
    spike_rps: float,
    spike_start_s: float,
    spike_duration_s: float,
    hot_rank: int = 0,
    hot_fraction: float = 0.8,
    s: float = 1.1,
    seed: int = 7,
) -> list[TraceEvent]:
    """Baseline zipfian traffic plus a viral-photo spike.

    Between ``spike_start_s`` and ``spike_start_s + spike_duration_s``
    the offered rate jumps from ``base_rps`` to ``spike_rps`` and
    ``hot_fraction`` of spike arrivals all target ``hot_rank`` — the
    flash crowd every overload test in the serving literature is
    built around.
    """
    if not 0 <= hot_fraction <= 1:
        raise ValueError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    if spike_rps < base_rps:
        raise ValueError(
            f"spike_rps ({spike_rps}) must be >= base_rps ({base_rps})"
        )
    rng = np.random.default_rng(seed)
    spike_end = spike_start_s + spike_duration_s
    times: list[float] = []
    in_spike: list[bool] = []
    t = 0.0
    while True:
        rate = spike_rps if spike_start_s <= t < spike_end else base_rps
        t += float(rng.exponential(1.0 / rate))
        if t >= duration_s:
            break
        times.append(t)
        in_spike.append(spike_start_s <= t < spike_end)
    weights = zipf_weights(photos, s)
    ranks = rng.choice(photos, size=len(times), p=weights)
    hot_draws = rng.random(len(times))
    names = _tenant_names(rng, tenants, len(times))
    events = []
    for when, name, rank, spiking, draw in zip(
        times, names, ranks, in_spike, hot_draws
    ):
        if spiking and draw < hot_fraction:
            rank = hot_rank
        events.append(
            TraceEvent(at_s=when, tenant=name, photo_rank=int(rank))
        )
    return events


def thundering_herd_trace(
    *,
    tenants: int,
    herd_size: int,
    rank: int = 0,
    at_s: float = 0.0,
    seed: int = 7,
) -> list[TraceEvent]:
    """``herd_size`` distinct arrivals for one photo at one instant.

    The push-notification storm: everyone's client fetches the same
    photo in the same millisecond.  Coalescing should collapse this to
    one reconstruction; admission should shed the overflow gracefully
    — this trace is how both claims get measured.
    """
    if herd_size < 1:
        raise ValueError(f"herd_size must be >= 1, got {herd_size}")
    rng = np.random.default_rng(seed)
    names = _tenant_names(rng, tenants, herd_size)
    return [
        TraceEvent(at_s=at_s, tenant=name, photo_rank=rank)
        for name in names
    ]


def zipf_weights(count: int, s: float = 1.1) -> np.ndarray:
    """Normalized zipfian popularity over ``count`` ranked items."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if s < 0:
        raise ValueError(f"zipf exponent must be >= 0, got {s}")
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** s
    return weights / weights.sum()


def zipf_trace(
    count: int, requests: int, s: float = 1.1, seed: int = 7
) -> list[int]:
    """A reproducible request trace: ``requests`` draws over ``count``
    items with zipfian popularity (rank 0 most popular)."""
    rng = np.random.default_rng(seed)
    return rng.choice(count, size=requests, p=zipf_weights(count, s)).tolist()
