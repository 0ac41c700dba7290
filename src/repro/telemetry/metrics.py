"""Metrics registry: counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` per telemetry context; metrics are keyed by
``(name, sorted label items)`` so the same name can carry several label
series (``repro_oracle_seconds{kind="milp:highs"}`` vs ``{kind="dp"}``).

Histograms use *fixed* bucket boundaries chosen at registration (default
:data:`DEFAULT_SECONDS_BUCKETS`): merging two histograms is then just
element-wise addition of integer bucket counts, which makes parallel
sweep merges deterministic — the property ``run_grid`` relies on when it
folds worker registries back into the parent in trial order.

Everything here is picklable (plain ``__slots__`` objects), so a worker
process can build a registry and ship it back whole.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Prometheus-style latency buckets (upper bounds, seconds); the +Inf
#: bucket is implicit.  Fixed so histograms from any process merge.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> dict:
        return {"type": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """Last-written value (e.g. a pool size or a bracket width)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge(self, other: "Gauge") -> None:
        # Merge order is deterministic (trial order), so "last write
        # wins" is well-defined: the later trial's value survives.
        self.value = other.value

    def snapshot(self) -> dict:
        return {"type": "gauge", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-boundary histogram with sum and count.

    ``bounds`` are inclusive upper edges; an observation lands in the
    first bucket whose bound is >= the value (Prometheus ``le``
    semantics), or in the implicit +Inf bucket past the last bound.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple = (),
                 bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram bounds must be non-empty and strictly increasing, "
                f"got {bounds}"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ "
                f"({self.bounds} vs {other.bounds})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        containing the ``q``-th observation; ``inf`` if it falls in the
        overflow bucket, 0.0 on an empty histogram)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for bound, c in zip(self.bounds, self.counts):
            seen += c
            if seen >= rank:
                return bound
        return float("inf")

    def snapshot(self) -> dict:
        return {
            "type": "histogram", "name": self.name,
            "labels": dict(self.labels), "bounds": list(self.bounds),
            "counts": list(self.counts), "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Insertion-ordered collection of metrics, keyed by name + labels."""

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted(labels.items())))

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = self._key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} already registered as "
                f"{metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``name`` + ``labels`` (created on first use)."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on first use)."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  **labels) -> Histogram:
        """The histogram for ``name`` + ``labels``.

        ``buckets`` fixes the boundaries on first registration; passing a
        *different* boundary tuple for an existing series raises (merges
        must stay well-defined).  Omitting ``buckets`` accepts whatever
        the series was registered with (default
        :data:`DEFAULT_SECONDS_BUCKETS`).
        """
        hist = self._get(
            Histogram, name, labels,
            bounds=tuple(buckets) if buckets is not None
            else DEFAULT_SECONDS_BUCKETS,
        )
        if buckets is not None and hist.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{hist.bounds}, requested {tuple(buckets)}"
            )
        return hist

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (deterministic: ``other``'s
        insertion order; missing metrics are created with the same
        shape)."""
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(metric.name, key[1], bounds=metric.bounds)
                else:
                    mine = type(metric)(metric.name, key[1])
                self._metrics[key] = mine
            elif type(mine) is not type(metric):
                raise TypeError(
                    f"cannot merge metric {metric.name!r}{dict(key[1])}: "
                    f"{mine.kind} vs {metric.kind}"
                )
            mine.merge(metric)

    def __iter__(self):
        # Iterate a list copy: the obs server scrapes a *live* registry
        # from its own thread while the workload registers new series.
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> list[dict]:
        """JSON-ready list of every metric's state, insertion-ordered."""
        return [metric.snapshot() for metric in self._metrics.values()]
