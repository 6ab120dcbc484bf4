"""Spans around the public functions of each sharplp module, from outside it.

The tracer wraps each target function and rebinds every attribute of every
loaded ``sharplp`` module that holds the original, which covers the names
callers actually look up (``sharplp.campaigns.main_sides`` as well as
``sharplp.inequality.main_sides``).  Spans (name, parent, start, end) are
kept in memory; ``high_precision`` is only counted, because it is a cheap
lookup called over a hundred thousand times per pass.  Leaving the
``installed()`` block restores the original bindings.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

SPAN_TARGETS = (
    ("cli", "run"),
    ("campaigns", "verify_campaign"),
    ("campaigns", "schatten_campaign"),
    ("campaigns", "factor_grid"),
    ("campaigns", "random_instance"),
    ("inequality", "main_sides"),
    ("measure", "lp_functional"),
    ("measure", "lp_norm"),
    ("measure", "overlap_norm"),
    ("means", "constant_factor"),
    ("means", "power_mean"),
    ("means", "sharpness_probe"),
    ("audit", "audit_chain"),
    ("audit", "sign_changes"),
    ("schatten", "random_psd"),
    ("schatten", "schatten_verify"),
    ("schatten", "lieb_thirring_check"),
)
COUNT_TARGETS = (("precision", "high_precision"),)

# Which end-to-end metric a layer's numbers should move, and on which workload:
#   campaigns, inequality, measure: wall_s, checks_per_s on double (its verify
#     command); on oracle through the 50-digit path
#   means: wall_s, peak_rss_mb on double (its contour command); wall_s on oracle
#   audit: wall_s on oracle
#   schatten: wall_s on double (its schatten command)
#   precision: wall_s on double and oracle
#   cli: wall_s, peak_rss_mb on double (the 9 MB contour CSV)
#   trace.overhead_ratio: none; it is the cost of tracing itself
#
# (span or counter, statistic) pairs reported by a traced run.  calls is the
# number of calls, total_s the summed span time, self_s the span time not
# covered by child spans, p50_us/p99_us percentiles of one call's duration.
LAYER_STATS = (
    ("campaigns.verify_campaign", "total_s"),
    ("campaigns.schatten_campaign", "total_s"),
    ("campaigns.factor_grid", "total_s"),
    ("campaigns.random_instance", "calls"),
    ("campaigns.random_instance", "total_s"),
    ("inequality.main_sides", "calls"),
    ("inequality.main_sides", "self_s"),
    ("inequality.main_sides", "p50_us"),
    ("inequality.main_sides", "p99_us"),
    ("measure.lp_functional", "calls"),
    ("measure.lp_functional", "total_s"),
    ("measure.lp_norm", "calls"),
    ("measure.lp_norm", "total_s"),
    ("measure.overlap_norm", "calls"),
    ("measure.overlap_norm", "total_s"),
    ("means.constant_factor", "calls"),
    ("means.constant_factor", "total_s"),
    ("means.power_mean", "calls"),
    ("means.power_mean", "total_s"),
    ("means.sharpness_probe", "total_s"),
    ("audit.audit_chain", "calls"),
    ("audit.audit_chain", "total_s"),
    ("audit.sign_changes", "calls"),
    ("audit.sign_changes", "self_s"),
    ("schatten.random_psd", "calls"),
    ("schatten.random_psd", "total_s"),
    ("schatten.schatten_verify", "calls"),
    ("schatten.schatten_verify", "total_s"),
    ("schatten.lieb_thirring_check", "calls"),
    ("schatten.lieb_thirring_check", "total_s"),
    ("precision.high_precision", "calls"),
    ("cli.run", "self_s"),
)
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us"}

_MARK = "_sharplp_bench_wrapper"


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "sharplp" or name.startswith("sharplp."))
    ]


def leftover_wrappers() -> list[str]:
    """Attributes of loaded sharplp modules that still hold a tracer wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in _package_modules()
        for attr, val in vars(m).items()
        if getattr(val, _MARK, False)
    ]


class Tracer:
    """Spans and call counts of one traced pass."""

    def __init__(self):
        # (name, parent id or -1, start, end); an entry is None while its call runs
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack = [-1]

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, stack[-1], t0, t1)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every module attribute holding a target; restore on exit."""
        import sharplp  # noqa: F401  (the package must be importable)

        rebound = []
        try:
            for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                                  (COUNT_TARGETS, self._count_wrapper)):
                for module, fn_name in targets:
                    name = f"{module}.{fn_name}"
                    original = getattr(sys.modules.get(f"sharplp.{module}"), fn_name, None)
                    if original is None:
                        self.missing.append(name)
                        continue
                    wrapper = make(name, original)
                    for m in _package_modules():
                        for attr, val in list(vars(m).items()):
                            if val is original:
                                setattr(m, attr, wrapper)
                                rebound.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(rebound):
                setattr(m, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and call-duration percentiles."""
        covered = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        durations: dict[str, list[float]] = {}
        self_s: Counter[str] = Counter()
        for sid, (name, _, t0, t1) in enumerate(self.spans):
            durations.setdefault(name, []).append(t1 - t0)
            self_s[name] += (t1 - t0) - covered[sid]
        out = {}
        for name, ds in durations.items():
            q = statistics.quantiles(ds, n=100) if len(ds) > 1 else ds * 99
            out[name] = {
                "calls": len(ds),
                "total_s": sum(ds),
                "self_s": self_s[name],
                "p50_us": q[49] * 1e6,
                "p99_us": q[98] * 1e6,
            }
        for name, n in self.counts.items():
            out[name] = {"calls": n}
        return out


def layer_values(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """The LAYER_STATS values of one traced pass; 0 for layers it never entered."""
    return {
        f"{span}.{stat}": summary.get(span, {}).get(stat, 0 if stat == "calls" else 0.0)
        for span, stat in LAYER_STATS
    }


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write the spans of every traced pass as gzipped CSV, times from pass start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("pass,id,parent,name,start_s,end_s\n")
        for k, tracer in enumerate(tracers):
            origin = min((s[2] for s in tracer.spans), default=0.0)
            for sid, (name, parent, t0, t1) in enumerate(tracer.spans):
                fh.write(f"{k},{sid},{parent},{name},{t0 - origin:.9f},{t1 - origin:.9f}\n")
