"""Spans and counters around calls into ccckit's modules, for the traced run.

Tracing lives entirely in the benchmark: ``install`` rebinds selected public
functions of the already-imported ccckit modules to wrappers that record a
span (name, start, end, parent) and update counters, and returns an undo
callable that puts the originals back.  Every module namespace that imported
a function by name gets the wrapper too, so ``verify``'s own reference to
``zero_count_rows`` is traced like the one in ``exact_corr``.

Spans are kept in memory; ``layer_totals`` reduces them to per-layer self
time, i.e. a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

PROBE = "verify.probe"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(int)
        self.active = True  # off while the benchmark checks outputs
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return None if parent is None else self.spans[parent][0]


def self_times(spans) -> list[float]:
    """Self seconds of each span: its duration minus the union of its children."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_totals(tracer: Tracer) -> dict[str, float]:
    """Self seconds per span name (as "<name>_s") plus the tracer's counters."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), seconds in zip(tracer.spans, self_times(tracer.spans)):
        out[f"{name}_s"] += seconds
    for key, value in tracer.counts.items():
        out[key] += value
    return dict(out)


# ---------------------------------------------------------------------------
# counters: each gets (tracer, span index, args, result)


def _count_pair_counts(t, idx, args, result):
    t.counts["exact_corr.pair_counts_calls"] += 1
    t.counts["exact_corr.pair_counts_ops"] += int(result.sum())  # element pairs binned


def _count_zero_test(t, idx, args, result):
    t.counts["exact_corr.zero_test_rows"] += len(result)
    t.counts["exact_corr.nonzero_rows"] += int((~result).sum())
    if t.parent_name(idx) == PROBE:  # the probe's own witness loop, not its fallback
        t.counts["verify.probe_witness_cells"] += len(result)


def _count_verify(t, idx, args, result):
    t.counts["verify.cells"] += result.shifts_tested
    t.counts["verify.violations"] += result.total_violations


def _count_probe(t, idx, args, result):
    t.counts["verify.probes"] += 1
    t.counts["verify.probe_full_scans"] += int(result.used_full_scan)
    t.counts["verify.probe_witness_hits"] += int(result.found and not result.used_full_scan)


def _count_build(t, idx, args, result):
    t.counts["construct.build_calls"] += 1
    t.counts["construct.entries"] += int(result.exps.size)
    t.counts["construct.bytes_computed"] += int(result.exps.nbytes)  # from array sizes


def _count_dump(t, idx, args, result):
    t.counts["construct.dump_bytes"] += len(result)  # ASCII: json.dumps escapes the rest


def _targets():
    from ccckit import cli, construct, exact_corr, qary, verify

    return [
        (exact_corr, "pair_counts_nonneg_shifts", "exact_corr.pair_counts", _count_pair_counts),
        (exact_corr, "zero_count_rows", "exact_corr.zero_test", _count_zero_test),
        (verify, "verify_ccc", "verify.verify", _count_verify),
        (verify, "necessity_probe", PROBE, _count_probe),
        (construct, "build_code_set", "construct.build", _count_build),
        (qary, "build_from_spec", "qary.table", None),
        (construct, "kronecker_compose", "construct.kron", None),
        (construct.CodeSet, "dumps", "construct.dump", _count_dump),
        (construct.CodeSet, "from_json", "construct.from_json", None),
        (cli, "load_code_set", "cli.load", None),
    ]


def _wrap(tracer: Tracer, fn, name: str, counter):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(name) as idx:
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, idx, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Trace the ccckit functions in ``_targets``; returns a callable that undoes it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "ccckit" or n.startswith("ccckit.")]
    undo = []
    for owner, attr, name, counter in _targets():
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(_wrap(tracer, raw.__func__, name, counter)))
            undo.append((owner, attr, raw))
            continue
        wrapper = _wrap(tracer, raw, name, counter)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is raw]:
                setattr(mod, key, wrapper)
                undo.append((mod, key, raw))
        if owner not in modules:  # a class: rebind the method itself
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, raw))

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore
