"""Spans around the library's layer boundaries, for the traced run.

``Tracer.installed()`` replaces each function in ``TARGETS`` by a
wrapper in the namespace where callers look it up (``experiments.evolve``
for the call inside ``hydro_convergence``, ``wavespeed.apply_Q_1d`` for
the call inside ``weinberger_step``, and so on) and puts every original
back when the block ends.  A span is ``[name, start, end, parent]``,
with ``parent`` the index of the enclosing span or -1; spans stay in
memory until the run writes them out.  Wrappers also add up work
counts read from the arguments and return values.

Self time is a span's duration minus the durations of its child spans.
Metrics named ``*.s`` are self times summed over every span of that
name; ``*.ns_per_*`` and ``*.us_per_*`` divide a span's whole duration,
children included, by its work count.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import defaultdict
from time import perf_counter

from qcp import comparison, experiments, ide, kernel, lattice, rng, wavespeed

# Bytes of the arrays one lattice step reads or writes, from their
# sizes: per site four float64 uniform streams plus the uint8 occupancy
# in and out; per birth attempt ten int64 index arrays (attempting
# site, sampled offset, parent, neighbour choice, neighbour) and two
# float64 uniform gathers.
STEP_BYTES_PER_SITE = 4 * 8 + 1 + 1
STEP_BYTES_PER_ATTEMPT = 10 * 8 + 2 * 8
# Bytes per node of one 2D operator step, from array sizes: the field,
# its square, the result and the output (float64) on both paths; the
# FFT path adds the kernel grid and three half spectra (complex128 on
# half the nodes), the direct path a slice read per kernel offset.
Q2D_BYTES_PER_NODE_FFT = 8 * (4 + 1 + 3)
Q2D_BYTES_PER_NODE = 8 * 4


def _count_discretize(counts, args, kwargs, out):
    counts["kernel.discretize.offsets"] += len(out.offsets)


def _count_draws(counts, args, kwargs, out):
    counts["kernel.sample_indices.draws"] += len(out)


def _count_step(counts, args, kwargs, out):
    state, report = out
    counts["lattice.step.sites"] += state.side * state.side
    counts["lattice.step.births_attempted"] += report.births_attempted
    counts["lattice.step.births"] += report.births


def _count_q2d(counts, args, kwargs, out):
    dk = args[1] if len(args) > 1 else kwargs["dk"]
    method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
    if method == "auto":    # the choice convolve_sq makes
        method = ("fft" if len(dk.offsets) > ide._FFT_SUPPORT_THRESHOLD
                  else "direct")
    nodes = out.values.size
    counts["ide.apply_Q_2d.nodes"] += nodes
    if method == "fft":
        counts["ide.apply_Q_2d.fft"] += 1
        counts["ide.apply_Q_2d.bytes_computed"] += nodes * Q2D_BYTES_PER_NODE_FFT
    else:
        counts["ide.apply_Q_2d.direct"] += 1
        counts["ide.apply_Q_2d.bytes_computed"] += nodes * (
            Q2D_BYTES_PER_NODE + 8 * len(dk.offsets))


def _count_q1d(counts, args, kwargs, out):
    counts["ide.apply_Q_1d.points"] += len(out.values)


def _count_speed(counts, args, kwargs, out):
    counts["wavespeed.probes"] += len(out.trace)
    counts["wavespeed.recursion_steps"] += out.iterations


def _count_phi(counts, args, kwargs, out):
    counts["wavespeed.phi_n_iter"] = out.n_iter


def _count_errors(counts, args, kwargs, out):
    for pt in out:
        counts[f"comparison.errors.type_{pt.type}"] += 1


def _count_containment(counts, args, kwargs, out):
    counts["comparison.bad_boxes"] += out.n_bad
    counts["comparison.violations"] += len(out.violations)


def _count_coupled(counts, args, kwargs, out):
    counts["comparison.regions"] += out.n_regions


# (namespace, attribute, span name, counter)
TARGETS = (
    (experiments, "hydro_convergence", "experiments.hydro_convergence", None),
    (experiments, "phase_scan", "experiments.phase_scan", None),
    (experiments, "run_coupled", "experiments.run_coupled", _count_coupled),
    (experiments, "discretize", "kernel.discretize", _count_discretize),
    (kernel, "discretize", "kernel.discretize", _count_discretize),
    (kernel.DiscreteKernel, "sample_indices", "kernel.sample_indices",
     _count_draws),
    (rng.LatticeRng, "stream", "rng.stream", None),
    (lattice, "init", "lattice.init", None),
    (lattice, "step", "lattice.step", _count_step),
    (lattice, "box_stats", "lattice.box_stats", None),
    (experiments, "evolve", "ide.evolve", None),
    (ide, "apply_Q_2d", "ide.apply_Q_2d", _count_q2d),
    (wavespeed, "apply_Q_1d", "ide.apply_Q_1d", _count_q1d),
    (comparison, "apply_Q_1d", "ide.apply_Q_1d", _count_q1d),
    (wavespeed, "build_phi", "wavespeed.build_phi", _count_phi),
    (wavespeed, "estimate_cstar", "wavespeed.estimate_cstar", _count_speed),
    (wavespeed, "weinberger_step", "wavespeed.weinberger_step", None),
    (comparison, "detect_errors", "comparison.detect_errors", _count_errors),
    (comparison.RegionSet, "evolve_to", "comparison.evolve_to", None),
    (comparison, "check_containment", "comparison.check_containment",
     _count_containment),
    (comparison.ProfileCache, "_build", "comparison.profile_cache", None),
)

LAYERS = ("kernel", "rng", "lattice", "ide", "wavespeed", "comparison",
          "experiments", "bench")


class Tracer:
    """Spans and work counts of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name, count))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, name, fn, *args):
        """Run fn(*args) under a span of the benchmark's own, such as
        'setup' or 'job'."""
        return self._wrap(fn, name, None)(*args)


def span_totals(spans):
    """Per span name: calls, summed duration and summed self time; and
    per root span name, each layer's self time below it and its
    inclusive time (the time under its outermost spans)."""
    layer = [name.split(".")[0] if parent >= 0 else "bench"
             for name, _, _, parent in spans]
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    above = [frozenset()] * len(spans)   # layers of the enclosing spans
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[i] = root[parent]
            above[i] = above[parent] | {layer[parent]}
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    self_by_root = defaultdict(lambda: defaultdict(float))
    incl_by_root = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child[i]
        root_name = spans[root[i]][0]
        self_by_root[root_name][layer[i]] += dur - child[i]
        if layer[i] not in above[i]:
            incl_by_root[root_name][layer[i]] += dur
    return calls, total, self_time, self_by_root, incl_by_root


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of a traced run.  Counts and times cover
    every span; the layer shares cover the 'job' root only, as self
    time ('share.self.*') and as time under the layer's outermost spans
    ('share.incl.*', which counts the 1D operator inside the front
    recursion towards wavespeed as well as towards ide)."""
    calls, total, self_s, self_by_root, incl_by_root = span_totals(
        tracer.spans)
    c = tracer.counts
    m = {}
    for name in ("kernel.discretize", "kernel.sample_indices", "rng.stream",
                 "lattice.step", "lattice.box_stats", "lattice.init",
                 "ide.apply_Q_2d", "ide.apply_Q_1d", "wavespeed.build_phi",
                 "wavespeed.estimate_cstar", "wavespeed.weinberger_step",
                 "comparison.detect_errors", "comparison.evolve_to",
                 "comparison.check_containment", "comparison.profile_cache"):
        m[f"{name}.s"] = self_s[name]
    for name in ("rng.stream", "lattice.step", "ide.apply_Q_2d",
                 "ide.apply_Q_1d"):
        m[f"{name}.calls"] = calls[name]
    for key in ("kernel.discretize.offsets", "kernel.sample_indices.draws",
                "lattice.step.sites", "lattice.step.births_attempted",
                "lattice.step.births", "ide.apply_Q_2d.nodes",
                "ide.apply_Q_2d.fft", "ide.apply_Q_2d.direct",
                "ide.apply_Q_2d.bytes_computed", "ide.apply_Q_1d.points",
                "wavespeed.probes", "wavespeed.recursion_steps",
                "wavespeed.phi_n_iter", "comparison.errors.type_I",
                "comparison.errors.type_II", "comparison.regions",
                "comparison.bad_boxes", "comparison.violations"):
        m[key] = c[key]
    m["kernel.sample_indices.ns_per_draw"] = _ratio(
        total["kernel.sample_indices"], c["kernel.sample_indices.draws"], 1e9)
    m["lattice.step.ns_per_site"] = _ratio(
        total["lattice.step"], c["lattice.step.sites"], 1e9)
    m["lattice.step.bytes_computed"] = (
        STEP_BYTES_PER_SITE * c["lattice.step.sites"]
        + STEP_BYTES_PER_ATTEMPT * c["lattice.step.births_attempted"])
    m["lattice.birth_yield"] = _ratio(c["lattice.step.births"],
                                      c["lattice.step.births_attempted"])
    m["ide.apply_Q_2d.ns_per_node"] = _ratio(
        total["ide.apply_Q_2d"], c["ide.apply_Q_2d.nodes"], 1e9)
    m["wavespeed.steps_per_probe"] = _ratio(c["wavespeed.recursion_steps"],
                                            c["wavespeed.probes"])
    m["wavespeed.us_per_recursion_step"] = _ratio(
        total["wavespeed.estimate_cstar"], c["wavespeed.recursion_steps"], 1e6)
    m["experiments.self.s"] = sum(v for k, v in self_s.items()
                                  if k.startswith("experiments."))
    job_self = self_by_root.get("job", {})
    job_incl = incl_by_root.get("job", {})
    job_total = job_incl.get("bench", 0.0)
    for layer in LAYERS:
        m[f"share.self.{layer}"] = _ratio(job_self.get(layer, 0.0), job_total)
        if layer != "bench":
            m[f"share.incl.{layer}"] = _ratio(job_incl.get(layer, 0.0),
                                              job_total)
    m["trace.spans"] = len(tracer.spans)
    return m


def step_latencies(starts):
    """Outer-step durations from ``(start time, input time)`` of each
    ``lattice.step`` call: a step lasts until the next step of the same
    trajectory starts, so it covers everything the caller does per step.
    The last step of each trajectory has no successor and is left out."""
    return [b[0] - a[0] for a, b in zip(starts, starts[1:])
            if b[1] == a[1] + 1]


@contextlib.contextmanager
def step_clock(starts):
    """Record ``(start time, input time)`` of every ``lattice.step``
    call into ``starts`` while the block runs."""
    original = vars(lattice)["step"]

    @functools.wraps(original)
    def wrapper(s, *args, **kwargs):
        starts.append((perf_counter(), s.time))
        return original(s, *args, **kwargs)

    lattice.step = wrapper
    try:
        yield starts
    finally:
        lattice.step = original


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 10 else 0


def nearest_rank(sorted_values, pct: float):
    """The pct-th percentile of sorted values by the nearest-rank rule."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def current():
    """The objects bound at each target now, to check restoration."""
    return [vars(owner)[attr] for owner, attr, _, _ in TARGETS]
