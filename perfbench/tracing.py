"""Span tracer that wraps the package's call sites from outside.

``patched`` swaps wrappers in for names in the ``cagopt.cag``,
``cagopt.baselines`` and ``cagopt.harness`` namespaces, and for
``ProblemSpec.build``, for the length of a ``with`` block; every original is
restored on exit.  A span is named ``<module>.<function>`` after the module
that defines the function, so one layer's spans share a prefix whichever
module calls them.  Spans are aggregated in memory as they close: per name
the call count, the total time and the self time, which is the span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Iterator

import cagopt.baselines
import cagopt.cag
import cagopt.harness
from cagopt import ProblemSpec
from cagopt.cag import _ConvergedAt

# Spans that time set-up work, as opposed to solving.
SETUP_SPANS = ("problems.build", "problems.quad_diag_system")

# Names wrapped in each namespace by the traced run.  cg_attempt is wrapped
# separately because its outcome is counted too.
_CALL_SITES = {
    cagopt.cag: (
        "evaluate_counted",
        "secant_alpha",
        "hz_beta",
        "z_conjugate_update",
        "bar_augment",
        "compute_theta_gamma",
        "advance_estimate",
        "ag_step",
        "return_to_cg",
    ),
    cagopt.baselines: (
        "evaluate_counted",
        "secant_alpha",
        "hz_beta",
        "compute_theta_gamma",
        "advance_estimate",
    ),
    cagopt.harness: (
        "cag_minimize",
        "ncg_minimize",
        "ag_minimize",
        "lcg_minimize",
        "write_trace_csv",
    ),
}


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """In-memory span aggregates plus the cg_attempt outcome counts."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._open: list[list[float]] = []  # per open span: time covered by its children
        self.cg_accepted = 0
        self.cg_useful = 0
        self.rejected_attempt_evals = 0

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def setup_s(self) -> float:
        return sum(self.total(name) for name in SETUP_SPANS)

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # Solvers end runs by raising through these frames
                # (_ConvergedAt, NumericalFailure), so close here.
                duration = clock() - start
                open_spans.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children[0]
                if open_spans:
                    open_spans[-1][0] += duration

        return traced

    def wrap_cg_attempt(self, fn: Callable) -> Callable:
        """Also count accepted attempts, attempts that ended the run, and the
        evaluations spent inside attempts that came back rejected."""
        timed = self.wrap(span_name(fn), fn)
        evals = self._stat("oracle.evaluate_counted")

        def traced(*args, **kwargs):
            before = evals[0]
            try:
                accepted, state = timed(*args, **kwargs)
            except _ConvergedAt:
                self.cg_useful += 1
                raise
            if accepted:
                self.cg_accepted += 1
                self.cg_useful += 1
            else:
                self.rejected_attempt_evals += evals[0] - before
            return accepted, state

        return traced


@contextmanager
def patched(tracer: Tracer, layers: bool) -> Iterator[Callable]:
    """Wrap set-up calls (and, with ``layers``, every traced call site) and
    yield the ``harness.run`` to call inside the block."""
    saved = []

    def swap(owner, name, new):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    try:
        timed_build = tracer.wrap("problems.build", ProblemSpec.build)

        def traced_build(spec):
            problem = timed_build(spec)
            return replace(problem, evaluate=tracer.wrap("problems.evaluate", problem.evaluate))

        swap(ProblemSpec, "build", traced_build if layers else timed_build)
        quad = cagopt.harness.quad_diag_system
        swap(cagopt.harness, "quad_diag_system", tracer.wrap(span_name(quad), quad))
        run = cagopt.harness.run
        if layers:
            for namespace, names in _CALL_SITES.items():
                for name in names:
                    fn = getattr(namespace, name)
                    swap(namespace, name, tracer.wrap(span_name(fn), fn))
            swap(cagopt.cag, "cg_attempt", tracer.wrap_cg_attempt(cagopt.cag.cg_attempt))
            run = tracer.wrap(span_name(run), run)
        yield run
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
