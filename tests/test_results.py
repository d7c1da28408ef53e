import math
import struct
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cagopt import (
    SolverConfig,
    StepKind,
    TraceRecord,
    cag_minimize,
    lcg_minimize,
    make_quad_diag,
    quad_diag_system,
)
from cagopt.results import Trace

from conftest import minimize

KINDS = list(StepKind)


def filled(n):
    trace = Trace()
    for i in range(n):
        trace.append(10 * i, i + 0.5, 1.0 / (i + 1), -float(i), KINDS[i % len(KINDS)])
    return trace


def expected_row(i):
    return TraceRecord(i, 10 * i, i + 0.5, 1.0 / (i + 1), -float(i), KINDS[i % len(KINDS)])


class TestSequence:
    def test_length_and_indexing(self):
        trace = filled(7)
        assert isinstance(trace, Sequence) and len(trace) == 7
        assert trace[0] == expected_row(0)
        assert trace[-1] == trace[6] == expected_row(6)
        assert trace[-7] == expected_row(0)
        for index in (7, -8, 100):
            with pytest.raises(IndexError):
                trace[index]

    @pytest.mark.parametrize("index", [
        slice(None), slice(1, None), slice(None, None, 2), slice(1, 6, 3),
        slice(None, None, -1), slice(5, 1, -2), slice(4, 2), slice(7, None), slice(-100, 100),
    ])
    def test_slices_give_lists(self, index):
        trace = filled(7)
        assert trace[index] == [expected_row(i) for i in range(7)[index]]

    def test_iteration_and_reversed(self):
        trace = filled(7)
        assert list(trace) == [expected_row(i) for i in range(7)]
        assert list(reversed(trace)) == [expected_row(i) for i in reversed(range(7))]
        assert list(trace.kinds()) == [row.step for row in trace]

    def test_empty(self):
        trace = Trace()
        assert len(trace) == 0 and list(trace) == [] and trace[:] == []
        with pytest.raises(IndexError):
            trace[0]
        with pytest.raises(IndexError):
            trace[-1]


def bits(v):
    return struct.pack("<d", v)


# NaN of either sign, infinities, signed zeros, subnormals and the largest double
SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
           5e-324, -2.5e-320, 1.7976931348623157e308]
values = st.floats() | st.sampled_from(SPECIAL)
rows = st.tuples(st.integers(0, 2**62), values, values, values, st.sampled_from(KINDS))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.lists(rows, max_size=40))
@example([(2**62, v, -v, v, kind) for v, kind in zip(SPECIAL, KINDS * 2)])
def test_appended_rows_read_back_bit_for_bit(drawn):
    trace = Trace()
    for row in drawn:
        trace.append(*row)
    assert len(trace) == len(drawn)
    # rows read by iteration and by index; compared by bits, since NaN != NaN
    for i, (rec, by_index, row) in enumerate(zip(trace, trace[:], drawn, strict=True)):
        evals, f, gnorm, phi_star, step = row
        for r in (rec, by_index):
            assert (r.iteration, r.evals) == (i, evals) and r.step is step
            assert [bits(v) for v in (r.f, r.gnorm, r.phi_star)] == [
                bits(v) for v in (f, gnorm, phi_star)]


def test_a_row_retains_at_most_48_bytes():
    # a TraceRecord row with its int and float objects retained about 220 B;
    # each row here brings three fresh float objects, as a solver's row does
    n = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = Trace()
        for i in range(n):
            trace.append(i + 1, i * 0.5, 1.0 / (i + 1), i * -0.25, KINDS[i % len(KINDS)])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert retained <= 48 * n


@pytest.mark.parametrize("solver", ["cag", "cag+z", "ncg", "ag", "lcg"])
def test_every_solver_returns_a_trace(solver):
    # no path may build its trace as a list of rows again
    if solver == "lcg":
        res = lcg_minimize(quad_diag_system(10), np.ones(10), 1e-8, 100)
    elif solver == "cag+z":
        prob = make_quad_diag(10)
        res = cag_minimize(prob, np.ones(10), SolverConfig(prob.default_L, prob.default_ell,
                                                           conjugate_z=True))
    else:
        res = minimize(solver, make_quad_diag(10), np.ones(10))
    assert res.converged
    assert type(res.trace) is Trace and len(res.trace) == res.iterations + 1
