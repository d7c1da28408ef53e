import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cagopt import (
    SolverConfig,
    Status,
    StepKind,
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
    return (10 * i, i + 0.5, 1.0 / (i + 1), -float(i), KINDS[i % len(KINDS)])


def columns(trace):
    return (trace.evals, trace.f, trace.gnorm, trace.phi_star, list(trace.kinds()))


def row(trace, i):
    return tuple(column[i] for column in columns(trace))


class TestSequence:
    # each column, and the list of kinds(), is a sequence over the rows
    def test_length_and_indexing(self):
        trace = filled(7)
        assert len(trace) == 7 and all(len(column) == 7 for column in columns(trace))
        assert row(trace, 0) == expected_row(0)
        assert row(trace, -1) == row(trace, 6) == expected_row(6)
        assert row(trace, -7) == expected_row(0)
        for column in columns(trace):
            for index in (7, -8, 100):
                with pytest.raises(IndexError):
                    column[index]

    @pytest.mark.parametrize("index", [
        slice(None), slice(1, None), slice(None, None, 2), slice(1, 6, 3),
        slice(None, None, -1), slice(5, 1, -2), slice(4, 2), slice(7, None), slice(-100, 100),
    ])
    def test_slices_give_lists(self, index):
        trace = filled(7)
        expected = [expected_row(i) for i in range(7)[index]]
        for c, column in enumerate(columns(trace)):
            assert list(column[index]) == [r[c] for r in expected]

    def test_iteration_and_reversed(self):
        trace = filled(7)
        assert list(zip(*columns(trace), strict=True)) == [expected_row(i) for i in range(7)]
        assert list(zip(*map(reversed, columns(trace)), strict=True)) == [
            expected_row(i) for i in reversed(range(7))]

    def test_empty(self):
        trace = Trace()
        assert len(trace) == 0
        for column in columns(trace):
            assert list(column) == [] and list(column[:]) == []
            with pytest.raises(IndexError):
                column[0]
            with pytest.raises(IndexError):
                column[-1]


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
    kinds = list(trace.kinds())
    assert len(trace) == len(drawn) == len(kinds)
    # each row read from the columns; floats compared by bits, since NaN != NaN
    for i, (evals, f, gnorm, phi_star, step) in enumerate(drawn):
        assert trace.evals[i] == evals and kinds[i] is step
        assert [bits(column[i]) for column in (trace.f, trace.gnorm, trace.phi_star)] == [
            bits(v) for v in (f, gnorm, phi_star)]


def test_a_row_retains_at_most_48_bytes():
    # one object per row, with its int and float objects, retained about 220 B;
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
    assert res.status is Status.CONVERGED
    assert type(res.trace) is Trace
