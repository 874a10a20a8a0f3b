import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsieve import build_dickman_table, empirical_rho, rho


@pytest.fixture(scope="module")
def table():
    return build_dickman_table(max_u=6.0)


def interp_by_point(values, step, u):
    """Oracle: linear interpolation at one u, clamped to the last grid
    value, written apart from the vectorized interpolation in src."""
    k = u / step
    lo = int(math.floor(k))
    if lo >= len(values) - 1:
        return float(values[-1])
    frac = k - lo
    return float(values[lo] * (1.0 - frac) + values[lo + 1] * frac)


def dickman_by_points(step, max_u):
    """Oracle: the trapezoid recurrence one grid point at a time."""
    n = math.ceil(max_u / step)
    values = np.ones(n + 1)
    for i in range(1, n + 1):
        u = i * step
        if u <= 1.0:
            continue
        u_prev = (i - 1) * step
        if u_prev < 1.0:
            h = u - 1.0
            values[i] = 1.0 - (h / 2.0) * (1.0 + interp_by_point(values, step, u - 1.0) / u)
        else:
            g_prev = interp_by_point(values, step, u_prev - 1.0) / u_prev
            g_here = interp_by_point(values, step, u - 1.0) / u
            values[i] = values[i - 1] - (step / 2.0) * (g_prev + g_here)
    return values


# 2^-10 and 0.1 land on u = 1 exactly (no kink step); 0.3 and 1/3 do not,
# and fill their tables one point per block
@pytest.mark.parametrize("step", [2.0**-10, 2.0**-11, 0.3, 0.1, 1 / 3])
@pytest.mark.parametrize("max_u", [1.0, 1.5, 2.0, 1 / 0.3 + 1, 6.0, 10.0])
def test_table_equals_per_point_loop(step, max_u):
    got = build_dickman_table(step=step, max_u=max_u)
    assert got.values.tobytes() == dickman_by_points(step, max_u).tobytes()


def test_rho_is_one_on_unit_interval(table):
    for u in (0.0, 0.25, 0.5, 1.0):
        assert rho(u, table) == 1.0


def test_rho_two_analytic(table):
    assert abs(rho(2.0, table) - (1 - math.log(2))) < 1e-6


def test_rho_analytic_on_1_2(table):
    # rho(u) = 1 - ln u on [1, 2], by integrating the delay equation
    for u in (1.1, 1.3, 1.5, 1.7, 1.9):
        assert abs(rho(u, table) - (1 - math.log(u))) < 1e-6


def test_rho_values_in_range(table):
    vals = table.values
    assert np.all(vals > 0) and np.all(vals <= 1)
    assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing
    grid = np.arange(len(vals)) * table.step
    assert np.all(vals[grid <= 1.0] == 1.0)
    assert np.all(vals[grid > 1.0] < 1.0)


def test_first_step_past_the_kink_off_grid():
    # step 0.3 does not divide 1, so the step from 0.9 to 1.2 integrates
    # from the kink at u = 1.  On (1, 2] rho(t - 1) = 1, so the table is
    # the trapezoid rule for 1 - int_1^u dt/t, which overestimates the
    # integral of the convex 1/t by at most (u - 1) * step^2 / 6
    t = build_dickman_table(step=0.3, max_u=2.0)
    us = np.arange(len(t.values)) * t.step
    on = (us > 1.0) & (us <= 2.0)
    assert us[on].tolist() == pytest.approx([1.2, 1.5, 1.8])
    err = (1.0 - np.log(us[on])) - t.values[on]
    assert np.all(err >= 0)
    assert np.all(err <= (us[on] - 1.0) * t.step**2 / 6)


@pytest.fixture(scope="module", params=[2.0**-10, 0.3, 1 / 3, 0.01])
def step_table(request):
    return build_dickman_table(step=request.param, max_u=4.0)


def rho_by_point(u, table):
    return 1.0 if u <= 1.0 else interp_by_point(table.values, table.step, u)


def test_rho_equals_per_point_interpolation_on_the_grid(step_table):
    t = step_table
    grid = (np.arange(len(t.values)) * t.step).tolist()
    assert grid[-1] == t.max_u
    got = [rho(u, t) for u in grid]
    assert np.array(got).tobytes() == np.array([rho_by_point(u, t) for u in grid]).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rho_equals_per_point_interpolation(step_table, data):
    t = step_table
    u = data.draw(st.floats(min_value=0.0, max_value=t.max_u))
    got = rho(u, t)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(rho_by_point(u, t)).tobytes()


def test_rho_at_table_end(table):
    # the last grid point has no right neighbour: _interp returns it
    assert table.max_u == 6.0
    assert rho(table.max_u, table) == table.values[-1]


def test_grid_refinement(table):
    fine = build_dickman_table(step=2.0**-11, max_u=6.0)
    for u in (1.5, 2.0, 2.7, 3.3, 4.1, 5.0):
        assert abs(rho(u, table) - rho(u, fine)) < 1e-6


def test_rho_out_of_range(table):
    with pytest.raises(ValueError):
        rho(7.0, table)
    with pytest.raises(ValueError):
        rho(-0.1, table)
    with pytest.raises(ValueError, match=r"u must be >= 0, .*got nan$"):
        rho(math.nan, table)


def test_bad_table_params():
    with pytest.raises(ValueError):
        build_dickman_table(step=0.0)
    with pytest.raises(ValueError):
        build_dickman_table(max_u=0.5)


def test_empirical_rho_u1(table10k):
    assert empirical_rho(10**4, 1.0, table10k) == 1.0


def test_empirical_rho_monotone_in_u(table10k):
    vals = [empirical_rho(10**4, u, table10k) for u in (1.0, 1.5, 2.0, 2.5, 3.0)]
    assert vals == sorted(vals, reverse=True)


def test_empirical_rho_requires_u_at_least_one(table10k):
    with pytest.raises(ValueError):
        empirical_rho(10**4, 0.5, table10k)
    with pytest.raises(ValueError):
        empirical_rho(10**4, [1.0, 2.0, 0.5], table10k)


@pytest.mark.parametrize("u", [math.nan, [2.0, math.nan]])
def test_empirical_rho_rejects_nan(table10k, u):
    with pytest.raises(ValueError, match="u must be >= 1"):
        empirical_rho(100, u, table10k)


@pytest.mark.parametrize("x", [1, 97, 10**4])
def test_empirical_rho_array_equals_scalar_calls(table10k, x):
    us = [1.0, 1.001, 1.5, 2.0, 2.7, 3.0, 4.25, 6.0, 20.0]
    scalar = [empirical_rho(x, u, table10k) for u in us]
    assert all(type(v) is float for v in scalar)
    assert empirical_rho(x, np.array(us), table10k).tolist() == scalar
    assert empirical_rho(x, [], table10k).tolist() == []
