import re
import warnings

import numpy as np
import pytest

from geoperc.geometry import OPEN_BOX, TORUS, PointSet, Region, generate_poisson, generate_uniform
from geoperc.graph import build_graph


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0.0, 5.0)
    with pytest.raises(ValueError):
        Region(5.0, -1.0)
    with pytest.raises(ValueError):
        Region(5.0, 5.0, "donut")
    for width, height in ((np.inf, 5.0), (5.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            Region(width, height)
    assert Region(2.0, 3.0).area == 6.0


def test_pointset_rejects_outside_points():
    for bad in ([6.0, 1.0], [np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match=r"points\[1\]"):
            PointSet([[1.0, 1.0], bad], Region(5.0, 5.0))


def test_generate_uniform_empty():
    pts = generate_uniform(0, Region(10.0, 10.0), seed=1)
    assert len(pts) == 0
    with pytest.raises(ValueError):
        generate_uniform(-1, Region(10.0, 10.0), seed=1)


def test_generate_uniform_count():
    pts = generate_uniform(1600, Region(25.0, 25.0), seed=7)
    assert len(pts) == 1600


def test_generate_uniform_deterministic():
    a = generate_uniform(300, Region(10.0, 10.0), seed=123)
    b = generate_uniform(300, Region(10.0, 10.0), seed=123)
    assert np.array_equal(a.coordinates, b.coordinates)
    c = generate_uniform(300, Region(10.0, 10.0), seed=124)
    assert not np.array_equal(a.coordinates, c.coordinates)


def test_generate_poisson_empty():
    pts = generate_poisson(0.0, Region(10.0, 10.0), seed=5)
    assert len(pts) == 0


@pytest.mark.parametrize("lam", [0.0, 0], ids=["float", "int"])
def test_generate_poisson_zero_lambda_is_empty_on_an_overflowing_area(lam):
    # lambda 0 times the area inf is nan; no intensity still means no points
    region = Region(1e200, 1e200)
    assert region.area == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(generate_poisson(lam, region, seed=1)) == 0


@pytest.mark.parametrize(
    "lam", [np.nan, -1.0, -np.inf, pytest.param(10**400, id="int-past-float-range"),
            pytest.param(10**5000, id="int-past-str-limit"),
            pytest.param(-10**5000, id="negative-int-past-str-limit")]
)
def test_generate_poisson_rejects_bad_lambda_by_name(lam):
    # an int past the float range gives an infinite mean, not an OverflowError;
    # one with more digits than Python converts to text is named by its order
    # of magnitude
    with pytest.raises(ValueError, match=r"^lambda (must be non-negative, got "
                                         r"|(\d+|about 1e5000) times area 25\.0 gives inf "
                                         r"expected points)"):
        generate_poisson(lam, Region(5.0, 5.0), seed=1)


@pytest.mark.parametrize(
    "lam, mean",
    [(1e18, 2.5e19), (1e308, np.inf), (np.float64(1e308), np.inf), (np.inf, np.inf)],
)
def test_generate_poisson_rejects_count_past_the_sampler(lam, mean):
    message = f"lambda {lam} times area 25.0 gives {mean} expected points"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            generate_poisson(lam, Region(5.0, 5.0), seed=1)


def test_generate_poisson_deterministic():
    a = generate_poisson(1.5, Region(20.0, 20.0), seed=8)
    b = generate_poisson(1.5, Region(20.0, 20.0), seed=8)
    assert np.array_equal(a.coordinates, b.coordinates)


def test_generate_poisson_count_moments():
    # mean count over 1000 seeds within 3 standard errors of lambda * area
    expected = 2.0 * 100.0 * 100.0
    counts = [len(generate_poisson(2.0, Region(100.0, 100.0), seed=s)) for s in range(1000)]
    se = np.sqrt(expected) / np.sqrt(1000)
    assert abs(np.mean(counts) - expected) < 3 * se


def test_poisson_torus_mean_degree_matches_closed_form():
    # oracle: mean degree of the unit-radius graph on a torus is lambda * pi
    region = Region(50.0, 50.0, TORUS)
    mean_degrees = []
    for s in range(100):
        g = build_graph(generate_poisson(1.44, region, seed=s), 1.0)
        mean_degrees.append(g.mean_degree())
    mean_degrees = np.array(mean_degrees)
    expected = 1.44 * np.pi
    se = mean_degrees.std(ddof=1) / 10
    assert abs(mean_degrees.mean() - expected) < 3 * se


def test_open_box_mean_degree_strictly_smaller():
    torus = Region(50.0, 50.0, TORUS)
    box = Region(50.0, 50.0, OPEN_BOX)
    torus_means, box_means = [], []
    for s in range(30):
        pts_t = generate_poisson(1.44, torus, seed=s)
        pts_b = PointSet(pts_t.coordinates, box)
        torus_means.append(build_graph(pts_t, 1.0).mean_degree())
        box_means.append(build_graph(pts_b, 1.0).mean_degree())
    assert np.mean(box_means) < np.mean(torus_means)
