import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from ellipstab import cli, quadrature
from ellipstab.quadrature import gauss_on_panels, integrate_polar


@pytest.mark.parametrize("n", [12, 16])
def test_cached_rule_is_leggauss_and_read_only(n):
    x, w = quadrature._reference_rule(n)
    fresh_x, fresh_w = leggauss(n)
    assert x.tobytes() == fresh_x.tobytes()
    assert w.tobytes() == fresh_w.tobytes()
    assert quadrature._reference_rule(n)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    # the composite rule is a fresh array the caller may write into
    nodes, weights = gauss_on_panels([0.0, 1.0], n)
    nodes[0] = weights[0] = 0.0


def test_wwww_study_builds_each_rule_once(monkeypatch, tmp_path):
    calls = []

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(quadrature, "leggauss", counted)
    quadrature._reference_rule.cache_clear()
    try:
        assert cli.main(["rate-study", "--study", "wwww", "--points", "5",
                         "--eps-min", "1e-3", "--out", str(tmp_path / "w.csv")]) == 0
    finally:
        quadrature._reference_rule.cache_clear()
    assert calls
    assert len(calls) == len(set(calls))


def test_polar_points_and_weights_match_the_meshgrid_form():
    # the tensor grid formed from 1-D angles is the meshgrid form, bit for bit
    beta, seen = 1.5 * np.pi, []

    def f(pts):
        seen.append(pts)
        return pts[:, 0] ** 2 + pts[:, 1]

    total = integrate_polar(f, beta, 0.0, (0.3,))
    rn, rw = gauss_on_panels(quadrature.radial_edges(0.0, 1.0, (0.3,), 8), 12)
    tn, tw = gauss_on_panels(np.linspace(0.0, beta, 9), 12)
    R, T = np.meshgrid(rn, tn, indexing="ij")
    pts = np.stack([R * np.cos(T), R * np.sin(T)], axis=-1).reshape(-1, 2)
    assert seen[0].tobytes() == pts.tobytes()
    expect = np.tensordot((rw[:, None] * tw[None, :] * R).ravel(), f(pts), axes=1)
    assert total == float(expect)


def test_corner_rule_integrates_quartics():
    bary, w = quadrature.corner_rule()
    assert bary.shape == (366, 3) and w.shape == (366,)
    assert quadrature.corner_rule()[0] is bary
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert w.sum() == pytest.approx(quadrature.TRI6_WEIGHTS.sum(), rel=1e-15, abs=0)
    # on the triangle (0, 0), (1, 0), (0, 1), apex first, x and y are the
    # second and third barycentric coordinates, and the area is 1/2
    x, y = bary[:, 1], bary[:, 2]
    for a in range(5):
        for b in range(5 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert 0.5 * np.dot(w, x**a * y**b) == pytest.approx(exact, rel=1e-14, abs=0)


@pytest.mark.parametrize("beta", [1.1 * np.pi, 1.5 * np.pi, 1.9 * np.pi])
@pytest.mark.parametrize("h", [np.pi / 64, np.pi / 16, np.pi / 8])
def test_corner_rule_on_the_corner_singularity(beta, h):
    # |grad(r^k sin(k theta))|^2 = k^2 r^(2k-2), k = pi/beta, over the corner
    # triangle (0, 0), (1, 0), (cos h, sin h) is (k/2) int_0^h R(t)^(2k) dt
    # with R(t) = cos(h/2) / cos(t - h/2) the distance to the far side.  Each
    # ring of the graded rule is similar to the last, so the six-point
    # rule's relative error on r^(2k-2) there repeats at every level: the
    # rule reaches only 2e-7 to 1.4e-5 (worst at beta = 1.9 pi, h = pi/64),
    # and the tolerance pins that
    k = np.pi / beta
    bary, w = quadrature.corner_rule()
    pts = bary @ np.array([[0.0, 0.0], [1.0, 0.0], [np.cos(h), np.sin(h)]])
    value = 0.5 * np.sin(h) * np.dot(w, k**2 * np.hypot(pts[:, 0], pts[:, 1]) ** (2 * k - 2))
    with mp.workdps(30):
        km, hm = mp.pi / mp.mpf(beta), mp.mpf(h)
        ref = km / 2 * mp.quad(lambda t: (mp.cos(hm / 2) / mp.cos(t - hm / 2)) ** (2 * km),
                               [0, hm])
    assert value == pytest.approx(float(ref), rel=1.5e-5, abs=0)
