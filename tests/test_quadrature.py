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
