import numpy as np
import pytest

from modlab.modulus import DensityField, density_to_svg, polar_grid
from modlab.quadrature import RingSpec
from modlab.svgplot import disk_scene_svg, line_plot_svg, polar_heatmap_svg


class TestLinePlot:
    def test_basic_structure(self):
        svg = line_plot_svg(
            [("a", [1, 2, 3], [1.0, 4.0, 9.0]), ("b", [1, 2, 3], [2.0, 2.0, 2.0])],
            title="t", xlabel="x", ylabel="y",
        )
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "t</text>" in svg

    def test_log_axes_skip_nonpositive(self):
        svg = line_plot_svg([("a", [1e-3, 1e-2, 0.0], [1.0, 10.0, -1.0])],
                            logx=True, logy=True)
        assert svg.startswith("<svg")

    def test_deterministic(self):
        series = [("s", np.linspace(0.1, 1, 7), np.linspace(2, 3, 7))]
        assert line_plot_svg(series) == line_plot_svg(series)


class TestHeatmap:
    def test_density_heatmap(self, tmp_path):
        dom = polar_grid(RingSpec(0.5, 1.5).band_edges(6), 12)
        rho = DensityField(np.linspace(0, 1, dom.n_cells))
        path = tmp_path / "rho.svg"
        density_to_svg(dom, rho, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<path" in text

    def test_rejects_cartesian(self):
        from modlab.modulus import cartesian_grid

        dom = cartesian_grid(((-0.3, 0.3), (-0.3, 0.3)), 4, 4)
        with pytest.raises(ValueError):
            polar_heatmap_svg(dom, np.ones(dom.n_cells))


class TestDiskScene:
    def test_outline(self):
        circle = [np.exp(1j * t) * 0.5 for t in np.linspace(0, 6.28, 50)]
        svg = disk_scene_svg([circle], title="domain")
        assert svg.count("<circle") >= 1
        assert "<polyline" in svg
