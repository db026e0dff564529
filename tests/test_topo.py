import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barstress import core, topo
from barstress.errors import DegenerateRange, InvalidConfig, LengthMismatch, ZeroVector


def site_montage(*positions):
    chans = tuple(
        core.ChannelInfo(f"E{i}", p, "eeg") for i, p in enumerate(positions)
    )
    return core.Montage(name="sites", electrodes=chans)


class TestVectorAndGrid:
    def test_vector_rejects_bad_shapes(self):
        with pytest.raises(LengthMismatch):
            topo.TopoVector(values=np.zeros((2, 2)))
        with pytest.raises(LengthMismatch):
            topo.TopoVector(values=np.array([]))
        with pytest.raises(LengthMismatch):
            topo.TopoVector(values=np.array([1.0, np.nan]))

    def test_grid_shape_must_match_resolution(self):
        with pytest.raises(InvalidConfig):
            topo.TopoGrid(resolution=4, values=np.zeros((3, 4)), palette_range=(0, 1))

    def test_coordinates_orientation(self):
        gx, gy = topo.grid_coordinates(3)
        assert gx[0, 0] == -1.0 and gx[0, 2] == 1.0
        assert gy[0, 0] == 1.0 and gy[2, 0] == -1.0
        with pytest.raises(InvalidConfig):
            topo.grid_coordinates(1)


class TestInterpolation:
    def test_exact_at_electrode_cells(self):
        # resolution 5 puts cells at x,y in {-1,-0.5,0,0.5,1}
        m = site_montage((0.5, 0.5), (-0.5, 0.0), (0.0, -0.5))
        v = topo.TopoVector(values=np.array([3.0, -2.0, 11.0]))
        g = topo.interpolate_scalp(v, m, resolution=5)
        assert g.values[1, 3] == 3.0
        assert g.values[2, 1] == -2.0
        assert g.values[3, 2] == 11.0

    def test_convex_between_inputs(self):
        m = site_montage((0.3, 0.1), (-0.6, 0.2), (0.1, -0.7), (0.0, 0.9))
        vals = np.array([1.0, 4.0, -3.0, 0.25])
        g = topo.interpolate_scalp(topo.TopoVector(values=vals), m, resolution=64)
        inside = g.values[g.mask]
        assert inside.min() >= vals.min() - 1e-12
        assert inside.max() <= vals.max() + 1e-12

    def test_uniform_vector_fills_constant(self):
        m = site_montage((0.4, 0.0), (-0.4, 0.0), (0.0, 0.6))
        g = topo.interpolate_scalp(
            topo.TopoVector(values=np.full(3, 2.5)), m, resolution=32
        )
        np.testing.assert_allclose(g.values[g.mask], 2.5, rtol=1e-12)
        # degenerate span is widened so the palette stays renderable
        assert g.palette_range == (2.0, 3.0)

    def test_midpoint_of_two_sites(self):
        m = site_montage((-0.5, 0.0), (0.5, 0.0))
        g = topo.interpolate_scalp(
            topo.TopoVector(values=np.array([0.0, 1.0])), m, resolution=5
        )
        assert g.values[2, 2] == pytest.approx(0.5, abs=1e-9)

    def test_outside_disc_masked(self):
        m = site_montage((0.0, 0.0))
        g = topo.interpolate_scalp(topo.TopoVector(values=np.array([1.0])), m, resolution=4)
        assert np.isnan(g.values[0, 0]) and np.isnan(g.values[3, 3])
        assert not g.mask[0, 0]

    def test_length_mismatch(self):
        m = site_montage((0.0, 0.0), (0.5, 0.0))
        with pytest.raises(LengthMismatch):
            topo.interpolate_scalp(topo.TopoVector(values=np.array([1.0])), m)

    def test_full_montage_resolution_default(self, montage):
        rng = np.random.default_rng(20)
        v = topo.TopoVector(values=rng.uniform(0.3, 2.5, size=30))
        g = topo.interpolate_scalp(v, montage)
        assert g.resolution == 64
        assert g.values.shape == (64, 64)
        assert g.mask.sum() > 0.7 * 64 * 64


def reference_interpolation(values, montage, resolution):
    """The per-call interpolation formula, rebuilt from scratch every time."""
    pos = montage.positions()
    gx, gy = topo.grid_coordinates(resolution)
    inside = gx * gx + gy * gy <= 1.0 + 1e-12
    pts = np.stack([gx[inside], gy[inside]], axis=1)
    d2 = np.sum((pts[:, None, :] - pos[None, :, :]) ** 2, axis=2)
    vals = np.empty(len(pts))
    near = d2 < topo._NODE_SNAP**2
    hit = near.any(axis=1)
    vals[hit] = values[np.argmax(near[hit], axis=1)]
    with np.errstate(divide="ignore"):
        w = 1.0 / d2[~hit]
    vals[~hit] = (w @ values) / w.sum(axis=1)
    grid = np.full(gx.shape, np.nan)
    grid[inside] = vals
    return grid


class TestScalpOperator:
    def test_alternating_montages_and_resolutions(self, montage):
        # resolution 5 snaps cells onto the small montage's sites
        small = site_montage((0.5, 0.5), (-0.5, 0.0), (0.0, -0.5), (0.1, 0.7))
        rng = np.random.default_rng(30)
        plan = [(montage, 33), (small, 33), (small, 5), (montage, 5), (montage, 33),
                (small, 5), (small, 33), (montage, 5)]
        for m, res in plan:
            values = rng.uniform(-2.0, 3.0, size=len(m.positions()))
            g = topo.interpolate_scalp(topo.TopoVector(values=values), m, resolution=res)
            np.testing.assert_array_equal(g.values, reference_interpolation(values, m, res))

    def test_built_once_per_montage_and_resolution(self, montage):
        rng = np.random.default_rng(31)
        topo._scalp_operator.cache_clear()
        for _ in range(3):
            v = topo.TopoVector(values=rng.uniform(0.5, 2.0, size=30))
            topo.interpolate_scalp(v, montage, resolution=24)
        info = topo._scalp_operator.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_cached_arrays_read_only(self, montage):
        op = topo._scalp_operator(montage.positions().tobytes(), 12)
        arrays = [op.inside, op.hit, op.site, op.w, op.s]
        assert all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            op.w[0, 0] = 0.0

    def test_errors_survive_a_cached_operator(self, montage):
        v = topo.TopoVector(values=np.ones(30))
        topo.interpolate_scalp(v, montage, resolution=8)
        with pytest.raises(InvalidConfig):
            topo.interpolate_scalp(v, montage, resolution=1)
        with pytest.raises(LengthMismatch):
            topo.interpolate_scalp(topo.TopoVector(values=np.ones(29)), montage, resolution=8)


class TestSimilarity:
    def test_self_is_plus_one(self):
        v = topo.TopoVector(values=np.array([1.0, 2.0, -0.5]))
        assert topo.topo_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        v = topo.TopoVector(values=np.array([1.0, 2.0, -0.5]))
        w = topo.TopoVector(values=-v.values)
        assert topo.topo_similarity(v, w) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        v = topo.TopoVector(values=np.array([1.0, 0.0]))
        w = topo.TopoVector(values=np.array([0.0, 1.0]))
        assert topo.topo_similarity(v, w) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        v = topo.TopoVector(values=rng.normal(size=12))
        w = topo.TopoVector(values=rng.normal(size=12))
        assert topo.topo_similarity(v, w) == topo.topo_similarity(w, v)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_positive_scaling_invariant(self, scale):
        v = topo.TopoVector(values=np.array([0.3, -1.2, 2.0, 0.7]))
        w = topo.TopoVector(values=np.array([1.1, 0.4, -0.6, 1.9]))
        base = topo.topo_similarity(v, w)
        scaled = topo.topo_similarity(
            topo.TopoVector(values=scale * v.values), w
        )
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_zero_vector_rejected(self):
        v = topo.TopoVector(values=np.array([1.0, 2.0]))
        z = topo.TopoVector(values=np.array([0.0, 0.0]))
        with pytest.raises(ZeroVector):
            topo.topo_similarity(v, z)

    def test_length_mismatch(self):
        v = topo.TopoVector(values=np.array([1.0, 2.0]))
        w = topo.TopoVector(values=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(LengthMismatch):
            topo.topo_similarity(v, w)

    def test_matrix_diagonal_and_symmetry(self):
        rng = np.random.default_rng(8)
        vs = [topo.TopoVector(values=rng.uniform(0.5, 2.0, 6)) for _ in range(4)]
        m = topo.similarity_matrix(vs)
        assert m.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(m), 1.0)
        np.testing.assert_array_equal(m, m.T)
        assert np.all(m <= 1.0) and np.all(m >= -1.0)


def reference_render(grid):
    """render_topomap as one (N, N, 3) float blend over the palette."""
    vmin, vmax = grid.palette_range
    mask = grid.mask
    t = np.zeros(grid.values.shape)
    t[mask] = np.clip((grid.values[mask] - vmin) / (vmax - vmin), 0.0, 1.0)
    seg = t * (len(topo._BLUE_RED) - 1)
    idx = np.minimum(seg.astype(np.int64), len(topo._BLUE_RED) - 2)
    frac = (seg - idx)[..., None]
    rgb = topo._BLUE_RED[idx] * (1.0 - frac) + topo._BLUE_RED[idx + 1] * frac
    rgb = np.rint(rgb).astype(np.uint8)
    rgb[~mask] = 255
    n = grid.resolution
    return b"P6\n%d %d\n255\n" % (n, n) + rgb.tobytes()


class TestRendering:
    def test_matches_reference_blend(self, montage):
        rng = np.random.default_rng(22)
        grids = []
        for res in (5, 16, 64, 256):
            v = topo.TopoVector(values=rng.uniform(0.5, 2.0, size=30))
            grids.append(topo.interpolate_scalp(v, montage, resolution=res))
        for _ in range(20):
            res = int(rng.integers(1, 40))
            scale = 10.0 ** rng.uniform(-5, 5)
            vals = rng.normal(size=(res, res)) * scale
            vals[rng.random((res, res)) < 0.2] = np.nan
            lo, hi = np.sort(rng.normal(size=2) * scale)
            grids.append(topo.TopoGrid(resolution=res, values=vals, palette_range=(lo, hi)))
        for g in grids:
            assert topo.render_topomap(g) == reference_render(g)

    def build_grid(self, montage):
        rng = np.random.default_rng(21)
        v = topo.TopoVector(values=rng.uniform(0.5, 2.0, size=30))
        return topo.interpolate_scalp(v, montage, resolution=16)

    def test_ppm_layout(self, montage):
        img = topo.render_topomap(self.build_grid(montage))
        assert img.startswith(b"P6\n16 16\n255\n")
        assert len(img) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3

    def test_extremes_map_to_palette_ends(self):
        vals = np.array([[0.0, 1.0], [0.5, np.nan]])
        g = topo.TopoGrid(resolution=2, values=vals, palette_range=(0.0, 1.0))
        rgb = np.frombuffer(
            topo.render_topomap(g)[len(b"P6\n2 2\n255\n"):], dtype=np.uint8
        ).reshape(2, 2, 3)
        assert tuple(rgb[0, 0]) == (0, 0, 255)
        assert tuple(rgb[0, 1]) == (255, 0, 0)
        assert tuple(rgb[1, 0]) == (0, 255, 0)
        assert tuple(rgb[1, 1]) == (255, 255, 255)

    def test_out_of_range_values_clip(self):
        vals = np.array([[-5.0, 7.0], [0.0, 1.0]])
        g = topo.TopoGrid(resolution=2, values=vals, palette_range=(0.0, 1.0))
        rgb = np.frombuffer(
            topo.render_topomap(g)[len(b"P6\n2 2\n255\n"):], dtype=np.uint8
        ).reshape(2, 2, 3)
        assert tuple(rgb[0, 0]) == (0, 0, 255)
        assert tuple(rgb[0, 1]) == (255, 0, 0)

    def test_masked_cells_white(self, montage):
        g = self.build_grid(montage)
        img = topo.render_topomap(g)
        rgb = np.frombuffer(img[len(b"P6\n16 16\n255\n"):], dtype=np.uint8).reshape(16, 16, 3)
        assert np.all(rgb[~g.mask] == 255)

    def test_constant_field_renders_mid_palette(self):
        m = site_montage((0.0, 0.0), (0.5, 0.0))
        g = topo.interpolate_scalp(
            topo.TopoVector(values=np.array([1.0, 1.0])), m, resolution=8
        )
        rgb = np.frombuffer(
            topo.render_topomap(g)[len(b"P6\n8 8\n255\n"):], dtype=np.uint8
        ).reshape(8, 8, 3)
        assert np.all(rgb[g.mask] == (0, 255, 0))

    def test_degenerate_explicit_range(self):
        g = topo.TopoGrid(resolution=2, values=np.ones((2, 2)), palette_range=(1.0, 1.0))
        with pytest.raises(DegenerateRange):
            topo.render_topomap(g)

    def test_byte_deterministic(self, montage):
        g = self.build_grid(montage)
        assert topo.render_topomap(g) == topo.render_topomap(g)


class TestCsvExport:
    def test_masked_cells_empty_fields(self):
        m = site_montage((0.0, 0.0))
        g = topo.interpolate_scalp(topo.TopoVector(values=np.array([1.5])), m, resolution=4)
        lines = topo.grid_to_csv(g).splitlines()
        assert len(lines) == 4
        first = lines[0].split(b",")
        assert first[0] == b"" and len(first) == 4

    def test_values_round_trip(self):
        m = site_montage((0.5, 0.5), (-0.5, 0.0))
        g = topo.interpolate_scalp(
            topo.TopoVector(values=np.array([0.1, 0.9])), m, resolution=5
        )
        cells = [r.decode().split(",") for r in topo.grid_to_csv(g).splitlines()]
        assert float(cells[1][3]) == 0.1
        back = np.array(
            [[np.nan if c == "" else float(c) for c in row] for row in cells]
        )
        np.testing.assert_array_equal(back[g.mask], g.values[g.mask])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7).flatmap(
            lambda n: st.lists(
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e16, -1e-5, 0.1]),
                ),
                min_size=n * n,
                max_size=n * n,
            )
        )
    )
    def test_bytes_equal_per_value_repr(self, cells):
        n = math.isqrt(len(cells))
        g = topo.TopoGrid(resolution=n, values=np.reshape(cells, (n, n)), palette_range=(0, 1))
        expected = "".join(
            ",".join(repr(float(v)) if math.isfinite(v) else "" for v in row) + "\n"
            for row in g.values
        )
        assert topo.grid_to_csv(g) == expected.encode()
