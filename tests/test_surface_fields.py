"""Tests for the random-field helpers behind the scene generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sentinel2.cloud
import repro.surface.scene
from repro.pipeline.stage import StageContext
from repro.pipeline.stages import stage_s2, stage_scene
from repro.surface.fields import add_linear_leads, gaussian_random_field, smooth_threshold_classes
from repro.surface.scene import SceneConfig
from repro.utils.random import default_rng
from repro.workflow.experiment import ExperimentConfig

#: The quickstart example's configuration (examples/quickstart.py).
QUICKSTART = ExperimentConfig(
    scene=SceneConfig(
        width_m=15_000.0,
        height_m=15_000.0,
        open_water_fraction=0.12,
        thin_ice_fraction=0.18,
        thick_ice_fraction=0.70,
    ),
    epochs=5,
    seed=0,
)


def c2c_random_field(shape, correlation_length_px, rng=None):
    """Oracle for ``gaussian_random_field``: the complex-to-complex FFT filter.

    An ``rfft2`` version differs by ~1e-16, which training amplifies into a
    different classifier, so any change to these bits must be deliberate.
    """
    rng = default_rng(rng)
    ny, nx = shape
    white = rng.standard_normal((ny, nx))
    ky = np.fft.fftfreq(ny)[:, None]
    kx = np.fft.fftfreq(nx)[None, :]
    k2 = kx**2 + ky**2
    filt = np.exp(-0.5 * k2 * (correlation_length_px * 2.0 * np.pi) ** 2)
    spec = np.fft.fft2(white) * np.sqrt(filt)
    field = np.real(np.fft.ifft2(spec))
    std = field.std()
    if std < 1e-12:
        return np.zeros(shape)
    return (field - field.mean()) / std


def full_grid_leads(class_map, n_leads, lead_class, width_px, rng=None):
    """Oracle for ``add_linear_leads``: the predicate over the whole grid per lead."""
    rng = default_rng(rng)
    out = np.array(class_map, copy=True)
    ny, nx = out.shape
    yy, xx = np.mgrid[0:ny, 0:nx]
    for _ in range(n_leads):
        x0, y0 = rng.uniform(0, nx), rng.uniform(0, ny)
        angle = rng.uniform(0, np.pi)
        length = rng.uniform(0.3, 1.0) * max(nx, ny)
        dx, dy = np.cos(angle), np.sin(angle)
        dist = np.abs((xx - x0) * dy - (yy - y0) * dx)
        along = (xx - x0) * dx + (yy - y0) * dy
        mask = (dist <= width_px / 2.0) & (np.abs(along) <= length / 2.0)
        out[mask] = lead_class
    return out


class ScriptedUniform(np.random.Generator):
    """A generator whose ``uniform`` draws replay a script.

    Each entry is a draw in units of the requested range, so centres can be
    put outside the grid and angles exactly on 0, pi/2 and pi.
    """

    def __init__(self, script):
        super().__init__(np.random.PCG64(0))
        self._script = iter(script)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + next(self._script) * (high - low)


class TestGaussianRandomField:
    def test_shape_and_normalisation(self):
        field = gaussian_random_field((64, 80), 8.0, rng=0)
        assert field.shape == (64, 80)
        assert abs(field.mean()) < 1e-8
        assert field.std() == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_in_seed(self):
        a = gaussian_random_field((32, 32), 4.0, rng=7)
        b = gaussian_random_field((32, 32), 4.0, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_larger_correlation_is_smoother(self):
        rough = gaussian_random_field((128, 128), 2.0, rng=1)
        smooth = gaussian_random_field((128, 128), 20.0, rng=1)
        # Mean squared nearest-neighbour difference is smaller for the
        # longer correlation length.
        assert np.mean(np.diff(smooth, axis=0) ** 2) < np.mean(np.diff(rough, axis=0) ** 2)

    @pytest.mark.parametrize("shape", [(0, 10), (10, 0)])
    def test_empty_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            gaussian_random_field(shape, 4.0)

    def test_nonpositive_correlation_rejected(self):
        with pytest.raises(ValueError):
            gaussian_random_field((8, 8), 0.0)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            gaussian_random_field((8, 8, 8), 2.0)  # type: ignore[arg-type]


class TestSmoothThresholdClasses:
    def test_fractions_respected(self):
        field = gaussian_random_field((200, 200), 5.0, rng=3)
        classes = smooth_threshold_classes(field, (0.1, 0.2, 0.7))
        fractions = np.bincount(classes.ravel(), minlength=3) / classes.size
        assert fractions[0] == pytest.approx(0.1, abs=0.02)
        assert fractions[1] == pytest.approx(0.2, abs=0.02)
        assert fractions[2] == pytest.approx(0.7, abs=0.02)

    def test_class_order_follows_field_values(self):
        field = np.linspace(0, 1, 100).reshape(10, 10)
        classes = smooth_threshold_classes(field, (0.5, 0.5))
        assert classes.ravel()[0] == 0
        assert classes.ravel()[-1] == 1

    def test_unnormalised_fractions_are_normalised(self):
        field = gaussian_random_field((50, 50), 3.0, rng=4)
        a = smooth_threshold_classes(field, (1.0, 1.0))
        b = smooth_threshold_classes(field, (0.5, 0.5))
        np.testing.assert_array_equal(a, b)

    def test_invalid_fractions_rejected(self):
        field = np.zeros((4, 4))
        with pytest.raises(ValueError):
            smooth_threshold_classes(field, ())
        with pytest.raises(ValueError):
            smooth_threshold_classes(field, (-0.1, 1.1))
        with pytest.raises(ValueError):
            smooth_threshold_classes(field, (0.0, 0.0))

    @given(
        n_classes=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_all_classes_within_range(self, n_classes, seed):
        field = gaussian_random_field((40, 40), 4.0, rng=seed)
        fractions = tuple(1.0 / n_classes for _ in range(n_classes))
        classes = smooth_threshold_classes(field, fractions)
        assert classes.min() >= 0
        assert classes.max() <= n_classes - 1


class TestAddLinearLeads:
    def test_leads_add_target_class(self):
        base = np.zeros((100, 100), dtype=np.int8)
        out = add_linear_leads(base, n_leads=5, lead_class=2, width_px=3, rng=0)
        assert (out == 2).any()
        # The input is not modified.
        assert not (base == 2).any()

    def test_zero_leads_is_identity(self):
        base = np.ones((20, 20), dtype=np.int8)
        out = add_linear_leads(base, 0, 2, 3, rng=0)
        np.testing.assert_array_equal(out, base)

    def test_lead_pixels_are_narrow(self):
        base = np.zeros((200, 200), dtype=np.int8)
        out = add_linear_leads(base, n_leads=1, lead_class=1, width_px=2, rng=5)
        # A single 2-pixel-wide lead across a 200x200 grid covers a small fraction.
        assert 0 < (out == 1).mean() < 0.05

    def test_invalid_arguments_rejected(self):
        base = np.zeros((10, 10), dtype=np.int8)
        with pytest.raises(ValueError):
            add_linear_leads(base, -1, 1, 1)
        with pytest.raises(ValueError):
            add_linear_leads(base, 1, 1, 0)

class TestAddLinearLeadsBits:
    """The bounding-box stamping equals the full-grid scan byte for byte."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_leads_match_full_grid(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 90)), int(rng.integers(1, 90)))
        base = rng.integers(0, 3, shape).astype(np.int8)
        n_leads = int(rng.integers(1, 15))
        width = int(rng.integers(1, 12))
        got = add_linear_leads(base, n_leads, 7, width, rng=seed)
        want = full_grid_leads(base, n_leads, 7, width, rng=seed)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # Per lead: (x0, y0, angle, length) as fractions of their draw ranges.
    # x0/y0 outside [0, 1) hang the lead off the grid or put it fully outside.
    SCRIPTS = {
        "axis_angles": [
            (0.5, 0.5, 0.0, 0.5), (0.2, 0.7, 0.5, 0.9), (0.8, 0.3, 1.0, 0.2),
        ],
        "near_axis_angles": [
            (0.4, 0.6, 1e-9, 1.0), (0.6, 0.4, 0.5 - 1e-9, 0.7),
            (0.6, 0.4, 0.5 + 1e-9, 0.7), (0.3, 0.3, 1.0 - 1e-9, 0.4),
        ],
        "hanging_off": [
            (-0.3, 0.5, 0.1, 1.0), (1.2, 0.5, 0.9, 1.0), (0.5, -0.2, 0.45, 0.8),
            (0.5, 1.3, 0.55, 0.8), (0.0, 0.0, 0.25, 0.6), (0.999, 0.999, 0.75, 0.6),
        ],
        "fully_outside": [
            (-3.0, 0.5, 0.0, 0.0), (0.5, 4.0, 0.5, 0.0), (5.0, -5.0, 0.3, 1.0),
        ],
    }

    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    @pytest.mark.parametrize("shape,width", [((40, 60), 1), ((64, 33), 4), ((7, 90), 9)])
    def test_scripted_leads_match_full_grid(self, name, shape, width):
        leads = self.SCRIPTS[name]
        script = [draw for lead in leads for draw in lead]
        base = np.zeros(shape, dtype=np.int8)
        got = add_linear_leads(base, len(leads), 1, width, rng=ScriptedUniform(script))
        want = full_grid_leads(base, len(leads), 1, width, rng=ScriptedUniform(script))
        assert got.tobytes() == want.tobytes()
        if name != "fully_outside":
            assert (got == 1).any()

    def test_rng_stream_position_unchanged(self):
        """Leads draw the same values in the same order as the full-grid scan."""
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        add_linear_leads(np.zeros((50, 50), dtype=np.int8), 9, 1, 3, rng=a)
        full_grid_leads(np.zeros((50, 50), dtype=np.int8), 9, 1, 3, rng=b)
        assert a.standard_normal() == b.standard_normal()


def _quickstart_scene_and_image():
    ctx = StageContext(config=QUICKSTART)
    scene = stage_scene(ctx)["scene"]
    return scene, stage_s2(ctx, scene)["image"]


def _assert_same_bits(a, b):
    (scene_a, image_a), (scene_b, image_b) = a, b
    np.testing.assert_array_equal(scene_a.class_map, scene_b.class_map)
    np.testing.assert_array_equal(scene_a.freeboard_map, scene_b.freeboard_map)
    np.testing.assert_array_equal(image_a.bands, image_b.bands)
    np.testing.assert_array_equal(image_a.cloud_optical_depth, image_b.cloud_optical_depth)
    np.testing.assert_array_equal(image_a.shadow_mask, image_b.shadow_mask)


class TestQuickstartSceneBits:
    """Guard the simulated truth and S2 bits the classifier is trained on."""

    @pytest.fixture(scope="class")
    def quickstart(self):
        return _quickstart_scene_and_image()

    def test_fresh_calls_repeat_bits(self, quickstart):
        _assert_same_bits(quickstart, _quickstart_scene_and_image())

    def test_matches_oracle_fields_and_leads(self, quickstart, monkeypatch):
        monkeypatch.setattr(repro.surface.scene, "gaussian_random_field", c2c_random_field)
        monkeypatch.setattr(repro.sentinel2.cloud, "gaussian_random_field", c2c_random_field)
        monkeypatch.setattr(repro.surface.scene, "add_linear_leads", full_grid_leads)
        _assert_same_bits(quickstart, _quickstart_scene_and_image())
