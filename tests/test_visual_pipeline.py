"""The pooled visual-feature head: pooling, normalization, view combination."""

import numpy as np
import pytest

from hapticnet.engine import avg_pool, l2_normalize
from hapticnet.errors import InvalidInputError
from hapticnet.visual import (
    VisualFeature,
    VisualFeatureMap,
    combine_views,
    pool_normalize,
)


class TestVisualFeatureMap:
    @pytest.mark.parametrize("shape", [(4, 4), (2, 2, 3, 1), (0, 2, 3), (2, 2, 0)])
    def test_grid_must_be_non_empty_hxwxc(self, shape):
        with pytest.raises(InvalidInputError, match="object a view 3: feature map must be HxWxC"):
            VisualFeatureMap(object_id="a", view_index=3, grid=np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, bad):
        grid = np.ones((2, 2, 3))
        grid[1, 0, 2] = bad
        with pytest.raises(InvalidInputError, match="object a view 5: feature map contains non-finite"):
            VisualFeatureMap(object_id="a", view_index=5, grid=grid)


class TestPoolNormalize:
    def test_1x1_map_is_plain_normalization(self):
        rng = np.random.default_rng(0)
        grid = rng.standard_normal((1, 1, 16))
        feat = pool_normalize(VisualFeatureMap(object_id="a", view_index=0, grid=grid))
        expected, _ = l2_normalize(grid[0, 0])
        assert np.allclose(feat.vector, expected, rtol=0, atol=1e-15)

    def test_constant_map_gives_uniform_unit_vector(self):
        grid = np.full((3, 5, 9), 2.7)
        feat = pool_normalize(VisualFeatureMap(object_id="a", view_index=0, grid=grid))
        assert np.allclose(feat.vector, np.full(9, 1.0 / 3.0), rtol=0, atol=1e-12)

    def test_matches_composition_of_engine_ops(self):
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((7, 7, 16))
        feat = pool_normalize(VisualFeatureMap(object_id="a", view_index=3, grid=grid))
        expected, _ = l2_normalize(avg_pool(grid))
        assert np.allclose(feat.vector, expected, rtol=0, atol=1e-12)
        assert np.linalg.norm(feat.vector) == pytest.approx(1.0, abs=1e-9)

    def test_zero_map_is_degenerate(self):
        feat = pool_normalize(VisualFeatureMap(object_id="a", view_index=0,
                                               grid=np.zeros((2, 2, 4))))
        assert feat.degenerate and not feat.vector.any()


class TestCombineViews:
    def make_views(self, rng, c=6):
        return [
            VisualFeature(object_id="obj", view_index=v,
                          vector=l2_normalize(rng.standard_normal(c))[0])
            for v in range(8)
        ]

    def test_concatenates_to_8c(self):
        views = self.make_views(np.random.default_rng(2))
        combined = combine_views(views)
        assert combined.vector.shape == (48,)

    def test_order_by_view_index_not_arrival(self):
        rng = np.random.default_rng(3)
        views = self.make_views(rng)
        shuffled = [views[i] for i in rng.permutation(8)]
        assert np.array_equal(combine_views(views).vector, combine_views(shuffled).vector)

    def test_segments_recover_inputs_bitwise(self):
        views = self.make_views(np.random.default_rng(4))
        combined = combine_views(views).vector
        for v in range(8):
            assert np.array_equal(combined[6 * v:6 * (v + 1)], views[v].vector)

    def test_missing_view_is_named(self):
        views = self.make_views(np.random.default_rng(5))
        with pytest.raises(InvalidInputError, match="5"):
            combine_views([f for f in views if f.view_index != 5])

    def test_mixed_objects_rejected(self):
        views = self.make_views(np.random.default_rng(6))
        views[2].object_id = "other"
        with pytest.raises(InvalidInputError):
            combine_views(views)

    def test_duplicate_view_index_rejected(self):
        views = self.make_views(np.random.default_rng(7))
        views[4].view_index = 2
        with pytest.raises(InvalidInputError, match="duplicate view index 2"):
            combine_views(views)

    def test_differing_feature_lengths_rejected(self):
        views = self.make_views(np.random.default_rng(8))
        views[6].vector = np.ones(5) / np.sqrt(5)
        with pytest.raises(InvalidInputError, match=r"differing feature lengths: \[5, 6\]"):
            combine_views(views)

    def test_one_degenerate_view_marks_the_combination(self):
        views = self.make_views(np.random.default_rng(9))
        assert not combine_views(views).degenerate
        views[3].vector = np.zeros(6)
        views[3].degenerate = True
        combined = combine_views(views)
        assert combined.degenerate and combined.view_index is None
