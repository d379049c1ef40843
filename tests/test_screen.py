"""The two-precision span loop of ``spherekit._screen``, on fake screens
that count the tiles they are given."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spherekit import _screen

from conftest import count_tiles


class TestScreenedSpans:
    @pytest.mark.parametrize("upper, one_span", [(False, False), (True, False), (False, True)])
    def test_a_declined_span_is_screened_again_on_float64_tiles_of_its_rows(
            self, monkeypatch, upper, one_span):
        # 23 rows in spans of 5 (or one span in tiles of 5 rows) against 17
        # columns (or themselves), float32 tiles of 10 scores and float64
        # ones of 6: every span has several tiles of each precision. The
        # float32 screen takes one tile of each span, then declines spans 0
        # and 10 (with one span, the span) and reads the others to the end.
        rng = np.random.default_rng(5)
        x64 = rng.standard_normal((23, 4))
        y64 = x64 if upper else rng.standard_normal((17, 4))
        x, y = (x64.astype(np.float32), x64), (y64.astype(np.float32), y64)
        spans = [(0, 23)] if one_span else [(s, min(s + 5, 23)) for s in range(0, 23, 5)]
        declined = {0} if one_span else {0, 10}
        computed = count_tiles(monkeypatch)
        float32, float64 = {}, {}

        def screened(start, stop, tiles, limit):
            assert limit == _screen._PER_PAIR_SHARE * (y64.shape[0] - (start if upper else 0))
            float32[start] = tiles
            next(tiles)
            if start in declined:
                return None
            list(tiles)
            return "float32", start, stop

        def exact(start, stop, tiles, limit):
            assert limit == np.inf
            float64[start] = list(tiles)
            return "float64", start, stop

        results = _screen._screened_spans(x, y, 5, (10, 6), (screened, exact), upper, one_span)
        # Results arrive in span order, each from the screen that decided it.
        assert list(results) == [("float64" if start in declined else "float32", start, stop)
                                 for start, stop in spans]
        # An accepted span computes no float64 tile.
        assert sorted(float64) == sorted(declined)
        assert all(any(s <= a < b <= e for s, e in spans if s in declined)
                   for a, b in computed["float64"])
        for start, stop in spans:
            if start not in declined:
                continue
            # A declined span's float32 tiles are closed: drawing on them
            # computes no further tile.
            drawn = sum(c.total() for c in computed["float32"].values())
            assert list(float32[start]) == []
            assert sum(c.total() for c in computed["float32"].values()) == drawn
            # Its float64 tiles hold exactly its rows, each against every
            # column (past its strip's first row with `upper`).
            covered = np.zeros((23, y64.shape[0]), dtype=np.int64)
            for a, first, S in float64[start]:
                assert S.dtype == np.float64 and S.size <= max(6, S.shape[0])
                assert_array_equal(S, x64[a : a + S.shape[0]] @ y64[first : first + S.shape[1]].T)
                covered[a : a + S.shape[0], first : first + S.shape[1]] += 1
            assert np.all(covered.any(axis=1) == (np.arange(23) >= start) & (np.arange(23) < stop))
            assert covered.max() == 1
            if not upper:
                assert np.all(covered[start:stop] == 1)
