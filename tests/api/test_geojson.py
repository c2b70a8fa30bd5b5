"""GeoJSON wire-format parsing: orientation, holes, malformed input."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ApiError, region_from_geojson, region_to_geojson
from repro.api.errors import BAD_REGION
from repro.geometry import BoundingBox, MultiPolygon, Polygon

SQUARE_CCW = [[-74.0, 40.7], [-73.9, 40.7], [-73.9, 40.8], [-74.0, 40.8], [-74.0, 40.7]]
SQUARE_CW = list(reversed(SQUARE_CCW))


def polygon_geojson(ring=SQUARE_CCW, extra_rings=()):  # noqa: ANN001
    return {"type": "Polygon", "coordinates": [ring, *extra_rings]}


def _signed_area(ring) -> float:  # noqa: ANN001
    xs = np.array([p[0] for p in ring[:-1]])
    ys = np.array([p[1] for p in ring[:-1]])
    return float((xs * np.roll(ys, -1) - np.roll(xs, -1) * ys).sum())


class TestValidParsing:
    def test_ccw_exterior_ring(self):
        region = region_from_geojson(polygon_geojson())
        assert isinstance(region, Polygon)
        assert region.num_vertices == 4

    def test_cw_ring_normalised_to_same_polygon(self):
        """Legacy producers emit clockwise exteriors; both orientations
        must parse to the same (CCW-normalised) region."""
        ccw = region_from_geojson(polygon_geojson(SQUARE_CCW))
        cw = region_from_geojson(polygon_geojson(SQUARE_CW))
        assert set(ccw.vertices()) == set(cw.vertices())
        # The geometry kernel normalises both to counter-clockwise
        # (same cycle; the starting vertex may differ).
        assert _signed_area(region_to_geojson(cw)["coordinates"][0]) > 0
        assert _signed_area(region_to_geojson(ccw)["coordinates"][0]) > 0

    def test_unclosed_ring_accepted(self):
        closed = region_from_geojson(polygon_geojson(SQUARE_CCW))
        unclosed = region_from_geojson(polygon_geojson(SQUARE_CCW[:-1]))
        assert closed.vertices() == unclosed.vertices()

    def test_feature_wrapper_unwraps(self):
        feature = {
            "type": "Feature",
            "properties": {"name": "midtown"},
            "geometry": polygon_geojson(),
        }
        region = region_from_geojson(feature)
        assert isinstance(region, Polygon)

    def test_multipolygon(self):
        shifted = [[x + 1.0, y] for x, y in SQUARE_CCW]
        obj = {"type": "MultiPolygon", "coordinates": [[SQUARE_CCW], [shifted]]}
        region = region_from_geojson(obj)
        assert isinstance(region, MultiPolygon)
        assert len(region.parts) == 2

    def test_single_part_multipolygon_collapses_to_polygon(self):
        obj = {"type": "MultiPolygon", "coordinates": [[SQUARE_CCW]]}
        assert isinstance(region_from_geojson(obj), Polygon)

    def test_integer_coordinates_accepted(self):
        ring = [[0, 0], [4, 0], [4, 4], [0, 4]]
        region = region_from_geojson(polygon_geojson(ring))
        assert region.area() == pytest.approx(16.0)


class TestHoles:
    def test_interior_ring_rejected_with_api_error(self):
        hole = [[-73.98, 40.72], [-73.92, 40.72], [-73.92, 40.78], [-73.98, 40.78]]
        with pytest.raises(ApiError) as excinfo:
            region_from_geojson(polygon_geojson(extra_rings=[hole]))
        assert excinfo.value.code == BAD_REGION
        assert "holes" in str(excinfo.value)
        assert excinfo.value.details["rings"] == 2


class TestMalformed:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            "not a dict",
            42,
            [],
            {},  # no type
            {"type": "Point", "coordinates": [0.0, 0.0]},
            {"type": "Polygon"},  # no coordinates
            {"type": "Polygon", "coordinates": None},
            {"type": "Polygon", "coordinates": []},
            {"type": "Polygon", "coordinates": "ring"},
            {"type": "Polygon", "coordinates": [[[0.0, 0.0], [1.0, 1.0]]]},  # short ring
            {"type": "Polygon", "coordinates": [[[0.0, 0.0], [1.0], [1.0, 1.0]]]},
            {"type": "Polygon", "coordinates": [[[0.0, 0.0], "xy", [1.0, 1.0]]]},
            {"type": "Polygon", "coordinates": [[[0.0, 0.0], [True, False], [1.0, 1.0]]]},
            # Closed ring that collapses to two distinct vertices: the
            # geometry kernel's GeometryError must surface as ApiError.
            {"type": "Polygon", "coordinates": [[[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]]},
            {"type": "Feature"},  # no geometry
            {"type": "Feature", "geometry": "nope"},
            {"type": "MultiPolygon", "coordinates": []},
            {"type": "MultiPolygon", "coordinates": [[[0.0, 0.0]]]},
        ],
    )
    def test_malformed_raises_api_error_not_key_or_index_error(self, payload):
        """The contract the wire boundary exists for: client garbage is
        a typed bad_region error, never a server-side KeyError/etc."""
        with pytest.raises(ApiError) as excinfo:
            region_from_geojson(payload)
        assert excinfo.value.code == BAD_REGION
        assert not isinstance(excinfo.value, (KeyError, IndexError, TypeError))


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteCoordinates:
    """``json.loads`` accepts NaN / Infinity literals, so a wire region
    can carry them; each must be a ``bad_region`` naming the vertex,
    not a CellError (500) or a covering of garbage cells."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_polygon_vertex(self, bad):
        ring = [list(position) for position in SQUARE_CCW]
        ring[2][1] = bad
        with pytest.raises(ApiError) as excinfo:
            region_from_geojson(polygon_geojson(ring))
        assert excinfo.value.code == BAD_REGION
        assert excinfo.value.details == {"position": 2}
        assert "not finite" in excinfo.value.message

    def test_multipolygon_part(self):
        ring = [list(position) for position in SQUARE_CCW]
        ring[0][0] = float("nan")
        ring[-1][0] = float("nan")  # the closing position repeats it
        payload = {"type": "MultiPolygon", "coordinates": [[SQUARE_CCW], [ring]]}
        with pytest.raises(ApiError) as excinfo:
            region_from_geojson(payload)
        assert excinfo.value.code == BAD_REGION
        assert excinfo.value.message.startswith("MultiPolygon part 1:")
        assert excinfo.value.details == {"position": 0}

    def test_group_by_feature(self):
        from repro.api import QueryRequest

        ring = [list(position) for position in SQUARE_CCW]
        ring[1][0] = float("inf")
        collection = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "geometry": polygon_geojson()},
                {"type": "Feature", "geometry": polygon_geojson(ring)},
            ],
        }
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict({"group_by": collection, "aggregates": ["count"]})
        assert excinfo.value.code == BAD_REGION
        assert excinfo.value.details == {"position": 1, "feature": 1}

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("index", [0, 3])
    def test_bbox_value(self, bad, index):
        from repro.api import QueryRequest

        bbox = [-74.0, 40.7, -73.9, 40.8]
        bbox[index] = bad
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict({"region": {"bbox": bbox}, "aggregates": ["count"]})
        assert excinfo.value.code == BAD_REGION
        assert "finite" in excinfo.value.message

    def test_vertex_integer_too_large_for_a_float(self):
        ring = [list(position) for position in SQUARE_CCW]
        ring[2][0] = 10**400
        with pytest.raises(ApiError) as excinfo:
            region_from_geojson(polygon_geojson(ring))
        assert excinfo.value.code == BAD_REGION
        assert excinfo.value.details == {"position": 2}
        assert "not finite" in excinfo.value.message

    @pytest.mark.parametrize("index", [0, 3])
    def test_bbox_integer_too_large_for_a_float(self, index):
        from repro.api import QueryRequest

        bbox = [-74.0, 40.7, -73.9, 40.8]
        bbox[index] = -(10**400) if index == 0 else 10**400
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict({"region": {"bbox": bbox}, "aggregates": ["count"]})
        assert excinfo.value.code == BAD_REGION
        assert "finite" in excinfo.value.message

    def test_service_answers_bad_region_not_internal(self):
        """The envelope boundary turns the overflow into a client error."""
        from repro.api import GeoService

        ring = [list(position) for position in SQUARE_CCW]
        ring[1][1] = 10**400
        service = GeoService()
        for region in (polygon_geojson(ring), {"bbox": [10**400, 0, 1, 1]}):
            envelope = service.run_dict({"v": 2, "region": region})
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == BAD_REGION


class TestSerialisation:
    def test_polygon_round_trip(self):
        polygon = Polygon.regular(-73.95, 40.75, 0.05, 7)
        obj = region_to_geojson(polygon)
        back = region_from_geojson(obj)
        assert np.allclose(back.xs, polygon.xs)
        assert np.allclose(back.ys, polygon.ys)

    def test_emitted_ring_is_closed_and_ccw(self):
        obj = region_to_geojson(region_from_geojson(polygon_geojson(SQUARE_CW)))
        ring = obj["coordinates"][0]
        assert ring[0] == ring[-1]
        assert _signed_area(ring) > 0  # counter-clockwise

    def test_multipolygon_round_trip(self):
        parts = [Polygon.regular(0.0, 0.0, 1.0, 5), Polygon.regular(5.0, 0.0, 1.0, 6)]
        multi = MultiPolygon(parts)
        back = region_from_geojson(region_to_geojson(multi))
        assert isinstance(back, MultiPolygon)
        assert len(back.parts) == 2
        assert back.area() == pytest.approx(multi.area())

    def test_bbox_emits_four_corner_polygon(self):
        obj = region_to_geojson(BoundingBox(-74.0, 40.7, -73.9, 40.8))
        assert obj["type"] == "Polygon"
        back = region_from_geojson(obj)
        assert back.bounding_box == BoundingBox(-74.0, 40.7, -73.9, 40.8)
