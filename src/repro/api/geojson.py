"""GeoJSON (RFC 7946) as the region wire format of the service API.

Dashboards and HTTP clients speak GeoJSON, not this library's
:class:`~repro.geometry.polygon.Polygon` objects, so the API boundary
translates both ways:

* :func:`region_from_geojson` accepts ``Polygon`` and ``MultiPolygon``
  geometry objects (plus a ``Feature`` wrapper, whose properties are
  ignored) and returns the library's region types.  Every malformed
  payload raises :class:`~repro.api.errors.ApiError` with code
  ``bad_region`` -- never a bare ``KeyError``/``IndexError`` -- so a
  transport layer can blame the client, not the server.
* :func:`region_to_geojson` emits canonical GeoJSON: exterior rings in
  counter-clockwise orientation with an explicit closing position.

Deviations from the RFC, both deliberate:

* rings may arrive in either orientation (legacy producers emit
  clockwise exteriors; the geometry kernel normalises to CCW) and with
  or without the closing position repeated;
* interior rings (holes) are rejected: the paper's query model -- and
  this library's geometry kernel -- covers simple polygons only.
"""

from __future__ import annotations


from repro.api.errors import BAD_REGION, ApiError
from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import MultiPolygon, Polygon

#: GeoJSON geometry types the API understands.
SUPPORTED_TYPES = ("Polygon", "MultiPolygon")

RegionOrBox = Polygon | MultiPolygon | BoundingBox


def _bad(message: str, **details) -> ApiError:  # noqa: ANN003 - JSON details
    return ApiError(BAD_REGION, message, details=details or None)


def _parse_ring(ring: object, where: str) -> list[tuple[float, float]]:
    """One linear ring -> vertex list (closing position tolerated)."""
    if not isinstance(ring, (list, tuple)) or len(ring) < 3:
        raise _bad(f"{where}: a linear ring needs at least three positions")
    vertices: list[tuple[float, float]] = []
    for index, position in enumerate(ring):
        if (
            not isinstance(position, (list, tuple))
            or len(position) < 2
            or not all(isinstance(value, (int, float)) and not isinstance(value, bool) for value in position[:2])
        ):
            raise _bad(
                f"{where}: position {index} must be an [x, y] pair of numbers",
                position=index,
            )
        vertices.append((float(position[0]), float(position[1])))
    return vertices


def _parse_polygon_coordinates(coordinates: object, where: str) -> Polygon:
    if not isinstance(coordinates, (list, tuple)) or not coordinates:
        raise _bad(f"{where}: 'coordinates' must be a non-empty array of rings")
    if len(coordinates) > 1:
        raise _bad(
            f"{where}: interior rings (holes) are not supported; "
            "the query model covers simple polygons only",
            rings=len(coordinates),
        )
    vertices = _parse_ring(coordinates[0], where)
    try:
        return Polygon(vertices)
    except GeometryError as error:
        details = {} if error.position is None else {"position": error.position}
        raise _bad(f"{where}: {error}", **details) from error


def region_from_geojson(obj: object) -> Polygon | MultiPolygon:
    """Parse a GeoJSON geometry (or Feature) into a query region."""
    if not isinstance(obj, dict):
        raise _bad(f"GeoJSON region must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "Feature":
        geometry = obj.get("geometry")
        if not isinstance(geometry, dict):
            raise _bad("Feature without a 'geometry' object")
        return region_from_geojson(geometry)
    if kind not in SUPPORTED_TYPES:
        raise _bad(
            f"unsupported GeoJSON type {kind!r}; expected one of {SUPPORTED_TYPES}",
            type=kind if isinstance(kind, str) else None,
        )
    coordinates = obj.get("coordinates")
    if kind == "Polygon":
        return _parse_polygon_coordinates(coordinates, "Polygon")
    if not isinstance(coordinates, (list, tuple)) or not coordinates:
        raise _bad("MultiPolygon: 'coordinates' must be a non-empty array of polygons")
    parts = [
        _parse_polygon_coordinates(polygon, f"MultiPolygon part {index}")
        for index, polygon in enumerate(coordinates)
    ]
    if len(parts) == 1:
        return parts[0]
    try:
        return MultiPolygon(parts)
    except GeometryError as error:  # pragma: no cover - parts checked above
        raise _bad(f"MultiPolygon: {error}") from error


def feature_name(feature: object, index: int) -> str:
    """Display name of one FeatureCollection member.

    Precedence: ``properties.name``, then the RFC's optional ``id``,
    then a positional ``feature_<index>`` fallback -- always a string,
    so group-by rows are addressable even for anonymous features.
    """
    if isinstance(feature, dict):
        properties = feature.get("properties")
        if isinstance(properties, dict):
            name = properties.get("name")
            if isinstance(name, str) and name:
                return name
        identifier = feature.get("id")
        if isinstance(identifier, (str, int)) and not isinstance(identifier, bool):
            return str(identifier)
    return f"feature_{index}"


def features_from_geojson(obj: object) -> list[tuple[str, Polygon | MultiPolygon]]:
    """Parse a GeoJSON ``FeatureCollection`` into named query regions.

    Each member may be a ``Feature`` (name resolved by
    :func:`feature_name`) or a bare geometry; geometry types may mix
    (``Polygon`` and ``MultiPolygon``).  An empty collection is a
    client error -- a group-by over nothing has no meaning.
    """
    if not isinstance(obj, dict) or obj.get("type") != "FeatureCollection":
        raise _bad(
            "group-by payload must be a GeoJSON FeatureCollection "
            "(or a list of named regions)"
        )
    features = obj.get("features")
    if not isinstance(features, (list, tuple)):
        raise _bad("FeatureCollection needs a 'features' array")
    if not features:
        raise _bad("FeatureCollection is empty; group-by needs at least one feature")
    named: list[tuple[str, Polygon | MultiPolygon]] = []
    for index, feature in enumerate(features):
        try:
            region = region_from_geojson(feature)
        except ApiError as error:
            raise ApiError(
                BAD_REGION,
                f"feature {index}: {error.message}",
                details=dict(error.details, feature=index),
            ) from error
        named.append((feature_name(feature, index), region))
    return named


def _ring_coordinates(polygon: Polygon) -> list[list[float]]:
    """Closed CCW exterior ring (the Polygon class already normalises
    orientation; the closing position is re-added per the RFC)."""
    ring = [[float(x), float(y)] for x, y in polygon.vertices()]
    ring.append(list(ring[0]))
    return ring


def region_to_geojson(region: RegionOrBox) -> dict:
    """Serialise a region to a canonical GeoJSON geometry object.

    Bounding boxes are emitted as their four-corner ``Polygon`` (GeoJSON
    has no standalone rectangle geometry); parsing it back yields an
    equivalent region.
    """
    if isinstance(region, BoundingBox):
        region = Polygon.from_box(region)
    if isinstance(region, Polygon):
        return {"type": "Polygon", "coordinates": [_ring_coordinates(region)]}
    if isinstance(region, MultiPolygon):
        return {
            "type": "MultiPolygon",
            "coordinates": [[_ring_coordinates(part)] for part in region.parts],
        }
    raise _bad(f"cannot serialise {type(region).__name__} as GeoJSON")
