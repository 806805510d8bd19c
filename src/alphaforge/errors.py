"""Exception types shared across the toolkit."""


class AlphaForgeError(Exception):
    """Base class for all toolkit errors."""


class GeometryError(AlphaForgeError):
    """Base class for geometric/data errors (CLI exit code 2)."""


class InvalidMesh(GeometryError):
    """Mesh violates a structural invariant (bad indices, duplicate faces)."""


class DegenerateFace(GeometryError):
    """Face area below tolerance; its normal direction is undefined."""


class TooFewPoints(GeometryError):
    """Operation needs more input points than were given."""


class DegenerateInput(GeometryError):
    """Point set is flat (coplanar, collinear, or every tetrahedron flat
    within predicate tolerance) or outside the supported coordinate range."""


class DegenerateTetrahedron(GeometryError):
    """Four coplanar points; the circumsphere is undefined."""


class EmptySelection(GeometryError):
    """Boundary extraction was handed an empty tetrahedron list."""


class EmptyMesh(GeometryError):
    """Filtering removed every tetrahedron (threshold too small for the cloud)."""


class NoSurface(GeometryError):
    """Mesh has no sampleable area."""


class EmptyCloud(GeometryError):
    """Point cloud operation received an empty cloud."""


class MissingNormals(GeometryError):
    """Operation requires per-point normals that are absent."""


class IsolatedVertex(GeometryError):
    """Vertex with no incident face; its Laplacian is undefined."""


class VertexCountMismatch(GeometryError):
    """Two meshes that must correspond vertex-by-vertex have different counts."""


class NoEdges(GeometryError):
    """Mesh has no edges to regularize."""


class DegenerateConfiguration(GeometryError):
    """Point configuration is rank-deficient (e.g. collinear); rigid fit undefined."""


class RewardOutOfRange(AlphaForgeError):
    """Policy update received a reward outside [0, 1]."""


class NonFinite(AlphaForgeError):
    """A loss or gradient became NaN/inf (step size too large)."""


class ConfigError(AlphaForgeError):
    """Invalid configuration value."""


class ParseError(AlphaForgeError):
    """Malformed input file.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedElement(ParseError):
    """File uses an element the reader does not support (e.g. binary PLY)."""


class IoError(AlphaForgeError):
    """Filesystem failure while reading or writing."""
