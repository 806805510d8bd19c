"""alphaforge: point-cloud-to-mesh reconstruction toolkit.

Pipeline: Delaunay tetrahedralization, circumradius filtering with a fixed
or learned threshold, boundary extraction, Taubin-smoothed baseline
construction, and gradient-based refinement under a Chamfer/regularizer
loss suite, plus the standard evaluation protocols.
"""

from . import errors
from .alphashape import (
    PRETTY_TAUS,
    SMOOTH_TAUS,
    TAU_PRESETS,
    boundary_meshes,
    extract_boundary_faces,
    filter_tetrahedra,
    triangulate,
)
from .delaunay import DelaunayComplex, delaunay_complex
from .loss import (
    LossBreakdown,
    LossPlan,
    LossWeights,
    laplacian_coords,
    loss_plan,
    pretty_weights,
    smooth_weights,
    total_loss,
)
from .mesh import Mesh, PointCloud, Topology, enclosed_volume, topology
from .meshio import read_mesh, read_points, write_mesh, write_points
from .metrics import EvalReport, apply_protocol_scaling, evaluate
from .policy import (
    QPolicy,
    TrainLog,
    greedy_tau,
    load_policy,
    q_values,
    score_row,
    select_action,
    state_descriptor,
    train_policy,
    update,
)
from .refine import (
    RefineConfig,
    refine_mesh,
    subdivide,
    taubin_smooth,
    trace_to_csv,
)
from .sampling import METRIC_SAMPLES, REWARD_SAMPLES, sample_surface
from .synth import SyntheticSpec, icosphere, reference_mesh, synth

__version__ = "0.1.0"

__all__ = [
    "DelaunayComplex", "EvalReport", "LossBreakdown", "LossPlan",
    "LossWeights", "Mesh", "METRIC_SAMPLES", "PRETTY_TAUS", "PointCloud", "QPolicy", "REWARD_SAMPLES",
    "RefineConfig", "SMOOTH_TAUS", "SyntheticSpec",
    "TAU_PRESETS", "Topology", "TrainLog", "apply_protocol_scaling",
    "boundary_meshes", "delaunay_complex", "enclosed_volume", "errors",
    "evaluate", "extract_boundary_faces",
    "filter_tetrahedra", "greedy_tau", "icosphere", "laplacian_coords",
    "load_policy", "loss_plan", "pretty_weights",
    "q_values", "read_mesh", "read_points", "reference_mesh", "refine_mesh",
    "sample_surface", "score_row", "select_action",
    "smooth_weights", "state_descriptor", "subdivide", "synth",
    "taubin_smooth", "topology", "total_loss",
    "trace_to_csv", "train_policy", "triangulate", "update",
    "write_mesh", "write_points",
]
