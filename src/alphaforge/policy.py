"""Threshold-selection policy: an epsilon-greedy contextual value learner.

The policy observes a 16-dimensional descriptor of the input cloud, scores
each candidate filtering threshold with a linear value model, and picks the
argmax (or explores uniformly with probability epsilon). Training regresses
each chosen action's predicted value onto the observed F1 reward with an
RMS-adaptive step, replaying buffered transitions every ``period`` steps.
Training keeps each cloud's rewards at every threshold (``score_row``, at
the run's seed), not its meshes: a reward depends on (cloud, tau, run) alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .alphashape import boundary_meshes
from .delaunay import delaunay_complex
from .errors import EmptyMesh, GeometryError, RewardOutOfRange, TooFewPoints
from .loss import _match, _query
from .mesh import Mesh, PointCloud
from .meshio import _csv, _text
from .metrics import _f1
from .sampling import REWARD_SAMPLES, sample_surface

STATE_DIM = 16
EPSILON_FLOOR = 0.01

RMS_DECAY = 0.99
RMS_STEP = 1e-2
RMS_EPS = 1e-8

# Default reward radius over gt's longest bounding-box edge: Mesh R-CNN's
# F1@0.3 at a longest edge of 10.
NU_FRACTION = 0.03


def state_descriptor(points: PointCloud | np.ndarray) -> np.ndarray:
    """16-feature cloud descriptor standing in for the image state.

    Layout: bounding-box extents (3), log point count (1), mean/std/min/max
    of the k-th nearest-neighbor distance for k in {1, 8} (8), covariance
    eigenvalue fractions (3), constant bias (1). Computed on centered
    points, hence translation-invariant; the bbox entries keep raw scale.
    """
    pts = points.points if isinstance(points, PointCloud) else np.asarray(points, float)
    if len(pts) < 9:
        raise TooFewPoints("descriptor needs at least 9 points (k=8 statistics)")
    centered = pts - pts.mean(axis=0)
    bbox = centered.max(axis=0) - centered.min(axis=0)

    dist = _query(cKDTree(centered), centered, 9)[0]
    feats = [bbox, [np.log(len(pts))]]
    for k in (1, 8):
        dk = dist[:, k]
        feats.append([dk.mean(), dk.std(), dk.min(), dk.max()])
    cov = centered.T @ centered / len(pts)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    total = max(eig.sum(), 1e-300)
    feats.append(eig / total)
    feats.append([1.0])
    out = np.concatenate([np.asarray(f, dtype=np.float64).ravel() for f in feats])
    assert out.shape == (STATE_DIM,)
    return out


@dataclass(frozen=True)
class QPolicy:
    """Linear action-value model over the candidate thresholds.

    ``theta`` is (n_actions, 16); row a scores action a as theta[a] . s.
    ``rms_cache`` holds the per-parameter running squared-gradient averages
    of the adaptive update.
    """

    actions: tuple[float, ...]
    theta: np.ndarray
    rms_cache: np.ndarray
    epsilon: float = 0.9
    epsilon_decay: float = 0.99
    period: int = 2

    def __post_init__(self):
        actions = tuple(float(a) for a in self.actions)
        if not actions or not all(0.0 < a < math.inf for a in actions):
            raise ValueError("threshold actions must be finite and positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 <= self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in [0, 1]")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        theta = np.asarray(self.theta, dtype=np.float64)
        cache = np.asarray(self.rms_cache, dtype=np.float64)
        if theta.shape != (len(actions), STATE_DIM) or cache.shape != theta.shape:
            raise ValueError(f"theta/rms_cache must be ({len(actions)}, {STATE_DIM})")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rms_cache", cache)

    @classmethod
    def fresh(cls, actions, epsilon: float = 0.9, epsilon_decay: float = 0.99,
              period: int = 2) -> "QPolicy":
        n = len(tuple(actions))
        return cls(tuple(actions), np.zeros((n, STATE_DIM)),
                   np.zeros((n, STATE_DIM)), epsilon, epsilon_decay, period)

    @property
    def n_actions(self) -> int:
        return len(self.actions)


@dataclass
class TrainLog:
    """Per-transition training records."""

    records: list[dict] = field(default_factory=list)

    def append(self, state_hash: str, action: int, reward: float,
               epsilon: float, greedy: bool) -> None:
        if not 0.0 <= reward <= 1.0:
            raise RewardOutOfRange(f"reward {reward} outside [0, 1]")
        self.records.append({
            "state_hash": state_hash, "action": action, "reward": reward,
            "epsilon": epsilon, "greedy": greedy,
        })

    def to_csv(self) -> str:
        return _csv(["step", "state_hash", "action", "reward", "epsilon", "greedy"],
                    ([i, r["state_hash"], r["action"], r["reward"], r["epsilon"],
                      int(r["greedy"])] for i, r in enumerate(self.records)))


def state_hash(s: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(s, dtype=np.float64).tobytes()).hexdigest()[:16]


def q_values(policy: QPolicy, s: np.ndarray) -> np.ndarray:
    """Expected reward per action: theta . s."""
    return policy.theta @ np.asarray(s, dtype=np.float64)


def select_action(policy: QPolicy, s: np.ndarray,
                  rng: np.random.Generator) -> tuple[int, bool]:
    """Epsilon-greedy choice and whether it was the greedy one; greedy ties
    resolve to the lowest index."""
    if rng.random() < policy.epsilon:
        return int(rng.integers(policy.n_actions)), False
    return int(np.argmax(q_values(policy, s))), True


def _check_reward_args(nu: float | None, n_samples: int) -> None:
    if nu is not None and not 0.0 < nu < math.inf:
        raise ValueError(f"reward radius nu must be finite and positive, not {nu!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")


def _reward_against(gt: Mesh, nu: float | None, n_samples: int, seed: int):
    """The mesh-fidelity reward against gt as a function of pred, with gt
    sampled, and its kd-tree built, once: the F1 at radius nu between
    equal-seed surface samplings of pred and gt, on a 0..1 scale. Without nu
    the radius is ``NU_FRACTION`` of gt's longest bounding-box edge."""
    _check_reward_args(nu, n_samples)
    if gt.num_faces == 0:
        raise EmptyMesh("reward needs non-empty meshes")
    q = sample_surface(gt, n_samples, seed).points
    tree = cKDTree(q)
    radius = nu or NU_FRACTION * float(np.ptp(gt.vertices, axis=0).max())

    def of(pred: Mesh) -> float:
        if pred.num_faces == 0:
            raise EmptyMesh("reward needs non-empty meshes")
        p = sample_surface(pred, n_samples, seed).points
        return _f1(_match(p, q, tree), radius)[2] / 100.0

    return of


def greedy_tau(policy: QPolicy, cloud: PointCloud) -> float | None:
    """The threshold the value model ranks first for ``cloud`` (ties go to
    the lowest index); None when the cloud cannot be described."""
    try:
        s = state_descriptor(cloud)
    except GeometryError:
        return None
    return policy.actions[int(np.argmax(q_values(policy, s)))]


def score_row(cloud: PointCloud, gt: Mesh, taus, nu: float | None = None,
              n_samples: int = REWARD_SAMPLES, seed: int = 0) -> list[float]:
    """Each tau's reward (``_reward_against``) of the cloud's alpha-shape
    mesh against gt, with the meshes read off one complex and gt sampled
    once. A cell with no mesh, or whose reward raises a GeometryError,
    scores 0; bad arguments raise before any Qhull run."""
    return [r or 0.0 for r in _row(cloud, gt, taus, nu, n_samples, seed)]


def _row(cloud: PointCloud, gt: Mesh, taus, nu: float | None, n_samples: int,
         seed: int) -> list[float | None]:
    """``score_row``'s cells, None where the tau keeps no mesh (at every
    tau when the cloud cannot be tetrahedralized)."""
    try:
        of = _reward_against(gt, nu, n_samples, seed)
    except GeometryError:  # every cell with a mesh scores 0
        of = None
    try:
        meshes = boundary_meshes(delaunay_complex(cloud), taus)
    except GeometryError:
        return [None] * len(taus)
    cells = []
    for mesh in meshes:
        try:
            cells.append(None if mesh is None else of(mesh) if of else 0.0)
        except GeometryError:
            cells.append(0.0)
    return cells


def update(policy: QPolicy, s: np.ndarray, action: int, observed: float) -> QPolicy:
    """One RMS-adaptive regression step of q(s, action) toward the reward.

    Only the chosen action's row moves. Epsilon is multiplied by its decay
    factor and floored at 1%.
    """
    if not 0.0 <= observed <= 1.0:
        raise RewardOutOfRange(f"reward {observed} outside [0, 1]")
    s = np.asarray(s, dtype=np.float64)
    q = float(policy.theta[action] @ s)
    grad = 2.0 * (q - observed) * s
    cache = policy.rms_cache.copy()
    cache[action] = RMS_DECAY * cache[action] + (1.0 - RMS_DECAY) * grad**2
    theta = policy.theta.copy()
    theta[action] = theta[action] - RMS_STEP * grad / (np.sqrt(cache[action]) + RMS_EPS)
    eps = max(policy.epsilon * policy.epsilon_decay, EPSILON_FLOOR)
    return QPolicy(policy.actions, theta, cache, eps, policy.epsilon_decay, policy.period)


def train_policy(
    dataset: list[tuple[PointCloud, Mesh]],
    policy: QPolicy,
    episodes: int,
    seed: int,
    nu: float | None = None,
    n_samples: int = REWARD_SAMPLES,
) -> tuple[QPolicy, TrainLog]:
    """Train on (cloud, ground-truth mesh) pairs for ``episodes`` transitions.

    Each transition: build the descriptor, epsilon-greedily pick a threshold,
    read its reward off the cloud's reward row, and buffer the transition.
    Every ``period`` transitions the buffer is replayed once through the
    update rule and cleared. The dataset order is reshuffled every pass. A
    cloud the descriptor cannot describe is an error.

    A cloud's row (``score_row``: every action's reward, from one complex
    and one ground-truth sample) is computed at its first visit, with the
    run's ``seed`` as the reward seed, and only the row is kept.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if episodes < 0:
        raise ValueError("episodes must be >= 0")
    _check_reward_args(nu, n_samples)
    rng = np.random.Generator(np.random.Philox(seed))
    descriptors = [state_descriptor(cloud) for cloud, _ in dataset]
    rows: dict[int, list[float | None]] = {}
    log = TrainLog()
    buffer: list[tuple[np.ndarray, int, float]] = []
    step = 0
    while step < episodes:
        order = rng.permutation(len(dataset))
        for i in order:
            if step >= episodes:
                break
            cloud, gt = dataset[i]
            s = descriptors[i]
            action, greedy = select_action(policy, s, rng)
            if i not in rows:
                rows[i] = _row(cloud, gt, policy.actions, nu, n_samples, seed)
            r = rows[i][action]
            if r is not None:
                # One draw per episode with a mesh, its value unused: the linear
                # learner has near ties (tori at nu 0.2), so shifting the
                # exploration stream changes which seeds collapse onto one action.
                rng.integers(2**62)
            r = r or 0.0
            buffer.append((s, action, r))
            log.append(state_hash(s), action, r, policy.epsilon, greedy)
            step += 1
            if len(buffer) >= policy.period or step == episodes:
                for bs, ba, br in buffer:
                    policy = update(policy, bs, ba, br)
                buffer.clear()
    return policy, log


def policy_to_json(policy: QPolicy) -> str:
    """Versioned JSON document; floats are emitted in shortest round-trip
    form, so serialization is value-exact."""
    doc = {
        "version": 1,
        "actions": list(policy.actions),
        "theta": [float(x) for x in policy.theta.ravel()],
        "epsilon": policy.epsilon,
        "epsilon_decay": policy.epsilon_decay,
        "period": policy.period,
        "optimizer_state": [float(x) for x in policy.rms_cache.ravel()],
    }
    return json.dumps(doc, indent=2) + "\n"


def _is_number(x) -> bool:
    """A finite JSON number: an int or float, not a bool, NaN or infinity."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, int) or math.isfinite(x)


def load_policy(path) -> QPolicy:
    """The policy in a ``policy_to_json`` document; ValueError names what is
    wrong with a malformed one."""
    doc = json.loads(_text(path))
    if not isinstance(doc, dict):
        raise ValueError(f"policy document is a JSON {type(doc).__name__}, not an object")
    version = doc.get("version")
    if isinstance(version, bool) or version != 1:
        raise ValueError(f"unsupported policy version {version!r}")
    try:
        for key in ("actions", "theta", "optimizer_state"):
            if not isinstance(doc[key], list) or not all(map(_is_number, doc[key])):
                raise ValueError(f"policy {key} must be a list of numbers")
        for key in ("epsilon", "epsilon_decay", "period"):
            if not _is_number(doc[key]):
                raise ValueError(f"policy {key} must be a number, not {doc[key]!r}")
        period = doc["period"]
        if not ((isinstance(period, int) or period.is_integer()) and period >= 1):
            raise ValueError(f"policy period must be an integer >= 1, not {period!r}")
        n = len(doc["actions"])
        for key in ("theta", "optimizer_state"):
            if len(doc[key]) != n * STATE_DIM:
                raise ValueError(f"policy {key} must hold {n * STATE_DIM} numbers "
                                 f"({n} actions x {STATE_DIM}), not {len(doc[key])}")
        theta = np.array(doc["theta"], dtype=np.float64).reshape(n, STATE_DIM)
        cache = np.array(doc["optimizer_state"], dtype=np.float64).reshape(n, STATE_DIM)
        return QPolicy(tuple(doc["actions"]), theta, cache, doc["epsilon"],
                       doc["epsilon_decay"], int(period))
    except KeyError as exc:
        raise ValueError(f"policy document lacks {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed policy document: {exc}") from exc
