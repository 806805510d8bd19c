import hashlib
import json

import numpy as np
import pytest

from alphaforge import (
    Mesh,
    PointCloud,
    QPolicy,
    SyntheticSpec,
    greedy_tau,
    icosphere,
    q_values,
    reward,
    score_row,
    select_action,
    state_descriptor,
    synth,
    train_policy,
    triangulate,
    update,
)
from alphaforge.errors import EmptyMesh, RewardOutOfRange, TooFewPoints
from alphaforge.policy import (
    STATE_DIM,
    _row,
    load_policy,
    policy_to_json,
    state_hash,
)


PINNED_LOG = """\
step,state_hash,action,reward,epsilon,greedy
0,e9734223b020c379,1,0.645228426395939,0.9,0
1,5e7f542963e9b815,0,0.0,0.9,1
2,2a809b9645970cf9,0,0.0,0.88209,0
3,2a809b9645970cf9,1,0.7021226415094339,0.88209,1
4,e9734223b020c379,2,0.869948914431673,0.8645364090000001,0
5,5e7f542963e9b815,2,0.8539510939510939,0.8645364090000001,0
6,5e7f542963e9b815,2,0.8539510939510939,0.8473321344609,1
7,e9734223b020c379,0,0.0,0.8473321344609,0
8,2a809b9645970cf9,2,0.9530419580419581,0.8304702249851281,0
9,5e7f542963e9b815,2,0.8539510939510939,0.8304702249851281,1
10,2a809b9645970cf9,2,0.9530419580419581,0.8139438675079241,0
11,e9734223b020c379,0,0.0,0.8139438675079241,0
"""


def sphere_cloud(n=1000, seed=0):
    cloud, _ = synth(SyntheticSpec("sphere", n=n, seed=seed))
    return cloud


def reference_descriptor(points):
    """Independent re-implementation of the 16 descriptor features."""
    pts = np.asarray(points, dtype=float)
    c = pts - pts.mean(0)
    feats = list(c.max(0) - c.min(0))
    feats.append(np.log(len(pts)))
    d2 = ((c[:, None] - c[None]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    sorted_d = np.sqrt(np.sort(d2, axis=1))
    for k in (1, 8):
        col = sorted_d[:, k - 1]
        feats += [col.mean(), col.std(), col.min(), col.max()]
    eig = np.sort(np.linalg.eigvalsh(c.T @ c / len(pts)))[::-1]
    feats += list(eig / eig.sum())
    feats.append(1.0)
    return np.array(feats)


class TestStateDescriptor:
    def test_translation_invariant(self):
        cloud = sphere_cloud(seed=1)
        moved = PointCloud(cloud.points + 5.0, cloud.normals)
        np.testing.assert_allclose(state_descriptor(cloud),
                                   state_descriptor(moved), atol=1e-9)

    def test_scale_doubles_bbox_keeps_eigenratios(self):
        cloud = sphere_cloud(seed=2)
        scaled = PointCloud(cloud.points * 2.0)
        a, b = state_descriptor(cloud), state_descriptor(scaled)
        np.testing.assert_allclose(b[:3], 2.0 * a[:3], rtol=1e-12)
        np.testing.assert_allclose(b[12:15], a[12:15], atol=1e-12)

    def test_matches_independent_reference(self):
        cloud = sphere_cloud(n=1000, seed=3)
        got = state_descriptor(cloud)
        want = reference_descriptor(cloud.points)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert got.shape == (STATE_DIM,)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            state_descriptor(PointCloud(np.random.default_rng(0).random((8, 3))))


class TestQValues:
    def test_zero_theta(self):
        policy = QPolicy.fresh((0.1, 0.2, 0.3))
        s = state_descriptor(sphere_cloud(seed=4))
        np.testing.assert_array_equal(q_values(policy, s), [0.0, 0.0, 0.0])

    def test_bias_only_rows_constant(self):
        theta = np.zeros((2, STATE_DIM))
        theta[0, -1] = 0.25
        theta[1, -1] = 0.75
        policy = QPolicy((0.1, 0.2), theta, np.zeros_like(theta))
        s = state_descriptor(sphere_cloud(seed=5))
        np.testing.assert_allclose(q_values(policy, s), [0.25, 0.75])

    def test_matches_matvec(self):
        rng = np.random.default_rng(6)
        theta = rng.normal(size=(4, STATE_DIM))
        policy = QPolicy((0.1, 0.2, 0.3, 0.4), theta, np.zeros_like(theta))
        s = rng.normal(size=STATE_DIM)
        np.testing.assert_allclose(q_values(policy, s), theta @ s, rtol=1e-15)


class TestSelectAction:
    def test_greedy_when_epsilon_zero(self):
        theta = np.zeros((3, STATE_DIM))
        theta[1, -1] = 1.0
        policy = QPolicy((0.1, 0.2, 0.3), theta, np.zeros_like(theta), epsilon=0.0)
        s = np.zeros(STATE_DIM)
        s[-1] = 1.0
        rng = np.random.Generator(np.random.Philox(0))
        assert all(select_action(policy, s, rng) == (1, True) for _ in range(50))

    def test_uniform_when_epsilon_one(self):
        policy = QPolicy.fresh((0.1, 0.2, 0.3), epsilon=1.0)
        s = np.zeros(STATE_DIM)
        rng = np.random.Generator(np.random.Philox(1))
        counts = np.bincount([select_action(policy, s, rng)[0] for _ in range(30_000)],
                             minlength=3) / 30_000
        assert np.abs(counts - 1 / 3).max() < 0.01

    def test_tie_takes_lowest_index(self):
        policy = QPolicy.fresh((0.1, 0.2), epsilon=0.0)
        rng = np.random.Generator(np.random.Philox(2))
        assert select_action(policy, np.ones(STATE_DIM), rng) == (0, True)


class TestReward:
    def test_identical_meshes_full_reward(self):
        mesh = icosphere(2)
        assert reward(mesh, mesh, nu=1e-4, n_samples=1000, seed=3) == 1.0

    def test_distant_surfaces_zero(self):
        mesh = icosphere(1)
        far = mesh.with_vertices(mesh.vertices + [100.0, 0, 0])
        assert reward(far, mesh, nu=1e-4, n_samples=500, seed=3) == 0.0

    def test_empty_mesh_raises(self):
        with pytest.raises(EmptyMesh):
            reward(Mesh(np.zeros((0, 3))), icosphere(0))

    def test_no_samples_is_a_usage_error_not_a_score(self, complex_builds):
        mesh = icosphere(1)
        with pytest.raises(ValueError, match="n_samples"):
            reward(mesh, mesh, 1e-4, 0, 3)
        with pytest.raises(ValueError, match="n_samples"):
            score_row(sphere_cloud(n=100), mesh, (0.3,), 1e-4, 0, 3)
        assert complex_builds == []  # refused before the cloud is tetrahedralized

    @pytest.mark.parametrize("nu", [0.0, -0.2, float("nan"), float("inf")])
    def test_radius_must_be_finite_and_positive(self, complex_builds, nu):
        mesh = icosphere(1)
        cloud = sphere_cloud(n=100)
        for call in (lambda: reward(mesh, mesh, nu, 100, 3),
                     lambda: score_row(cloud, mesh, (0.3,), nu, 100, 3),
                     lambda: train_policy([(cloud, mesh)], QPolicy.fresh((0.3,)), 2, 3,
                                          nu, 100)):
            with pytest.raises(ValueError, match="nu must be finite and positive"):
                call()
        assert complex_builds == []

    def test_default_radius_is_three_percent_of_the_ground_truth_extent(self):
        gt, pred = icosphere(2), icosphere(1)
        want = reward(pred, gt, 0.03 * float(np.ptp(gt.vertices, axis=0).max()), 500, 3)
        assert 0.0 < want < 1.0
        for k in (-10, 0, 40):  # scaling by a power of two is exact, radius included
            assert reward(pred.with_vertices(pred.vertices * 2.0**k),
                          gt.with_vertices(gt.vertices * 2.0**k), None, 500, 3) == want


def coplanar_cloud(n=40, seed=5):
    xy = np.random.default_rng(seed).random((n, 2))
    return PointCloud(np.column_stack([xy, np.zeros(n)]))


class TestScoringPath:
    def test_row_meshes_match_triangulate_and_none_where_empty(self, complex_builds,
                                                               surface_samplings):
        """A row reads every tau's mesh off one complex: the mesh it scores
        at tau 0.9 is ``triangulate``'s, and tau 0.05, which keeps nothing,
        has no cell."""
        cloud, gt = synth(SyntheticSpec("sphere", n=120, fill="solid", seed=9,
                                        major_radius=0.8))
        row = _row(cloud, gt, (0.05, 0.9), 0.2, 300, 7)
        assert row[0] is None and 0.0 < row[1] <= 1.0
        assert len(complex_builds) == 1
        (sampled_gt, *_), (large, *_) = surface_samplings
        assert sampled_gt is gt
        want = triangulate(cloud, 0.9)
        np.testing.assert_array_equal(large.vertices, want.vertices)
        np.testing.assert_array_equal(large.faces, want.faces)

    def test_row_has_no_cell_for_a_coplanar_cloud(self):
        """No cell where no tau keeps a mesh, also when the cloud cannot be
        tetrahedralized; an empty ground truth scores 0 where there is a
        mesh."""
        cloud, gt = synth(SyntheticSpec("sphere", n=120, fill="solid", seed=9,
                                        major_radius=0.8))
        assert _row(coplanar_cloud(), gt, (0.3, 0.9), 0.2, 300, 7) == [None, None]
        empty = Mesh(np.zeros((0, 3)))
        assert _row(cloud, empty, (0.05, 0.3, 0.9), 0.2, 300, 7) == [None, 0.0, 0.0]

    def test_score_is_reward_or_zero_on_geometry_errors(self, surface_samplings):
        """A row's cells are the bytes of ``reward`` at the same seed, from
        one sampling of the ground truth; 0 where the tau keeps no mesh, the
        ground truth is empty or the cloud cannot be tetrahedralized."""
        cloud, gt = synth(SyntheticSpec("sphere", n=120, fill="solid", seed=9,
                                        major_radius=0.8))
        taus = (0.05, 0.3, 0.9)
        with pytest.raises(EmptyMesh):
            triangulate(cloud, taus[0])
        meshes = [triangulate(cloud, tau) for tau in taus[1:]]
        for nu in (0.2, 0.01, None):
            surface_samplings.clear()
            row = score_row(cloud, gt, taus, nu, 300, 7)
            assert [args[0] is gt for args in surface_samplings] == [True, False, False]
            want = [0.0] + [reward(mesh, gt, nu, 300, 7) for mesh in meshes]
            assert [r.hex() for r in row] == [w.hex() for w in want]
        assert score_row(cloud, Mesh(np.zeros((0, 3))), taus, 0.2, 300, 7) == [0.0] * 3
        assert score_row(coplanar_cloud(), gt, taus, 0.2, 300, 7) == [0.0] * 3

    def test_greedy_tau_is_the_top_ranked_action(self):
        theta = np.zeros((3, STATE_DIM))
        theta[2, -1] = 1.0
        policy = QPolicy((0.1, 0.2, 0.3), theta, np.zeros_like(theta))
        assert greedy_tau(policy, sphere_cloud(n=100, seed=16)) == 0.3
        assert greedy_tau(policy, sphere_cloud(n=8, seed=16)) is None  # no descriptor


class TestUpdate:
    def test_converges_to_reward(self):
        policy = QPolicy.fresh((0.1, 0.5), epsilon=0.0)
        s = state_descriptor(sphere_cloud(seed=7))
        target = 0.8
        for step in range(2000):
            policy = update(policy, s, 0, target)
            if abs(q_values(policy, s)[0] - target) < 1e-3 and step > 10:
                break
        assert abs(q_values(policy, s)[0] - target) < 1e-3

    def test_exact_prediction_no_change(self):
        policy = QPolicy.fresh((0.1, 0.5))
        s = state_descriptor(sphere_cloud(seed=8))
        updated = update(policy, s, 1, 0.0)  # q == 0 == reward
        np.testing.assert_array_equal(updated.theta, policy.theta)

    def test_epsilon_decays(self):
        policy = QPolicy.fresh((0.1,), epsilon=0.5, epsilon_decay=0.99)
        updated = update(policy, np.zeros(STATE_DIM), 0, 0.0)
        assert updated.epsilon == pytest.approx(0.495)

    def test_epsilon_floor(self):
        policy = QPolicy.fresh((0.1,), epsilon=0.0101, epsilon_decay=0.5)
        updated = update(policy, np.zeros(STATE_DIM), 0, 0.0)
        assert updated.epsilon == 0.01

    @pytest.mark.parametrize("decay", [5.0, -1.0, float("nan")])
    def test_epsilon_decay_outside_unit_interval_rejected(self, decay):
        with pytest.raises(ValueError, match=r"epsilon_decay must lie in \[0, 1\]"):
            QPolicy.fresh((0.1,), epsilon_decay=decay)

    @pytest.mark.parametrize("actions", [(float("nan"), 0.3), (float("inf"),),
                                         (0.3, -float("inf")), (0.0,), ()])
    def test_non_finite_or_non_positive_actions_rejected(self, actions):
        with pytest.raises(ValueError, match="threshold actions must be finite and positive"):
            QPolicy.fresh(actions)

    @pytest.mark.parametrize("decay", [0.0, 1.0])
    def test_epsilon_decay_bounds_accepted(self, decay):
        assert QPolicy.fresh((0.1,), epsilon_decay=decay).epsilon_decay == decay

    def test_reward_out_of_range(self):
        policy = QPolicy.fresh((0.1,))
        with pytest.raises(RewardOutOfRange):
            update(policy, np.zeros(STATE_DIM), 0, 1.5)


class TestBanditSanity:
    def test_one_state_stationary_rewards(self):
        """10k-step stationary bandit: greedy action ends within 0.02 of the
        best arm's true mean."""
        means = np.array([0.3, 0.62, 0.55])
        policy = QPolicy.fresh((0.1, 0.2, 0.3), epsilon=0.9, epsilon_decay=0.999)
        s = np.zeros(STATE_DIM)
        s[-1] = 1.0
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(10_000):
            a, _ = select_action(policy, s, rng)
            r = float(np.clip(means[a] + 0.05 * rng.normal(), 0.0, 1.0))
            policy = update(policy, s, a, r)
        greedy = int(np.argmax(q_values(policy, s)))
        assert means[greedy] >= means.max() - 0.02


class TestTrainPolicy:
    def make_dataset(self):
        # one instance where only the larger threshold yields a mesh
        cloud, gt = synth(SyntheticSpec("sphere", n=120, fill="solid", seed=9,
                                        major_radius=0.8))
        return [(cloud, gt)]

    def test_learns_feasible_threshold(self):
        dataset = self.make_dataset()
        # tau=0.05 is below the cloud's spacing: always EmptyMesh, reward 0
        with pytest.raises(EmptyMesh):
            triangulate(dataset[0][0], 0.05)
        policy = QPolicy.fresh((0.05, 0.9), epsilon=0.9)
        policy, log = train_policy(dataset, policy, episodes=60, seed=10,
                                   nu=0.2, n_samples=500)
        s = state_descriptor(dataset[0][0])
        assert int(np.argmax(q_values(policy, s))) == 1

    def test_rewards_logged_in_range_and_epsilon_floor(self):
        dataset = self.make_dataset()
        policy = QPolicy.fresh((0.05, 0.9), epsilon=0.02, epsilon_decay=0.5)
        policy, log = train_policy(dataset, policy, episodes=30, seed=11,
                                   nu=0.2, n_samples=300)
        assert all(0.0 <= r["reward"] <= 1.0 for r in log.records)
        assert all(r["epsilon"] >= 0.01 for r in log.records)
        assert policy.epsilon == 0.01

    def test_deterministic_given_seed(self):
        dataset = self.make_dataset()
        runs = []
        for _ in range(2):
            policy = QPolicy.fresh((0.05, 0.9), epsilon=0.0, epsilon_decay=1.0)
            policy, log = train_policy(dataset, policy, episodes=12, seed=12,
                                       nu=0.2, n_samples=300)
            runs.append([(r["action"], r["reward"]) for r in log.records])
        assert runs[0] == runs[1]

    def three_cloud_dataset(self):
        # tau=0.05 is below every cloud's spacing: always EmptyMesh
        dataset = []
        for shape, n, seed in (("sphere", 120, 9), ("torus", 150, 21), ("sphere", 150, 31)):
            kw = {"major_radius": 0.8} if shape == "sphere" else {"minor_radius": 0.25}
            dataset.append(synth(SyntheticSpec(shape, n=n, fill="solid", seed=seed, **kw)))
        return dataset

    def test_one_complex_per_cloud(self, complex_builds):
        policy = QPolicy.fresh((0.05, 0.3, 0.9), epsilon=0.9)
        train_policy(self.three_cloud_dataset(), policy, episodes=12, seed=3,
                     nu=0.2, n_samples=300)
        assert len(complex_builds) == 3

    def test_scores_each_cell_once(self, surface_samplings):
        """Each ground truth is sampled once, at its cloud's first visit, and
        each (cloud, action) mesh at most once."""
        dataset = self.three_cloud_dataset()
        policy = QPolicy.fresh((0.05, 0.3, 0.9), epsilon=0.9)
        train_policy(dataset, policy, episodes=12, seed=3, nu=0.2, n_samples=300)
        sampled = [args[0] for args in surface_samplings]
        gts = [gt for _, gt in dataset]
        assert [sum(mesh is gt for mesh in sampled) for gt in gts] == [1, 1, 1]
        meshes = [mesh for mesh in sampled if not any(mesh is gt for gt in gts)]
        assert len({id(mesh) for mesh in meshes}) == len(meshes) == 2 * len(dataset)

    @pytest.mark.parametrize("kwargs, problem", [
        ({"episodes": -3}, "episodes must be >= 0"),
        ({"n_samples": 0}, "n_samples must be >= 1"),
    ])
    def test_bad_arguments_rejected_before_any_work(self, complex_builds, kwargs, problem):
        args = {"episodes": 4, "seed": 3, "nu": 0.2, "n_samples": 300, **kwargs}
        with pytest.raises(ValueError, match=problem):
            train_policy(self.three_cloud_dataset(), QPolicy.fresh((0.3, 0.9)), **args)
        assert complex_builds == []

    def test_log_and_policy_pinned(self):
        """Training output: a repeated (cloud, action) cell repeats its
        reward, scored once at the run's seed; the exploration columns are
        as recorded when every episode drew its own reward seed."""
        dataset = self.three_cloud_dataset()
        for cloud, _ in dataset:
            with pytest.raises(EmptyMesh):
                triangulate(cloud, 0.05)
        policy = QPolicy.fresh((0.05, 0.3, 0.9), epsilon=0.9)
        policy, log = train_policy(dataset, policy, episodes=12, seed=3,
                                   nu=0.2, n_samples=300)
        assert log.to_csv() == PINNED_LOG
        digest = hashlib.sha256(policy_to_json(policy).encode()).hexdigest()
        assert digest == "722f61cd5a6b462e92bffb07031a50c2d20e67fedd258f55fc6754e5cf959286"

    def test_coplanar_cloud_scores_zero(self):
        """A cloud Qhull cannot tetrahedralize scores 0 at every action,
        like any other cell that fails on its geometry."""
        flat = coplanar_cloud()
        _, gt = synth(SyntheticSpec("box", n=10))
        dataset = self.three_cloud_dataset()[:1] + [(flat, gt)]
        policy = QPolicy.fresh((0.3, 0.9), epsilon=0.9)
        policy, log = train_policy(dataset, policy, episodes=8, seed=3,
                                   nu=0.2, n_samples=300)
        flat_hash = state_hash(state_descriptor(flat))
        flat_rewards = [r["reward"] for r in log.records if r["state_hash"] == flat_hash]
        assert flat_rewards and all(r == 0.0 for r in flat_rewards)
        assert any(r["reward"] > 0 for r in log.records if r["state_hash"] != flat_hash)

    def test_argmax_invariant_to_constant_shift(self):
        rng = np.random.default_rng(13)
        theta = rng.normal(size=(3, STATE_DIM))
        policy = QPolicy((0.1, 0.2, 0.3), theta, np.zeros_like(theta), epsilon=0.0)
        s = rng.normal(size=STATE_DIM)
        shifted = theta.copy()
        shifted[:, -1] += 5.0  # constant added to every action via the bias
        s_bias = s.copy()
        s_bias[-1] = 1.0
        pol2 = QPolicy((0.1, 0.2, 0.3), shifted, np.zeros_like(theta), epsilon=0.0)
        assert int(np.argmax(q_values(policy, s_bias))) == \
            int(np.argmax(q_values(pol2, s_bias)))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        theta = rng.normal(size=(3, STATE_DIM))
        cache = np.abs(rng.normal(size=(3, STATE_DIM)))
        policy = QPolicy((0.05, 0.085, 0.11), theta, cache,
                         epsilon=0.123456789012345, epsilon_decay=0.99, period=2)
        path = tmp_path / "policy.json"
        path.write_text(policy_to_json(policy))
        loaded = load_policy(path)
        assert loaded.actions == policy.actions
        np.testing.assert_array_equal(loaded.theta, policy.theta)
        np.testing.assert_array_equal(loaded.rms_cache, policy.rms_cache)
        assert loaded.epsilon == policy.epsilon
        assert loaded.epsilon_decay == policy.epsilon_decay
        assert loaded.period == policy.period

    @pytest.mark.parametrize("decay", [5.0, -1.0])
    def test_load_rejects_epsilon_decay_outside_unit_interval(self, tmp_path, decay):
        doc = json.loads(policy_to_json(QPolicy.fresh((0.1, 0.2))))
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({**doc, "epsilon_decay": decay}))
        with pytest.raises(ValueError, match=r"epsilon_decay must lie in \[0, 1\]"):
            load_policy(path)
