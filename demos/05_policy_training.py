"""Learning which threshold to use, per cloud.

Two families of clouds want different thresholds: dense toroidal clouds
need a small one (a large threshold plugs the handle), sparse convex blobs
need a large one (a small threshold shreds them). The epsilon-greedy value
learner reads a 16-feature cloud descriptor and learns the mapping from
observed rewards alone.
"""

import numpy as np

from alphaforge import (
    QPolicy,
    SyntheticSpec,
    greedy_tau,
    score_row,
    synth,
    train_policy,
)

ACTIONS = (0.3, 0.9)
NU = 0.2


def instance(kind, seed):
    if kind == "torus":
        return synth(SyntheticSpec("torus", n=1000, fill="solid", seed=seed,
                                   minor_radius=0.25))
    return synth(SyntheticSpec("sphere", n=80, fill="solid", seed=seed,
                               major_radius=0.8))


dataset = [instance("torus", 100 + i) for i in range(8)]
dataset += [instance("blob", 200 + i) for i in range(8)]

policy = QPolicy.fresh(ACTIONS, epsilon=0.9, epsilon_decay=0.99, period=2)
policy, log = train_policy(dataset, policy, episodes=400, seed=7, nu=NU,
                           n_samples=800)
print(f"trained on {len(log.records)} transitions, "
      f"final exploration rate {policy.epsilon:.3f}")

print(f"\n{'class':<8}{'true rewards':>22}{'policy picks':>14}")
hits = 0
for kind, seed0 in (("torus", 5000), ("blob", 6000)):
    for k in range(5):
        cloud, gt = instance(kind, seed0 + k)
        rs = score_row(cloud, gt, ACTIONS, NU, 800, 999)
        pick = greedy_tau(policy, cloud)
        hits += pick == ACTIONS[int(np.argmax(rs))]
        print(f"{kind:<8}{str([round(r, 2) for r in rs]):>22}{f'tau={pick}':>14}")
print(f"\npolicy matched the brute-force best threshold on {hits}/10 fresh clouds")
