"""One digest of everything the unloading engine returns, on the instance
families that a rewrite of the engine must leave unchanged.

Each instance is handed to `weighted._unload_steps` as `unload` and the
analyzer hand it over, traced on every other call.  The digest is a
SHA-256 of, per call, the return value (the step count, the touched points
in order and the step records) and the final excesses, or, for a cap
overrun, the message, the trace and the partial excesses.  The families:

- the chains weighted (1, ..., 1, n) for n <= 60, uncapped and under 25
  evenly spaced caps each plus 0 to 3, so caps fall before runs down links
  and inside them;
- make_dr(r) for r <= 40, plain and with its last weight raised by r;
- 3,000 generator clusters of at most 14 points, plain and with noisy
  weights (each multiplicity moved by -3 to 1);
- perfbench's `sized_cluster(Random(3), n)` at 10, 50, 100 and 200 points;
- the K_w of `weighted._appended`, the cluster with a free point appended,
  at every zero-excess target of each instance above;
- 1,500 of `oracle.random_link_chain`'s branchy chains of links, under a
  cap of 1,000 steps and two random caps each.

Standard library only.  From the root of a checkout:

    PYTHONPATH=src python benchmarks/engine_digest.py

prints the counts, the digest and the time, and exits 1 with one line on
stderr when the digest differs from `DIGEST`, the one the engine gave
before its runs down links remembered their stretches.
"""

import hashlib
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import sandwiched  # noqa: E402
from sandwiched import WeightedCluster, chain_skeleton, excesses  # noqa: E402
from sandwiched.errors import CapExceededError  # noqa: E402
from sandwiched.oracle import GeneratorConfig, _random_cluster, random_link_chain  # noqa: E402
from sandwiched.weighted import _appended, _default_cap, _unload_steps  # noqa: E402
from workloads import make_dr, sized_cluster  # noqa: E402

DIGEST = "1e9b23b9ea1e82237f61518097d8c01aea40e7fc176cbda4d6e0f8be89ab9e58"


def _records(steps) -> tuple:
    return tuple((step.point, step.increment, step.tame) for step in steps)


class Digest:
    """The running digest and the counts it covers."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.calls = self.overruns = self.steps = 0

    def engine(self, rho, proximate_to, dual_rows, cap) -> int:
        """Unload a copy of `rho` under `cap`, traced on every other call,
        add the outcome to the digest and return the step count, or
        `cap` + 1 on an overrun."""
        rho = list(rho)
        queue = [p for p, r in enumerate(rho) if r < 0]
        trace = self.calls % 2 == 1
        self.calls += 1
        try:
            count, touched, steps = _unload_steps(rho, queue, proximate_to, dual_rows, cap, trace)
            outcome = (count, tuple(touched), _records(steps), tuple(rho))
        except CapExceededError as overrun:
            count, outcome = cap + 1, (str(overrun), _records(overrun.trace), tuple(rho))
            self.overruns += 1
        self.hash.update(repr(outcome).encode())
        self.steps += count
        return count

    def cluster(self, K) -> int:
        """K, then its K_w at every zero-excess target, uncapped; returns
        K's step count."""
        sk, rho = K.skeleton, list(excesses(K))
        count = self.engine(rho, sk.proximate_to, sk.dual_rows, _default_cap(K.nu))
        cap = _default_cap((*K.nu, 1))
        for target, r in enumerate(rho):
            if r == 0:
                self.engine(*_appended(sk, rho, target), cap)
        return count


def main() -> int:
    start = time.perf_counter()
    digest = Digest()
    for n in range(1, 61):
        K = WeightedCluster(chain_skeleton(n), (1,) * (n - 1) + (n,))
        sk, rho = K.skeleton, list(excesses(K))
        steps = digest.cluster(K)
        spacing = max(1, steps // 25)
        for cap in sorted({c + d for c in range(0, steps, spacing) for d in range(4)}):
            digest.engine(rho, sk.proximate_to, sk.dual_rows, cap)
    for r in range(1, 41):
        K = make_dr(sandwiched, r)
        digest.cluster(K)
        digest.cluster(WeightedCluster(K.skeleton, (*K.nu[:-1], K.nu[-1] + r)))
    rng = random.Random(20261021)
    config = GeneratorConfig(max_points=14, max_multiplicity=5, satellite_probability=0.4)
    for _ in range(3000):
        K = _random_cluster(rng, config)
        digest.cluster(K)
        digest.cluster(WeightedCluster(K.skeleton, tuple(m + rng.randint(-3, 1) for m in K.nu)))
    for n in (10, 50, 100, 200):
        digest.cluster(sized_cluster(sandwiched, random.Random(3), n))
    for _ in range(1500):
        K = random_link_chain(rng)
        sk, rho = K.skeleton, list(excesses(K))
        for cap in (1000, rng.randrange(200), rng.randrange(1000)):
            digest.engine(rho, sk.proximate_to, sk.dual_rows, cap)

    hexdigest = digest.hash.hexdigest()
    print(f"engine calls: {digest.calls:,}, {digest.overruns:,} cap overruns, {digest.steps:,} steps")
    print(f"engine digest: {hexdigest}")
    print(f"time: {time.perf_counter() - start:.1f} s")
    if hexdigest != DIGEST:
        print(f"engine digest differs from the recorded {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
