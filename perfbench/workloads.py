"""Seeded instance pools for the four benchmark workloads.

Every instance is keyed from the workload seed through Philox, the way
``psdp.bench.gen`` keys its own instances, so the same seed always gives
bit-identical pools.  A pool item is (X, B, entry, method, route): the
public entry point the benchmark calls, the method passed to ``solve``
(None for ``an_fgm_solve``) and the route the pipeline is expected to take.
See WORKLOADS.md for why each workload exists.
"""

from dataclasses import dataclass

import numpy as np

from psdp.bench import InstanceSpec, gen

# distinct pool items per run; the timed loop cycles through them, so the
# quality metrics cover exactly these instances whatever the run length
POOL = 12
SMOKE_POOL = 3
SMOKE_N = 12
# solves per timed run, at least: the p75 then has 10 samples beyond it
MIN_SOLVES = 42
SMOKE_MIN_SOLVES = 6


@dataclass(frozen=True)
class Item:
    X: np.ndarray
    B: np.ndarray
    entry: str
    method: str
    route: str


def _key(seed, j):
    # Philox keys are non-negative; any integer seed maps to a distinct key
    return (seed % 2**64) * 1000 + j


def _philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def _rankdef(n, m, key):
    return gen(InstanceSpec("rank_deficient", n, m, key))


def rank1_instance(n, m, key, positive):
    """X = c u v.T with B adjusted into the t > 0 or the t <= 0 branch.

    t = u.T B v.  Flipping the u v.T component of B changes the sign of t
    and leaves w = U2.T B v (nonzero almost surely) alone, so the t <= 0
    instances take the unattained eps branch.
    """
    rng = _philox(key)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    X = (0.5 + rng.random()) * np.outer(u, v)
    B = rng.standard_normal((n, m))
    t = float(u @ B @ v)
    if (t > 0.0) != positive:
        B = B - 2.0 * t * np.outer(u, v)
    return X, B


def negative_instance(n, m, key):
    """B = -X + U2 G with X rank deficient, so U1.T (B X.T + X B.T) U1 = -2 Sigma1^2."""
    X, _ = _rankdef(n, m, key)
    U, s, _ = np.linalg.svd(X)
    r = int(np.count_nonzero(s > max(n, m) * np.finfo(float).eps * s[0]))
    # a jumped stream, independent of the draws gen made from the same key
    G = np.random.Generator(np.random.Philox(key=key).jumped()).standard_normal((n - r, m))
    return X, -X + U[:, r:] @ G


def build_pool(workload, seed, smoke=False):
    """The list of pool Items for ``workload`` at ``seed``."""
    size = POOL if not smoke else SMOKE_POOL
    items = []
    for j in range(size):
        key = _key(seed, j)
        if workload == "rankdef":
            n = 100 if not smoke else SMOKE_N
            X, B = _rankdef(n, n, key)
            items.append(Item(X, B, "an_fgm_solve", None, "iterative"))
        elif workload == "ill":
            n = 60 if not smoke else SMOKE_N
            X, B = gen(InstanceSpec("ill_conditioned", n, n, key, kappa_target=1e6))
            items.append(Item(X, B, "an_fgm_solve", None, "iterative"))
        elif workload == "tall":
            n, m = (600, 40) if not smoke else (SMOKE_N, 6)
            kind = j % 3
            if kind == 0:
                X, B = _rankdef(n, m, key)
                items.append(Item(X, B, "an_fgm_solve", None, "iterative"))
            elif kind == 1:
                X, B = rank1_instance(n, m, key, positive=(j // 3) % 2 == 0)
                items.append(Item(X, B, "an_fgm_solve", None, "rank1"))
            else:
                X, B = negative_instance(n, m, key)
                items.append(Item(X, B, "an_fgm_solve", None, "negative"))
        elif workload == "fullspace":
            n = 60 if not smoke else SMOKE_N
            X, B = _rankdef(n, n, key)
            method = ("gradient", "fgm", "partan")[j % 3]
            items.append(Item(X, B, "solve", method, None))
        else:
            raise ValueError("unknown workload %r" % (workload,))
    return items
