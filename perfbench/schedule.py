"""Seeded request schedules for the catalyst benchmark.

A schedule is an endless stream of blocks.  Each block holds every
(category, entry) pair of a workload exactly once, in an order drawn from
the seed, so the mix proportions are exact after every whole block for any
seed.  The program under test only ever sees the requests a schedule names.
"""

import hashlib
import random

CACHESIM = ("dcache", "icache", "gpu_dcache")
FLOPS = ("branch", "cpu_flops", "gpu_flops")
ALL = ("cpu_flops", "gpu_flops", "branch", "dcache", "icache", "gpu_dcache")

WORKLOAD_PAIRS = {
    "cli_cachesim": tuple((c, e) for c in CACHESIM for e in ("live", "from")),
    "cli_flops": tuple((c, e) for c in FLOPS for e in ("live", "from")),
}


def blocks(pairs, seed, stream="timed"):
    """Yields shuffled copies of `pairs` forever.  Each named stream of a
    run (the timed phase, the traced run) has its own RNG, so how many
    blocks one stream used never shifts the requests of another."""
    rng = random.Random(f"{seed}:{stream}")
    while True:
        block = list(pairs)
        rng.shuffle(block)
        yield block


def digest(pairs, seed, streams=("timed",), count=64):
    """Short hex digest of the first `count` blocks of each stream."""
    h = hashlib.sha256()
    for name in streams:
        stream = blocks(pairs, seed, name)
        for _ in range(count):
            h.update(f"{name}|".encode())
            h.update(";".join(f"{c}:{e}" for c, e in next(stream)).encode())
            h.update(b"\n")
    return h.hexdigest()[:16]
