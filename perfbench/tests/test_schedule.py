"""Tests of the seeded request generator.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import collections
import itertools
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import schedule  # noqa: E402

STREAMS = ("timed", "trace")


class ScheduleTest(unittest.TestCase):
    def test_same_seed_gives_identical_schedule(self):
        for workload, pairs in schedule.WORKLOAD_PAIRS.items():
            for seed in (0, 1, 12345):
                first = list(itertools.islice(
                    schedule.blocks(pairs, seed), 100))
                second = list(itertools.islice(
                    schedule.blocks(pairs, seed), 100))
                self.assertEqual(first, second, workload)
                self.assertEqual(schedule.digest(pairs, seed, STREAMS),
                                 schedule.digest(pairs, seed, STREAMS))

    def test_digest_does_not_depend_on_the_process(self):
        # String hashing is salted per process; the schedule must not be.
        code = ("import schedule as s; "
                "print(s.digest(s.WORKLOAD_PAIRS['cli_flops'], 7, "
                "('timed', 'trace')))")
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 cwd=os.path.dirname(HERE), check=True,
                                 capture_output=True, text=True).stdout
            digests.add(out.strip())
        self.assertEqual(len(digests), 1)
        self.assertEqual(digests.pop(), schedule.digest(
            schedule.WORKLOAD_PAIRS["cli_flops"], 7, ("timed", "trace")))

    def test_seeds_and_streams_give_different_orders(self):
        pairs = schedule.WORKLOAD_PAIRS["cli_cachesim"]
        digests = {schedule.digest(pairs, seed, (stream,))
                   for seed in range(20) for stream in STREAMS}
        self.assertEqual(len(digests), 20 * len(STREAMS))

    def test_every_block_holds_each_pair_once_for_any_seed(self):
        for workload, pairs in schedule.WORKLOAD_PAIRS.items():
            self.assertEqual(len(set(pairs)), len(pairs), workload)
            for seed in range(200):
                for stream in STREAMS:
                    for block in itertools.islice(
                            schedule.blocks(pairs, seed, stream), 20):
                        self.assertEqual(collections.Counter(block),
                                         collections.Counter(pairs))

    def test_workloads_split_the_categories(self):
        cats = {w: {c for c, _ in p}
                for w, p in schedule.WORKLOAD_PAIRS.items()}
        self.assertFalse(cats["cli_cachesim"] & cats["cli_flops"])
        self.assertEqual(cats["cli_cachesim"] | cats["cli_flops"],
                         set(schedule.ALL))


if __name__ == "__main__":
    unittest.main()
