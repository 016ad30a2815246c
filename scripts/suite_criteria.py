#!/usr/bin/env python3
"""Per-criterion timing of the acceptance suite.

Runs each of the nine criteria of `suite.run_suite` in-process, with the
arguments and sub-seeds `run_suite` gives them under the default
`SuiteConfig` and --seed, and prints the median of --repeats runs of each in
milliseconds, then the sum of the medians.

Usage:
    python3 scripts/suite_criteria.py
    python3 scripts/suite_criteria.py --seed 3 --repeats 7
"""

import argparse
import statistics
import time

from ultrapreserve import suite
from ultrapreserve.classify import derive_seed


def criteria(config: suite.SuiteConfig) -> dict:
    """Each criterion as a zero-argument call, as `run_suite` makes it."""
    trials, seed = config.trials, config.seed
    return {
        "forward_preservation": lambda: suite.forward_preservation(
            trials, config.max_points, derive_seed(seed, 11)),
        "witness_synthesis": suite.witness_synthesis,
        "strongly_preserving_criterion": suite.strongly_preserving_criterion,
        "covering_divergence": suite.covering_divergence,
        "universal_embedding": lambda: suite.universal_embedding(
            2 * trials, derive_seed(seed, 12)),
        "minmax_equivalence": lambda: suite.minmax_equivalence(
            config.budget, derive_seed(seed, 13)),
        "triplet_and_subadditivity": lambda: suite.triplet_and_subadditivity(
            config.budget, derive_seed(seed, 14)),
        "cantor_values": suite.cantor_values,
        "net_oracle_equivalence": lambda: suite.net_oracle_equivalence(
            max(1, (2 * trials) // 5), min(config.max_points, 10), derive_seed(seed, 15)),
    }


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    print(f"median ms of {args.repeats} runs; suite seed {args.seed}")
    print(f"{'criterion':<30}  {'ms':>8}")
    print("-" * 40)
    total = 0.0
    for name, call in criteria(suite.SuiteConfig(seed=args.seed)).items():
        ms = median_ms(call, args.repeats)
        total += ms
        print(f"{name:<30}  {ms:>8.1f}", flush=True)
    print(f"{'total':<30}  {total:>8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
