"""The four benchmark sweeps and the grids their seeds give.

Seed 0 runs each grid exactly as stated in `baseline.json`; its full
report hash is stored there.  Any other seed moves one edge of the grid by
a small amount, always staying under the CLI caps, and the gate then
checks a count computed here, independently of the program.

The moves are chosen to change the work only a little, so that run-to-run
spread stays mostly timing noise: the lowest prime of the padic sweep and
the lowest power of the duality fences barely matter, while the fence cap
moves by at most one step, which costs about 5% of exact-grid and 7% of
telescope.

The padic, exact and telescope grids are cut to 1-2 s a sweep, so that a
run holds a few dozen sweeps, each paired with its own reference timing
(see run.py); big-fence keeps its full fences, where nearly all the time
is the exact kernel on huge integers.
"""

import random

DEFAULT_SEED = 0


def _primes(lo, hi):
    return [p for p in range(max(lo, 2), hi + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _index_count(max_weight):
    """Nonempty indices of weight <= w: 2^(v-1) compositions of each v."""
    return 2 ** max_weight - 1


def grid(workload, seed):
    """(CLI argv, expected number of checks) for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    moved = seed != DEFAULT_SEED
    if workload == "padic-sweep":
        lo = rng.choice((3, 5, 7, 11)) if moved else 3
        argv = ["verify", "padic", "--max-weight", "4",
                "--primes", f"{lo}..199", "--n-values", "1,2,3"]
        # The pinned floors for weight <= 4 and n in {2, 3} are all 3.
        checks = _index_count(4) * 3 * len(_primes(max(lo, 3), 199))
    elif workload == "exact-grid":
        upper = 40 - (rng.choice((0, 1)) if moved else 0)
        argv = ["verify", "main", "--max-weight", "8",
                "--max-upper", str(upper)]
        checks = _index_count(8) * upper
    elif workload == "big-fence":
        lo = 4 + (rng.choice((-1, 0, 1, 2)) if moved else 0)
        argv = ["verify", "duality-r", "--powers", f"{lo}..12"]
        checks = 4  # one per convergence index
    elif workload == "telescope":
        upper = 28 - (rng.choice((0, 1)) if moved else 0)
        argv = ["verify", "telescope", "--max-weight", "5",
                "--max-upper", str(upper)]
        checks = _index_count(5) * upper
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return argv + ["--jobs", "1"], checks
