"""Set-up probe: import the package in a fresh process and build its tables.

`run.py` runs this file as a child process several times and reports the
median as `setup_s`.  Usage: python3 bench/setup_probe.py <path-to-src>
It prints one JSON line: setup_s (process start of this script to tables
built) and cold_s (stabilizer tables only).
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def warm_tables() -> float:
    """Build every lazily cached table the workloads read.

    Returns the seconds spent on the stabilizer tables.
    """
    from magicbroadcast import measures, stabilizers, states

    t0 = time.perf_counter()
    for n in (1, 2):
        stabilizers.pauli_matrices(n)
        stabilizers.stabilizer_states(n)
    stabilizers.clifford_group_1q()
    cold = time.perf_counter() - t0
    measures.rom_lp_oracle(states.t_state().density())   # LP basis inverses
    return cold


def cache_misses() -> int:
    """Summed `lru_cache` misses of the stabilizers module (tables built)."""
    from magicbroadcast import stabilizers

    total = 0
    for value in vars(stabilizers).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            total += info().misses
    return total


def main():
    sys.path.insert(0, sys.argv[1])
    import magicbroadcast  # noqa: F401

    cold = warm_tables()
    print(json.dumps({"setup_s": time.perf_counter() - _T0, "cold_s": cold}))


if __name__ == "__main__":
    main()
