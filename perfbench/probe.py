"""A fixed pure-Python computation that times the host, not the program.

Usage: python3 perfbench/probe.py

Prints the seconds that a fixed amount of divisibility, lcm and frozenset
work on exponent tuples took, the operations monomial-ideal code does most;
about 0.2 s on a 2-vCPU Xeon VM.  It imports nothing from the program, so a
change to the program leaves it as it was.
"""

import time

ROUNDS = 80


def work():
    gens = [(a, b, c, d) for a in range(6) for b in range(6) for c in range(5) for d in range(4)]
    seen = {}
    acc = 0
    for i, g in enumerate(gens):
        h = gens[(i * 7919) % len(gens)]
        lcm = tuple(max(x, y) for x, y in zip(g, h))
        acc += all(x <= y for x, y in zip(g, lcm))
        seen[lcm] = seen.get(lcm, 0) + 1
    s = frozenset(seen)
    for _ in range(12):
        s = frozenset(tuple(x + 1 for x in m) for m in s if sum(m) < 14) | s
    return acc + len(s)


if __name__ == "__main__":
    started = time.perf_counter()
    for _ in range(ROUNDS):
        work()
    print(time.perf_counter() - started)
