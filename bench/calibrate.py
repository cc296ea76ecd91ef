"""Fixed calibration work: sparse products of dicts with tuple keys and
``Fraction`` coefficients, the kind of work the ``wardcf`` kernel does,
written with the standard library only.

``run.py`` spawns this script before and after every job of a timed pass.
On a shared machine the speed of the CPU drifts by tens of percent within
minutes; a job's time is divided by the mean time of the two calibration
spawns around it, so that the drift cancels, and multiplied by a fixed
reference time to read in seconds.  Nothing here may import
``wardcf``: a change to the program must not change this script's time.
"""

from fractions import Fraction


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


if __name__ == "__main__":
    p = {(i, j, (i * j) % 3): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    q = {(i, j, 0): i - j + 1 for i in range(5) for j in range(5)}
    r = p
    for _ in range(3):
        r = {k: c for k, c in mul(r, q).items() if sum(k) < 30}
