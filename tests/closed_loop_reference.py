"""closed_loop as it was before it wrote its two arrays in place: a
dictionary of F's blocks, each a block of a less its b k terms, placed in
an array after the loop.

A reference for test_oracle.py, which asserts that closed_loop
gives the same cu and F bit for bit, zero signs included.  The body is
kept as it was.
"""
import numpy as np

from lfns.finite_horizon import GAIN_BLOCKS, READS, block_slices
from lfns.model import CompactModel


def closed_loop(compact: CompactModel, gains) -> tuple[np.ndarray, np.ndarray]:
    """(cu, F) of the loop on z = (x0, x1, x1hat) under gains (k00, k01, k10, k11)."""
    n = compact.n
    at = block_slices(n, compact.m1)
    a, b = compact.a, compact.b
    x0, x1 = at["x0"], at["x1"]
    moved_by = {"x0": x0, "x1": x1, "x1hat": x1}
    f = {("x0", "x0"): a[x0, x0], ("x1", "x0"): a[x1, x0], ("x1", "x1"): a[x1, x1],
         ("x1hat", "x0"): a[x1, x0], ("x1hat", "x1hat"): a[x1, x1]}
    gain = dict(zip(GAIN_BLOCKS, gains))
    cu = np.zeros((b.shape[1], 3 * n))
    for name, (control, applied, mean) in READS.items():
        k = gain[name]
        cu[at[control], at[applied]] = -k
        for row, col in (("x0", applied), ("x1", applied), ("x1hat", mean)):
            if row == "x0" and control == "u1":
                continue  # u1 never drives the leader: a structural zero of b
            term = b[moved_by[row], at[control]]
            f[row, col] = f[row, col] - term @ k if (row, col) in f else -term @ k
    out = np.zeros((3 * n, 3 * n))
    for (row, col), block in f.items():
        out[at[row], at[col]] = block
    return cu, out
