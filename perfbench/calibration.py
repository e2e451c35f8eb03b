"""A fixed calibration kernel that tracks the speed of a shared machine.

On a shared VM the same op can take 0.44 s in one minute and 0.9 s a few
minutes later, with every process on the machine slowed alike.  The worker
runs this kernel after each op, for a fixed share of the op's time, and
reports its times beside the op's, so that ``run.py`` can express timings
in seconds at a reference speed.

The kernel does the kinds of work seamkit's ops do, with none of seamkit's
code, so that no change to seamkit moves it: a Python-level edge build over
a triangle list (dicts and tuples), numpy gathers and a sort on a 1.6 MB
array, and a sparse factorization with scipy.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

GRID = 40  # a GRID x GRID quad grid, two triangles per quad
N = 200_000
SHARE = 0.03  # kernel time per op, as a share of the op's time


class Calibrator:
    def __init__(self):
        row = GRID + 1
        self.triangles = []
        for i in range(GRID):
            for j in range(GRID):
                a = i * row + j
                self.triangles += [(a, a + 1, a + row + 1), (a, a + row + 1, a + row)]
        self.values = np.sin(np.arange(N) * 1e-3)
        self.order = (np.arange(N) * 7919) % N
        self.n_vertices = row * row

    def sample(self) -> float:
        """Seconds for one run of the kernel."""
        t0 = time.perf_counter()
        edges = {}
        for f, (a, b, c) in enumerate(self.triangles):
            for u, v in ((a, b), (b, c), (c, a)):
                edges.setdefault((min(u, v), max(u, v)), []).append(f)
        g = self.values[self.order]
        g = g[np.argsort(g, kind="stable")].cumsum()
        ij = np.array(list(edges))
        n = self.n_vertices
        adj = sp.coo_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(n, n))
        adj = adj + adj.T
        lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel() + 1.0) - adj
        spla.spsolve(lap.tocsc(), np.ones(n) + g[:n])
        return time.perf_counter() - t0

    def samples_for(self, op_seconds: float) -> list:
        """Kernel runs, at least one, until they add up to SHARE of an op."""
        samples = [self.sample()]
        while sum(samples) < SHARE * op_seconds:
            samples.append(self.sample())
        return samples

