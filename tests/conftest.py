import time

import numpy as np
import pytest

from delib import MetricInstance
from delib.averaging import (
    K2_CASES, K2_PARTS, THETA3_CASES, build_k2_case_program,
    build_k2_part_program, build_theta2_program, build_theta3_case_program,
    solve_theta2, solve_theta3,
)


def random_euclidean_instance(rng, m, n, dim=2):
    """Random planar instance: m candidates, n weighted voter locations.

    Euclidean distances satisfy the triangle inequality by construction,
    so the result always validates.
    """
    pts = rng.standard_normal((m + n, dim))
    names = [f"c{i}" for i in range(m)] + [f"v{i}" for i in range(n)]
    w = rng.random(n)
    w /= w.sum()
    dists = {
        (names[a], names[b]): float(np.linalg.norm(pts[a] - pts[b]))
        for a in range(m + n)
        for b in range(a + 1, m + n)
    }
    return MetricInstance.build(
        names[:m], [(names[m + i], w[i]) for i in range(n)], dists
    )


def paper_programs() -> dict:
    """The paper's box programs by a name unique across betas: theta_2 in
    both encodings, both full k = 2 case programs and the three k = 2 part
    programs at two betas, and the eight theta_3 cases."""
    progs = {p.name: p for p in (build_theta2_program(),
                                 build_theta2_program(expanded=False))}
    for beta in (3.0, 3.4152):
        for p in ([build_k2_case_program(case, beta) for case in K2_CASES]
                  + [build_k2_part_program(part, beta) for part in K2_PARTS]):
            progs[f"{p.name}-beta{beta}"] = p
    for case in THETA3_CASES:
        p = build_theta3_case_program(case)
        progs[p.name] = p
    return progs


@pytest.fixture
def small_line_instance():
    """Three candidates and three voter blocks on a line segment [0, 4]."""
    # A at 0, B at 2, C at 4; voters at 0.5 (mass .5), 2.5 (.3), 3.5 (.2)
    pos = {"A": 0.0, "B": 2.0, "C": 4.0, "u": 0.5, "v": 2.5, "w": 3.5}
    dists = {
        (a, b): abs(pos[a] - pos[b])
        for i, a in enumerate(pos)
        for b in list(pos)[i + 1:]
    }
    return MetricInstance.build(
        ["A", "B", "C"], [("u", 0.5), ("v", 0.3), ("w", 0.2)], dists
    )


@pytest.fixture(scope="session")
def theta2_run():
    """solve_theta2() at its defaults and its wall time, shared by every
    module that checks it."""
    t0 = time.monotonic()
    res = solve_theta2()
    return res, time.monotonic() - t0


@pytest.fixture(scope="session")
def theta3_run():
    """solve_theta3(threads=2) and its wall time: the longest solve of the
    suite, run once."""
    t0 = time.monotonic()
    res = solve_theta3(threads=2)
    return res, time.monotonic() - t0
