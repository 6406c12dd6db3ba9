import os

import pytest

from clustercomplexes.colored import build_complex, positive_part
from clustercomplexes.roots import build_root_system

ACCEPTANCE_MATRIX = [(label, m) for label in ("A2", "A3", "B2", "B3", "G2")
                     for m in (1, 2, 3)]
# a six-vertex triangulation of the real projective plane
RP2 = [(0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
       (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]


@pytest.fixture(scope="session")
def complexes():
    """Session cache: (label, m) -> (system, complex, compatibility adjacency)."""
    cache = {}

    def get(label, m):
        key = (label, m)
        if key not in cache:
            rs = build_root_system(label)
            cx, adjacency = build_complex(rs, m)
            cache[key] = (rs, cx, adjacency)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def positive_complexes(complexes):
    cache = {}

    def get(label, m):
        key = (label, m)
        if key not in cache:
            _, cx, _ = complexes(label, m)
            cache[key] = positive_part(cx)
        return cache[key]

    return get


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces multiprocessing.Pool by a recorder that maps in this process.

    The machine reports four CPUs, so the clamp of --workers is fixed.
    """
    # topology imports multiprocessing only when it starts a pool
    import multiprocessing
    requested = []

    class RecordingPool:

        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return requested
