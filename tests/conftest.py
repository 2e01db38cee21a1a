"""Probes and Loewner helpers that the rank-check tests of test_loewner.py
and test_paaa.py share."""

import pytest

from pnlevp import loewner
from pnlevp.contour import (Disk, build_trapezoid_rule, default_sampling,
                            probe_samples)
from pnlevp.loewner import build_loewner
from pnlevp.problems import LinearDemoProblem, get_problem


def _probed(problem, domain, r, q, p_range, N):
    config = default_sampling(domain, r, q, p_range, seed=0, dim=problem.dim)
    rule = build_trapezoid_rule(domain, N)
    return config, probe_samples(problem, rule, config, domain)


@pytest.fixture(scope="session")
def linear1_probed():
    """linear-1 probed with r = 40 directions: its L(p_j) are wide enough
    to be sketched."""
    return _probed(LinearDemoProblem(), Disk(0.0, 0.6), 40, 40, (0.75, 1.25),
                   512)


@pytest.fixture(scope="session")
def delay_probed():
    return _probed(get_problem("delay"), Disk(0.0, 0.075), 20, 40,
                   (30.0, 35.0), 128)


@pytest.fixture(scope="session")
def probed_loewner():
    """A function giving build_loewner's L at each parameter sample of a
    probe, over all r directions."""
    def matrices(config, samples):
        b, c = samples.left, samples.right
        return [build_loewner(config, b[:, j], c[:, j])[0]
                for j in range(config.q)]
    return matrices


@pytest.fixture
def full_width_calls(monkeypatch):
    """Shapes of the matrices that take an exact SVD (the rank routine's
    exact step, for a narrow L or where the sketch cannot certify its
    count): the _svd calls but a sketch's, whose Q^H L has at most half as
    many rows as columns."""
    calls = []
    svd = loewner._svd

    def counted(A):
        if 2 * A.shape[0] > A.shape[1]:
            calls.append(A.shape)
        return svd(A)

    monkeypatch.setattr(loewner, "_svd", counted)
    return calls

