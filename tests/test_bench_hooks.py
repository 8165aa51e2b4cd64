"""The benchmark in perfbench/ wraps paracnn names from outside, by attribute.

Each wrapped name must stay a module global or a class attribute, and a
method must be defined on the class itself (the tracer reads the class
``__dict__``). These tests install and restore both sets of hooks, so a
renamed, removed or inherited name fails here instead of in a benchmark run.
"""

import importlib
import os

import pytest

from paracnn import cli, training

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module


def test_tracer_installs_and_restores(bench_module):
    tracer = bench_module("tracer")
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracer.TIMED}
    hooks = tracer.Tracer().install()
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
    finally:
        hooks.restore()
    assert {(owner, attr): owner.__dict__[attr] for owner, attr in before} == before


def test_probe_installs_and_restores(bench_module):
    workloads = bench_module("workloads")

    def names():
        return (cli.decode_adaptive, cli.greedy_decode,
                training.TwinTrainer.__dict__["train_batch"])

    before = names()
    probe = workloads.Probe().install()
    try:
        assert all(a is not b for a, b in zip(names(), before))
    finally:
        probe.restore()
    assert names() == before
