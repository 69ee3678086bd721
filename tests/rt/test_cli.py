"""``python -m repro rt``: the JSON summary the command prints."""

import json

import pytest

from repro.rt.cli import main

SIZES = ["--mirrors", "1", "--flights", "4", "--positions", "10",
         "--requests", "2", "--seed", "7"]


@pytest.mark.parametrize("shape", [
    ["--subscribers", "2"],
    ["--shards", "2", "--handoffs", "3", "--subscribers", "2"],
], ids=["unsharded", "sharded"])
def test_rt_prints_a_consistent_summary(capsys, shape):
    assert main(shape + SIZES) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["replicas_consistent"]
