"""Byte-level goldens for the sampled paths.

The digests pin the exact stdout of a corrected sampled sweep and of a
corrected single-angle simulation for both inequalities.  A change that
reorders a floating-point operation, alters seeding or touches the output
format shows up here.  They were recorded with numpy 2.4; numpy may change
its Generator streams between releases, which would also move them.
"""

import hashlib

import pytest

from leggettsim.cli import main

SWEEP_ARGS = (
    "--visibility", "0.98", "--steps", "61", "--shots", "100000", "--correct",
    "--seed", "7", "--f0-nuclear", "0.97", "--f1-nuclear", "0.95",
    "--f0-electron", "0.96", "--f1-electron", "0.94",
)
SIMULATE_ARGS = (
    "--phi", "36.87", "--shots", "100000", "--correct", "--seed", "4",
    "--f0-nuclear", "0.97",
)

SWEEP_SHA256 = {
    "i26": "1ded7519e7843cacedd49233bf506ca187e25c15333e82ad5e10169fe64f5d9a",
    "i28": "33b52281f153b1622fe103c6e965a0529cca3e2410a156aece5e8b6b8bd456bd",
}
SIMULATE_SHA256 = {
    "i26": "030e88f60a4720712cdd972bff15f5c44fab435f1dd7c8eb644c992bd1417c37",
    "i28": "60a050d4b041f79f1e83d23a81ef8ba3ec03a7f643c8b23b2c90e9b157cbf3b0",
}


def stdout_sha256(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_sampled_sweep(capsys, tag):
    digest = stdout_sha256(capsys, "sweep", "--inequality", tag, *SWEEP_ARGS)
    assert digest == SWEEP_SHA256[tag]


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_simulate(capsys, tag):
    digest = stdout_sha256(capsys, "simulate", "--inequality", tag, *SIMULATE_ARGS)
    assert digest == SIMULATE_SHA256[tag]
