"""Byte-level goldens for the sampled and the analytic paths.

The digests pin the exact stdout of a corrected sampled sweep and of a
corrected single-angle simulation for both inequalities, and of the
numpy-free subcommands: the analytic sweep, ``thresholds`` and ``report``.
A change that
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
# the analytic sweep digest is also pinned by the benchmark's output check
ANALYTIC_SWEEP_SHA256 = "fa2835d10c8d5a272cb990ae28e58c77ae2bdff0f3ab21280eacb87d0dd1b535"
THRESHOLDS_SHA256 = {
    "i26": "4270a957b3f24ac673d290d8e6054b5c692ed6977b238d97481296fbc53af6ed",
    "i28": "ed5f3c4a9f59e9d7f7426db3a7b7f7f3e767e7572125a957e2703b442d29b351",
}
REPORT_SHA256 = "8a80a20772db0d5887648a53e7699d895f08c8e0bb4373b6a675a62a091b1fa0"


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


def test_analytic_sweep(capsys):
    digest = stdout_sha256(capsys, "sweep", "--shots", "0", "--steps", "61")
    assert digest == ANALYTIC_SWEEP_SHA256


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_thresholds(capsys, tag):
    digest = stdout_sha256(capsys, "thresholds", "--inequality", tag)
    assert digest == THRESHOLDS_SHA256[tag]


def test_report(capsys):
    assert stdout_sha256(capsys, "report") == REPORT_SHA256
