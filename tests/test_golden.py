"""Byte-level goldens for the sampled and the analytic paths.

The digests pin the exact stdout of a corrected sampled sweep and of a
corrected single-angle simulation for both inequalities, and of the
numpy-free subcommands: the analytic sweep, ``thresholds`` and ``report``,
and of ``verify``'s grid scan at four angles for both inequalities.
Setting i of sweep step k samples from SeedSequence([seed, i, k]) and
``simulate`` is step 0, so the sweep's header and first row are pinned on
their own too: they stay fixed while the streams of later steps do not.
A change that reorders a floating-point operation, alters seeding or
touches the output format shows up here.  They were recorded with numpy
2.4; numpy may change its Generator streams between releases, which would
also move them.
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
    "i26": "28c6ca07e163832c78f6b490a456bf353fbb84cafcfd8c77949d455aa764e2d1",
    "i28": "d017ab101199cc9198b9500601d1cff1183155476b948c316dddb947824adb85",
}
# header plus the step-0 row of the sampled sweep: step 0 draws the same
# streams as ``simulate``
SWEEP_STEP0_SHA256 = {
    "i26": "bf1c9fea27ab89456b354b0c1770ef0e90b9d159898426826d59f5b750508020",
    "i28": "cc0766950a6c47ed46cfcd877738655fe1aca8498c5aa08a5245c6635e7b627f",
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
VERIFY_ARGS = (
    "--phi", "0", "--phi", "36.87", "--phi", "44.42", "--phi", "90", "--grid-size", "500",
)
VERIFY_SHA256 = {
    "i26": "a1fe3b8c4e7f9672b622542b50e6bef59d003def7f0f9cd263ad0a2a049fc56a",
    "i28": "e7578472bb8ad8182a828c30a99f56f4b11cc0306c0a7eed085915b8355c70ed",
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
def test_sampled_sweep_step0(capsys, tag):
    assert main(["sweep", "--inequality", tag, *SWEEP_ARGS]) == 0
    head = "".join(capsys.readouterr().out.splitlines(keepends=True)[:2])
    assert hashlib.sha256(head.encode()).hexdigest() == SWEEP_STEP0_SHA256[tag]


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


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_verify(capsys, tag):
    digest = stdout_sha256(capsys, "verify", "--inequality", tag, *VERIFY_ARGS)
    assert digest == VERIFY_SHA256[tag]


def test_report(capsys):
    assert stdout_sha256(capsys, "report") == REPORT_SHA256
