"""Byte-level goldens for the sampled and the analytic paths.

The digests pin the exact stdout of a corrected sampled sweep and of a
corrected single-angle simulation for both inequalities, of a raw
(uncorrected) JSON sweep of two sweep blocks at the largest seed and of a
raw simulation, of the numpy-free subcommands: the analytic sweep,
``thresholds`` and ``report``, and of ``verify``'s grid scan at four angles
for both inequalities.
Setting i of sweep step k samples from SeedSequence([seed, i, k]) and
``simulate`` is step 0, so the sweep's header and first row are pinned on
their own too: they stay fixed while the streams of later steps do not.
The corrected goldens are pinned once more with their corrected-sigma
fields removed, so a change to how that sigma is computed moves only the
full digests.
A change that reorders a floating-point operation, alters seeding or
touches the output format shows up here.  They were recorded with numpy
2.4; numpy may change its Generator streams between releases, which would
also move them.
"""

import hashlib
import json

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

# the corrected goldens without the fields that depend on the corrected sigma
STRIPPED_SWEEP_SHA256 = {
    "i26": "a4796a7cffd5259c75ea13d7988eb6204ffb4dbcf8a567f2bcf4abbaea81d8ad",
    "i28": "39441434321004f55f6fe83c9a2c4ea416188912ffe28594175278fee983a34d",
}
STRIPPED_SIMULATE_SHA256 = {
    "i26": "9c77390df83cdb32fd3b33d882ae46f21243a3370c77580ade9caf394d525bad",
    "i28": "56987a3754d14fc495180295d04bf47b368438940d0a8b16342a4f9d95fc06f4",
}
SIGMA_COLUMNS = ("sigma_corrected", "sigmas_violation_corrected", "marginal")
# raw: no --correct; 130 steps are two sweep blocks, at the largest seed
RAW_SWEEP_ARGS = ("--format", "json", "--steps", "130", "--shots", "1000", "--seed", "4294967295")
RAW_SIMULATE_ARGS = ("--phi", "36.87", "--shots", "100000", "--seed", "4")

SWEEP_SHA256 = {
    "i26": "325e9f0911029957844e63bf2daaf63308795fddf8eed8831638f6d9a4de49c2",
    "i28": "81d0a9cf05295c8078e3e1469876f465d452fe750210c7fa53c52c54373720d1",
}
# header plus the step-0 row of the sampled sweep: step 0 draws the same
# streams as ``simulate``
SWEEP_STEP0_SHA256 = {
    "i26": "1b58989aa33ab84ccb6da0dcab9d266437a680bf52a3ac88fb47eafb0d85fcef",
    "i28": "1d5b01e8f91b243655a6bf21197c71d6859e886380b9694e31bacd9742af1c15",
}
SIMULATE_SHA256 = {
    "i26": "c011ee27cad0fc9994b42a2ceaf3ddb460b0fb31121c83afe96678cb9f8dda24",
    "i28": "27b394da2b5b224f5fd6c216901d0fbd094382d54a591b0e6188106e8cc2c1c3",
}
RAW_SWEEP_SHA256 = {
    "i26": "21d33a69364c749dbd3893da10669948900b5fa384af50a3aa172016259dbf79",
    "i28": "fc3273203edf370fa5ca72d988600df47b57824087eeb412a8cfced1101b92cd",
}
RAW_SIMULATE_SHA256 = {
    "i26": "a143b02199fce6c5a1e8aa1a3f41fe7d369fb9b7f1b7bb9723001c3379004e12",
    "i28": "c80ebea4792e5f2242b0619f4768b19c9906dd6bbb38601ff30e77e275cf9f3b",
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


def stdout_of(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_sha256(capsys, *argv) -> str:
    return sha256(stdout_of(capsys, *argv))


def without_sigma_columns(csv_text: str) -> str:
    """The CSV without the columns named in SIGMA_COLUMNS."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in SIGMA_COLUMNS]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)


def without_sigma_keys(json_text: str) -> str:
    """The simulate JSON without its corrected-sigma keys, top level and per setting."""
    data = json.loads(json_text)
    del data["sigma_corrected"], data["sigmas_violation_corrected"]
    for setting in data["settings"]:
        del setting["sigma_corrected"]
    return json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_sampled_sweep(capsys, tag):
    digest = stdout_sha256(capsys, "sweep", "--inequality", tag, *SWEEP_ARGS)
    assert digest == SWEEP_SHA256[tag]


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_sampled_sweep_step0(capsys, tag):
    assert main(["sweep", "--inequality", tag, *SWEEP_ARGS]) == 0
    head = "".join(capsys.readouterr().out.splitlines(keepends=True)[:2])
    assert sha256(head) == SWEEP_STEP0_SHA256[tag]


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_simulate(capsys, tag):
    digest = stdout_sha256(capsys, "simulate", "--inequality", tag, *SIMULATE_ARGS)
    assert digest == SIMULATE_SHA256[tag]


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_sampled_sweep_without_corrected_sigma(capsys, tag):
    out = stdout_of(capsys, "sweep", "--inequality", tag, *SWEEP_ARGS)
    assert sha256(without_sigma_columns(out)) == STRIPPED_SWEEP_SHA256[tag]


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_simulate_without_corrected_sigma(capsys, tag):
    out = stdout_of(capsys, "simulate", "--inequality", tag, *SIMULATE_ARGS)
    assert sha256(without_sigma_keys(out)) == STRIPPED_SIMULATE_SHA256[tag]


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_raw_sweep(capsys, tag):
    digest = stdout_sha256(capsys, "sweep", "--inequality", tag, *RAW_SWEEP_ARGS)
    assert digest == RAW_SWEEP_SHA256[tag]


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_raw_simulate(capsys, tag):
    digest = stdout_sha256(capsys, "simulate", "--inequality", tag, *RAW_SIMULATE_ARGS)
    assert digest == RAW_SIMULATE_SHA256[tag]


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
