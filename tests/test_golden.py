"""Byte-level goldens for the sampled and the analytic paths.

The digests pin the exact stdout of a corrected sampled sweep and of a
corrected single-angle simulation for both inequalities, of a raw
(uncorrected) JSON sweep of two sweep blocks at the largest seed and of a
raw simulation, of the numpy-free subcommands: the analytic sweep,
``thresholds`` and ``report``, and of ``verify``'s grid scan at four angles
for both inequalities.
The settings of sweep step k draw in order from one stream,
SeedSequence([seed, k]), and ``simulate`` is step 0, so the sweep's header
and first row are pinned on their own too: they stay fixed while the
streams of later steps do not.
The corrected goldens are pinned once more with every field that depends
on the corrected estimator removed (its values, sigmas, sigmas of
violation, and a corrected sweep's verdict columns), so a change to that
estimator moves only the full digests, the sweep's step-0 row included.
None of them has a clip event, so the clip counts of a corrected
simulation at V = 1 and phi = 10 degrees are pinned as numbers.
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

# the corrected goldens without the fields that depend on the corrected estimator
STRIPPED_SWEEP_SHA256 = {
    "i26": "4b4253f29b9bb29b04006ed2d791acf35ba4308df1516803c5ddf14369a8b0f5",
    "i28": "e8fd587149f5336fe1cb0e00af508f3d5760d32a74df3401064370c6022f1bde",
}
STRIPPED_SIMULATE_SHA256 = {
    "i26": "b048ceb6cfddc79a62d5f961346b1bafc3abb0155ea680667504c4df810f8cc9",
    "i28": "bcd64b4225426bb5c6b6a23b848d5bbd7947508a3d326aa48a9559aea721242d",
}
# a corrected sweep's verdict columns are read from its corrected values
CORRECTED_COLUMNS = (
    "I_corrected", "sigma_corrected", "sigmas_violation_corrected", "violated", "marginal",
)
# raw: no --correct; 130 steps are two sweep blocks, at the largest seed
RAW_SWEEP_ARGS = ("--format", "json", "--steps", "130", "--shots", "1000", "--seed", "4294967295")
RAW_SIMULATE_ARGS = ("--phi", "36.87", "--shots", "100000", "--seed", "4")

SWEEP_SHA256 = {
    "i26": "d2a837ddb28a59ab65bf1fe8962c972358af61d0c88f8c8e6c4ff8b5a07c6fd0",
    "i28": "ea95c0342ad321564e16c0a5406f14569a8837c65007e3e471434852b50aa0a7",
}
# header plus the step-0 row of the sampled sweep: step 0 draws the same
# streams as ``simulate``
SWEEP_STEP0_SHA256 = {
    "i26": "adb2b5f36eec2814fb588088b44d99cdf9d9555cc2cedb42dee8d5c3181f8457",
    "i28": "9451afc3e6dc93c5883f7614b8aaa9234e768052cfee5e8ffcddd352e607bc68",
}
SIMULATE_SHA256 = {
    "i26": "f4b177361c70218970db06a288945bbfb92893e864622fcddc765eeb9fc1b588",
    "i28": "1f4352b225a901f2417358cc755c4b61092196a80507d1f6e779bc8da33d2432",
}
RAW_SWEEP_SHA256 = {
    "i26": "98f27afb588ecaa63ce5b112254b939a3c1c1b5eddea277cad626a16c04b4a3f",
    "i28": "10f6e22e8c6ff5bec2b14abcd51dd2185dacdbcf232c8eedc0434c7a7fdd4b53",
}
RAW_SIMULATE_SHA256 = {
    "i26": "f7eaac2ec8098306ea2520d3e451215a78c483581f41c8923e6315beb27ea1ce",
    "i28": "9429b37498b34852d05a4ab0e174bb1e7fe8ac1894078ae29503cf08d9fb908c",
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
# at V = 1 and phi = 10 degrees R^-1 f leaves the probability simplex for
# some settings; the corrected goldens above have no clip events
CLIP_ARGS = (
    "--visibility", "1", "--phi", "10", "--shots", "1000", "--seed", "3", "--correct",
    "--f0-nuclear", "0.97", "--f1-nuclear", "0.95", "--f0-electron", "0.96",
    "--f1-electron", "0.94",
)
CLIP_EVENTS = {"i26": 6, "i28": 7}


def stdout_of(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_sha256(capsys, *argv) -> str:
    return sha256(stdout_of(capsys, *argv))


def without_corrected_columns(csv_text: str) -> str:
    """The CSV without the columns named in CORRECTED_COLUMNS."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in CORRECTED_COLUMNS]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)


def without_corrected_keys(json_text: str) -> str:
    """The simulate JSON without its corrected keys, top level and per setting."""
    data = json.loads(json_text)
    del data["corrected"], data["sigma_corrected"], data["sigmas_violation_corrected"]
    for setting in data["settings"]:
        del setting["c_corrected"], setting["sigma_corrected"]
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
    assert sha256(without_corrected_columns(out)) == STRIPPED_SWEEP_SHA256[tag]


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_simulate_without_corrected_sigma(capsys, tag):
    out = stdout_of(capsys, "simulate", "--inequality", tag, *SIMULATE_ARGS)
    assert sha256(without_corrected_keys(out)) == STRIPPED_SIMULATE_SHA256[tag]


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


@pytest.mark.parametrize("tag", ["i26", "i28"])
def test_clip_events(capsys, tag):
    data = json.loads(stdout_of(capsys, "simulate", "--inequality", tag, *CLIP_ARGS))
    assert data["clip_events"] == CLIP_EVENTS[tag]


def test_report(capsys):
    assert stdout_sha256(capsys, "report") == REPORT_SHA256
