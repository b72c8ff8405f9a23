"""Fixed-seed CLI outputs pinned by their full SHA-256.

Each command runs in a temporary working directory with relative paths,
because the CSV header echoes ``--input``.  One worker runs where a case
targets a code path, two where it checks that the worker count changes
no byte.
"""

import hashlib
import os

import pytest

from aniso3d.cli import main

PLCPP = ["--model", "plcpp", "--rho", "500", "--rho-l", "200", "--sigma", "0.001"]
PACKING = ["--model", "packing", "--rho", "500", "--hardcore-r", "0.05", "--compress-c", "0.7"]
MATERN = ["--model", "matern", "--rho", "500", "--hardcore-r", "0.05", "--compress-c", "0.7"]
POISSON = ["--model", "poisson", "--rho", "500"]
UNCOMPRESSED_MATERN = ["--model", "matern", "--rho", "500", "--hardcore-r", "0.05"]


def run_here(path, monkeypatch, *argv):
    monkeypatch.chdir(path)
    assert main([str(a) for a in argv]) == 0


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def directory_sha256(path):
    """The sorted names and bytes of a directory's files, as perfbench/run.py's
    ``digest`` hashes an output directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        h.update((path / name).read_bytes())
    return h.hexdigest()


CAMPAIGN_SHA256 = "2653874c5fa38913f1270c3bc66559fe8d4f9e5ca9d412faeb0ca1ef9ba96e4b"


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    """The m = 60 compressed Matérn campaign, simulated with two workers."""
    path = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        run_here(path, mp, "simulate", *MATERN, "--m", "60", "--seed", "20161",
                 "--out", "campaign", "--threads", "2")
    return path


def test_campaign_files_with_two_workers(campaign_dir):
    # the pool jobs write the pattern files, and the main process the manifest
    assert directory_sha256(campaign_dir / "campaign") == CAMPAIGN_SHA256


def test_campaign_files_with_one_worker(tmp_path, monkeypatch):
    run_here(tmp_path, monkeypatch, "simulate", *MATERN, "--m", "60", "--seed", "20161",
             "--out", "campaign", "--threads", "1")
    assert directory_sha256(tmp_path / "campaign") == CAMPAIGN_SHA256


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model, digest", [
    (POISSON, "fe66b53d899cec17f95f29b11861ca57030ec816c43c9c632afb67353f990d00"),
    (UNCOMPRESSED_MATERN, "5138ec756e385cbbb99ea6720eaa7017a2737c705fb7c3222bd75fbf7fb4d88d"),
], ids=["poisson", "uncompressed-matern"])
def test_small_campaign_files(tmp_path, monkeypatch, model, digest, threads):
    # the only golden outputs of the Poisson simulator and of the Matérn draws
    # without compression
    run_here(tmp_path, monkeypatch, "simulate", *model, "--m", "8", "--seed", "20161",
             "--out", "campaign", "--threads", threads)
    assert directory_sha256(tmp_path / "campaign") == digest


def test_columnar_sweep_power(tmp_path, monkeypatch):
    # four aspects and both kinds: the kernel's union of a cone and a cylinder
    run_here(tmp_path, monkeypatch, "power", *PLCPP, "--m", "60",
             "--aspect", "1.5,2,2.5,3", "--r2-grid", "0.002:0.1:25", "--kind", "both",
             "--seed", "20161", "--out", "power.csv", "--threads", "1")
    assert sha256(tmp_path / "power.csv") == (
        "771492ed7b4d0f6641d4b07ecb874793af07b8f3d1bb12c93de72d1ffcdf3004")


def test_packing_power(tmp_path, monkeypatch):
    # perfbench's packing-power command: the only output that runs the packer's
    # periodic close_pairs
    run_here(tmp_path, monkeypatch, "power", *PACKING, "--m", "16", "--aspect", "2",
             "--r2-grid", "0.02:0.14:25", "--kind", "both", "--seed", "20161",
             "--out", "power.csv", "--threads", "1")
    assert sha256(tmp_path / "power.csv") == (
        "ff0319a3ef57556a1d40873c5a32dba1dd539c04bae7f3e0320bcbb6b703cf9b")


def test_disk_campaign_estimate(campaign_dir, monkeypatch):
    # perfbench's disk-campaign estimate command
    run_here(campaign_dir, monkeypatch, "estimate", "--input", "campaign", "--kind", "both",
             "--aspect", "2", "--r-max", "0.1", "--grid", "512", "--out", "estimate.csv",
             "--threads", "1")
    assert sha256(campaign_dir / "estimate.csv") == (
        "508490873247eaf7cc23d5b77f818163572c8b82a8409af3d94d6791dcc3dd7c")


def test_disk_campaign_test(campaign_dir, monkeypatch):
    # perfbench's disk-campaign test command
    run_here(campaign_dir, monkeypatch, "test", "--input", "campaign", "--kind", "both",
             "--aspect", "2", "--r2-grid", "0.02:0.1:25", "--out", "test.csv", "--threads", "1")
    assert sha256(campaign_dir / "test.csv") == (
        "e6a5314128b249dc1e17f6a03991d2883d7a9e3929e09cde7bf451312e213d17")


def test_campaign_estimate(campaign_dir, monkeypatch):
    # both kinds on two axes, at the default radius grid
    run_here(campaign_dir, monkeypatch, "estimate", "--input", "campaign", "--aspect", "3",
             "--directions", "z,x", "--out", "e3.csv", "--threads", "1")
    assert sha256(campaign_dir / "e3.csv") == (
        "3b09173a72092ab1b506be45ba27f205e61b934280dd0e04a26bf8f1b04a706c")


def test_campaign_conical_test_with_two_workers(campaign_dir, monkeypatch):
    # one kind, so the union is the cone alone
    run_here(campaign_dir, monkeypatch, "test", "--input", "campaign", "--kind", "conical",
             "--aspect", "1.5,2.5", "--r2-grid", "0.02:0.1:25", "--out", "t2.csv",
             "--threads", "2")
    assert sha256(campaign_dir / "t2.csv") == (
        "c5bd2817115674ba0e6888e68a8b6cd2cbfb9ec8a14798ea9b77b65911c795b7")
