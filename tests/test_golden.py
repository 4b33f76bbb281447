"""Bit-exactness guard: a fixed miniature run must write the same bytes.

The digests pin the pretrained checkpoint, the last fine-tuning
checkpoint and the report (timings removed) of `micro_config` at an
out-of-class proportion of 0.5 and seed 1, once on the default
consistency backend and once on the hard-pseudo backend (whose weak and
strong views no other test runs end to end).  A change that is meant to
leave every value alone (a faster op, a leaner graph) must keep them;
a change that moves values on purpose re-records them and says why.
"""

import hashlib
import json
import platform
from dataclasses import replace

import numpy as np

from openset_ssl.harness import run_experiment, strip_timings
from test_harness import micro_config

PRETRAINED = "1ff76ab55c39c9a310339bb3ca4f3a31dbbe69cf8a338f8fca2b802b94b0681a"
LAST_CHECKPOINT = "51101964c16b8e691779402597c011035a23db5bf546103f5506c5f5546b7bf1"
REPORT = "e6ffcc4b00e9a6644365cf9d7d3724a54f1b3e71757835bc67ae4df0ada2b57f"

# the same run with ssl.backend="hard-pseudo": pretraining is shared
HARD_PSEUDO_LAST_CHECKPOINT = "a535eb4f09fa33fabd823f77a379680ac68fa958439ed249b01da911f121911b"
HARD_PSEUDO_REPORT = "7199ada09874d3f6224d583193283e146fa9be58dbdd33130a3b6840d30b1956"

RECORDED_ON = (
    "numpy 2.4.6 with OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, "
    "Haswell kernels), Python 3.11, x86_64 Linux"
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _assert_pinned(tmp_path, monkeypatch, config, expected):
    # a relative out_dir keeps the report's echo of it independent of tmp_path
    monkeypatch.chdir(tmp_path)
    run_experiment(config)
    report = strip_timings(json.loads((tmp_path / "run" / "report.json").read_text()))
    found = {
        "pretrained.ckpt": _sha256((tmp_path / "run" / "pretrained.ckpt").read_bytes()),
        "checkpoints/step_000010.ckpt": _sha256(
            (tmp_path / "run" / "checkpoints" / "step_000010.ckpt").read_bytes()
        ),
        "report.json without timings": _sha256(
            json.dumps(report, sort_keys=True).encode("utf-8")
        ),
    }
    changed = sorted(name for name in expected if found[name] != expected[name])
    assert not changed, (
        f"digests of {changed} differ from the pinned ones. They were recorded "
        f"on {RECORDED_ON}; this run has numpy {np.__version__} on "
        f"{platform.machine()} (see numpy.show_config() for its BLAS). "
        "A different numpy or BLAS build may round differently; on the "
        f"recording build a change here means values moved. Found: {found}"
    )


def test_micro_run_digests_are_pinned(tmp_path, monkeypatch):
    expected = {
        "pretrained.ckpt": PRETRAINED,
        "checkpoints/step_000010.ckpt": LAST_CHECKPOINT,
        "report.json without timings": REPORT,
    }
    _assert_pinned(tmp_path, monkeypatch, micro_config("run", seed=1), expected)


def test_hard_pseudo_micro_run_digests_are_pinned(tmp_path, monkeypatch):
    config = micro_config("run", seed=1)
    config = replace(config, ssl=replace(config.ssl, backend="hard-pseudo"))
    expected = {
        "pretrained.ckpt": PRETRAINED,
        "checkpoints/step_000010.ckpt": HARD_PSEUDO_LAST_CHECKPOINT,
        "report.json without timings": HARD_PSEUDO_REPORT,
    }
    _assert_pinned(tmp_path, monkeypatch, config, expected)
