"""Golden trajectory: a tiny seeded single-thread ``gclrec train`` run
reproduces recorded outputs byte for byte.

A change to the numerics either keeps these bytes or re-records them
and says why in CHANGES.md.  The recorded values hold only for the
numpy, BLAS and CPU they were recorded with: OpenBLAS picks its kernels
from the CPU at run time, so another machine may fail with the same
library versions.  The failure message names the numpy, BLAS, OpenBLAS
kernel and CPU in use and those the values were recorded with.
"""

import ctypes
import hashlib
import platform
from pathlib import Path

import numpy as np

from gclrec.trainer import TrainConfig

from conftest import random_interactions, train_process, write_config

EXPECTED_HISTORY = """\
epoch,rec,cl,recon,ddl,reg,total,recall20,ndcg20
1,0.64684432336142,1.5349492817212107,0.5835841462165958,0.0013345884717472498,0.0011467553700983447,2.767859095141072,,
2,0.6589724571517904,1.5808678036639519,0.49769173786692544,0.0013358888732477037,0.0011250409334745235,2.73999292848939,0.9736842105263158,0.4152723536938396
3,0.6686740047466925,1.6056762848688066,0.512138682456795,0.0013484136525427012,0.0010883423992163546,2.788925728124054,,
4,0.6551865800321783,1.5168501228649973,0.46382751613060025,0.0013602849577109795,0.0010804861993986396,2.6383049901848854,0.9736842105263158,0.4156449511334295
"""
EXPECTED_METRICS = """\
fold,k,precision,recall,ndcg,users_evaluated,users_skipped
0,5,0.10526315789473684,0.28947368421052627,0.17399841755616993,19,1
0,10,0.12631578947368424,0.618421052631579,0.30598721130911805,19,1
0,20,0.10000000000000002,0.9736842105263158,0.4152723536938396,19,1
"""
EXPECTED_CHECKPOINT_SHA256 = (
    "4fbaf040ab000296fee254e673d10b0efb733bf6b2ad23bf1550c4f0fb1b8530")


RECORDED_ON = ("numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0, "
               "OpenBLAS kernel SkylakeX, CPU x86_64")


def _blas():
    try:
        info = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # older numpy only prints its configuration
        return "?"
    blas = info.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _openblas_kernel():
    """Name of the kernel set OpenBLAS chose for this CPU, if the
    OpenBLAS bundled with numpy can be asked; otherwise '?'."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "?"


def _where():
    """Built only when an assertion fails."""
    return (f"here numpy {np.__version__}, BLAS {_blas()}, OpenBLAS kernel "
            f"{_openblas_kernel()}, CPU {platform.machine()}; the expected "
            f"values were recorded with {RECORDED_ON}")


def golden_run(tmp_path):
    """Train fold 0 of a small generated log in a fresh single-thread
    process; returns the output directory."""
    data = random_interactions(20, 24, density=0.25, seed=3, min_per_user=3)
    log = tmp_path / "ratings.txt"
    log.write_text("".join(f"{u} {i}\n" for u, i in data.pairs.tolist()))
    cfg = TrainConfig(data_path=str(log), d=8, h=8, L=2, gamma=2.0,
                      batch_size=32, epochs_max=4, eval_interval=2, folds=3,
                      seed=5)
    cfg.validate()
    cfg_path = tmp_path / "golden.cfg"
    write_config(cfg_path, cfg)
    out = tmp_path / "out"
    train_process("--config", str(cfg_path), "--out", str(out))
    return out


def test_train_reproduces_golden_trajectory(tmp_path):
    out = golden_run(tmp_path)
    history = (out / "history.csv").read_text()
    metrics = (out / "metrics.csv").read_text()
    digest = hashlib.sha256((out / "checkpoint.npz").read_bytes()).hexdigest()
    assert history == EXPECTED_HISTORY, f"history.csv differs ({_where()})"
    assert metrics == EXPECTED_METRICS, f"metrics.csv differs ({_where()})"
    assert digest == EXPECTED_CHECKPOINT_SHA256, \
        f"checkpoint SHA-256 differs ({_where()})"
