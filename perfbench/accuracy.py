"""The model's error against the paper's evaluation figures.

Figs. 6 and 7 report the average ours/cuBLAS speedup over the square
sweep W = 1024..16384 (step 256).  They were held back from calibration
(DESIGN.md section 2: the simulator's constants come from the paper's
microbenchmarks, Tables I-V), so this is the model's error on data it was
not tuned on.
"""

from __future__ import annotations

#: The paper's square sweep (Section VII).
PAPER_SIZES = tuple(range(1024, 16385, 256))

#: Average ours/cuBLAS speedup reported by the paper: Fig. 6 (RTX 2070)
#: and Fig. 7 (T4).
PAPER_SPEEDUP = {"RTX2070": 1.55, "T4": 1.53}


def modelled_speedups(models: dict = None) -> dict:
    """Modelled average ours/cuBLAS speedup per paper device.

    *models* maps a device name to a warm ``PerformanceModel``; devices
    not given get a fresh one (its profiles come from the result cache
    when warm, else from the timing simulator).
    """
    from repro.analysis import PerformanceModel
    from repro.arch import get_device
    from repro.core import cublas_like, ours

    out = {}
    for device in PAPER_SPEEDUP:
        pm = (models or {}).get(device) or PerformanceModel(get_device(device))
        mine = pm.sweep(ours(), PAPER_SIZES)
        base = pm.sweep(cublas_like(), PAPER_SIZES, baseline_quirks=True)
        ratios = [o.tflops / b.tflops for o, b in zip(mine, base)]
        out[device] = sum(ratios) / len(ratios)
    return out


def speedup_error(speedups: dict) -> float:
    """Mean relative error of the modelled speedups against the paper."""
    errs = [abs(speedups[d] - paper) / paper
            for d, paper in PAPER_SPEEDUP.items()]
    return sum(errs) / len(errs)
