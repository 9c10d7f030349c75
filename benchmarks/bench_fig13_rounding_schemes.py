"""Fig. 13 — accuracy vs memory for different rounding schemes.

Paper: for ShallowCaps on MNIST and Fashion-MNIST, models quantized
with stochastic rounding (SR) hold their accuracy at lower memory than
truncation (TRN) and round-to-nearest (RTN), while "truncation and
round-to-nearest schemes return identical results" (Sec. IV-C) because
they differ only on exact half-way values.

Here: uniform quantization sweeps (same memory usage across schemes at
each point) on SynthDigits and SynthFashion.  Reproduced shape: all
schemes agree at high wordlengths; at the low-memory end SR's accuracy
is at least that of TRN/RTN on average, and TRN ≈ RTN everywhere.
"""

import numpy as np
from conftest import emit

from repro.baselines import uniform_ptq_accuracy
from repro.quant import calibrate_scales, get_rounding_scheme

BITS_SWEEP = (8, 6, 5, 4, 3, 2)
SCHEMES = ("TRN", "RTN", "SR")


def _sweep(model, test, fp32_acc, dataset_name):
    scales = calibrate_scales(model, test.images)
    rows = {scheme: [] for scheme in SCHEMES}
    lines = [
        f"{dataset_name} (FP32 acc {fp32_acc:.2f}%)",
        f"{'bits':>5} {'W mem red.':>11} "
        + " ".join(f"{s:>8}" for s in SCHEMES),
    ]
    for bits in BITS_SWEEP:
        reduction = 32 / (bits + 1)
        accs = []
        for scheme_name in SCHEMES:
            acc = uniform_ptq_accuracy(
                model, test.images, test.labels, bits,
                scheme=get_rounding_scheme(scheme_name, seed=0),
                scales=scales,
            )
            rows[scheme_name].append(acc)
            accs.append(acc)
        lines.append(
            f"{bits:>5} {reduction:>10.2f}x "
            + " ".join(f"{a:>7.2f}%" for a in accs)
        )
    return rows, "\n".join(lines)


def _check_shape(rows):
    trn = np.array(rows["TRN"])
    rtn = np.array(rows["RTN"])
    sr = np.array(rows["SR"])
    # All schemes coincide while the wordlength is comfortable.
    high = slice(0, 2)  # bits 8, 6
    assert np.abs(trn[high] - rtn[high]).max() < 5.0
    assert np.abs(sr[high] - rtn[high]).max() < 5.0
    # The paper's central Fig. 13 claim: at the low-memory end the
    # unbiased stochastic rounding dominates the simpler schemes.
    low = slice(3, None)  # bits 4, 3, 2
    assert sr[low].mean() >= rtn[low].mean() - 1.0
    assert sr[low].mean() >= trn[low].mean()
    # Deviation from the paper, which reports TRN and RTN as identical:
    # faithful floor-truncation carries a -eps/2 bias that compounds
    # through deep capsule stacks, so TRN can only be *worse or equal*,
    # never better, at low wordlengths.
    assert trn[low].mean() <= rtn[low].mean() + 1.0


def test_fig13_digits(shallow_digits, digits_data, benchmark):
    model, fp32_acc = shallow_digits
    _, test = digits_data
    rows, table = _sweep(model, test, fp32_acc, "SynthDigits")
    emit("fig13_rounding_digits", table)
    _check_shape(rows)

    scales = calibrate_scales(model, test.images)
    benchmark.pedantic(
        lambda: uniform_ptq_accuracy(
            model, test.images[:128], test.labels[:128], 4,
            scheme=get_rounding_scheme("SR", seed=0), scales=scales,
        ),
        rounds=3,
        iterations=1,
    )


def test_fig13_fashion(shallow_fashion, fashion_data, benchmark):
    model, fp32_acc = shallow_fashion
    _, test = fashion_data
    rows, table = _sweep(model, test, fp32_acc, "SynthFashion")
    emit("fig13_rounding_fashion", table)
    _check_shape(rows)

    scales = calibrate_scales(model, test.images)
    benchmark.pedantic(
        lambda: uniform_ptq_accuracy(
            model, test.images[:128], test.labels[:128], 4,
            scheme=get_rounding_scheme("TRN"), scales=scales,
        ),
        rounds=3,
        iterations=1,
    )
