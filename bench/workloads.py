"""
The benchmark's workloads: the CLI commands that one round runs, in order
before the seed shuffles them.  Every input is a fixed lattice by the paper's
design, so the seed only sets the command order.  bench/README.md says why
each workload was chosen and which layers it loads.
"""

WORKLOADS = {
    # Batch kernel and counterexample layers; n = 6 (N = 4096, P = 5184)
    # puts each kernel matrix beyond the last-level cache.
    "scale-survey": (
        ("lemma", "--n", "3,4,5,6"),
        ("growth", "--n", "3,4,5,6,7,8"),
        ("measure", "--n", "3,4,5,6,7,8,9,10"),
    ),
    # Grid, Fourier, mean and Orlicz layers at G = 1024; no kernel layer.
    "spectral-grid": (
        ("converge", "--grid-size", "1024"),
        ("orlicz", "--grid-size", "1024"),
    ),
    # Scalar kernel path: 7 orders x 1024 points, one call per point.
    "pointwise-verify": (
        ("kernel-verify", "--samples", "32"),
    ),
}
