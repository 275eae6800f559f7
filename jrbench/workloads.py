"""The benchmark's workloads: frozen copies of the bundled preset configs.

Each workload copies its preset's config literally instead of calling
``jointrec.experiments.get_preset``, so that a later edit to a preset
cannot silently change what the benchmark measures.  Only the trial count
differs from the preset: one ``run_experiment`` call (a "repeat") runs
``trials`` trials per sweep cell, and a benchmark run repeats it until its
time is up.
"""

from __future__ import annotations

from dataclasses import dataclass

_GAUSSIAN_2D_32 = {"variant": "gaussian_2d", "width": 32, "height": 32,
                   "n_theta": 7, "sx_values": [2.0, 4.0],
                   "sy_values": [0.5, 1.0], "translations": "odd"}

_GABOR_1D = {"variant": "gabor_1d", "length": 1000, "t_start": 1,
             "t_step": 10, "scales": [4.0, 8.0, 16.0],
             "omegas": [2.0, 4.0, 6.0, 8.0, 10.0], "include_negated": True}

_GRID_OFFSETS_2D = [[dx, dy] for dx in (-2, 0, 2) for dy in (-2, 0, 2)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config`` is an ``ExperimentConfig`` mapping without ``trials``,
    ``master_seed`` and ``output_dir``, which the benchmark fills in.
    ``algorithms`` lists the decoders the experiment kind runs, in run
    order; the end-to-end metrics call them decoder1 and decoder2.
    ``digests`` maps a trial count to the sha256 digests of trials.csv and
    results.csv at ``default_seed`` (see ``harness.csv_digest``).
    """

    name: str
    config: dict
    algorithms: tuple[str, str]
    trials: int
    default_seed: int
    digests: dict

    def sweep_cells(self) -> list[tuple[int, int]]:
        """(views J, measurements M) of every sweep cell, in sweep order."""
        views, ms = self.config["views"], self.config["measurements"]
        if isinstance(views, list):
            return [(j, ms) for j in views]
        if isinstance(ms, list):
            return [(views, m) for m in ms]
        return [(views, ms)]


WORKLOADS = {w.name: w for w in (
    # preset transform-error-vs-m: exhaustive jt over 729 candidate
    # vectors, so candidate scoring dominates
    Workload(
        name="jt-scan",
        config={"kind": "transform-error-vs-M",
                "dictionary": _GAUSSIAN_2D_32, "sparsity": 5, "views": 4,
                "measurements": [40, 60, 80, 100, 120, 150],
                "candidate_offsets": _GRID_OFFSETS_2D,
                "coeff_range": [0.9, 1.1]},
        algorithms=("jt", "gjt"),
        trials=1,
        default_seed=70011,
        digests={
            1: {"trials": "b38ad69b8232263e01e87210ac7d378d5a51774701ac7e7a77657071bd77a1df",
                "results": "d2b96d85baf6c2ee519ec83be7be039f92bd6b128435acefec4e81df61e4d174"},
        },
    ),
    # preset recovery-vs-views: set-up with 4 candidate realizations and
    # rejection sampling dominate; jt never runs
    Workload(
        name="view-sweep",
        config={"kind": "recovery-vs-J", "dictionary": _GAUSSIAN_2D_32,
                "sparsity": 5, "views": [2, 5, 10, 20], "measurements": 150,
                "candidate_offsets": _GRID_OFFSETS_2D,
                "coeff_range": [0.9, 1.1]},
        algorithms=("gjt", "it"),
        trials=2,
        default_seed=70021,
        digests={
            1: {"trials": "45b45af76f67028b3f1f77bbf27304a2281b0fdfdde16a720bd451ac09236e86",
                "results": "0ad31f78691cd6b5cc85cda3b7f962fdddf967735e7a214876d89529066d456d"},
            2: {"trials": "1a05b8e48054666cf6055de529666ea94064aff3e3bdab80ae8f6a94670e74a8",
                "results": "d605f2ee6993b9e5e565b807f1c82eb3fc976c7b924412d82fe7d98478802bdc"},
        },
    ),
    # preset two-view-1d: short trials dominated by least squares and
    # sensing draws; candidate scoring is bypassed
    Workload(
        name="two-view-1d",
        config={"kind": "two-view-1d", "dictionary": _GABOR_1D,
                "sparsity": 50, "views": 2, "measurements": 150,
                "candidate_offsets": [-10, 0, 10],
                "require_margin": False, "require_positivity": False},
        algorithms=("jt", "it"),
        trials=30,
        default_seed=70031,
        digests={
            1: {"trials": "f7e9e918f491cc93da6ef86c4f9e05adf1d6104ab626d94bb175f0160b91d87f",
                "results": "2d979afc910599319531d00b8011da761f0ec08427a4ad3a41d54792a46c9724"},
            30: {"trials": "5c0b2947ac7a87137b7a63ac11dea53ce114b3d3c168950b1311bb1b3c89c2c3",
                "results": "395e6100bd7caad44d0f2edc7e1efbcfa2aab5b12433957757212cb740bb8317"},
        },
    ),
)}
