"""Optional static chart emission (requires matplotlib).

Four chart families mirror the usual diagnostics: per-cycle production and
its split with the production/demand ratio overlaid, the trunk profile,
ring-diameter trajectories of instrumented growth units, and a
predicted-vs-observed scatter after a fit.
"""

from __future__ import annotations

import os

from .calibration import FitResult
from .core import ValidationError
from .engine import SimulationOutput

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    HAVE_MATPLOTLIB = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_MATPLOTLIB = False


def require_matplotlib() -> None:
    """Raise ValidationError naming the ``plots`` extra unless matplotlib
    imported."""
    if not HAVE_MATPLOTLIB:
        raise ValidationError(
            "--plots needs matplotlib: install the 'plots' extra, "
            "pip install 'treesink[plots]'")


def _save(fig, out_dir, name) -> str:
    """Lay out, write and close ``fig`` as ``out_dir/name``."""
    fig.tight_layout()
    path = os.path.join(out_dir, name)
    fig.savefig(path)
    plt.close(fig)
    return path


def write_simulation_plots(out_dir, output: SimulationOutput) -> list[str]:
    require_matplotlib()
    os.makedirs(out_dir, exist_ok=True)

    cycles = [a.cycle for a in output.allocations]
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(cycles, [a.q for a in output.allocations], label="production")
    ax.plot(cycles, [a.q_s for a in output.allocations], label="new shoots")
    ax.plot(cycles, [a.q_r for a in output.allocations], label="rings")
    ax.set_xlabel("growth cycle")
    ax.set_ylabel("biomass (g)")
    ax2 = ax.twinx()
    ax2.plot(cycles, [a.ratio for a in output.allocations], "k--",
             label="production/demand")
    ax2.set_ylabel("production/demand (g)")
    lines, labels = ax.get_legend_handles_labels()
    lines2, labels2 = ax2.get_legend_handles_labels()
    ax.legend(lines + lines2, labels + labels2, loc="upper left",
              fontsize="small")
    written = [_save(fig, out_dir, "cycles.svg")]

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 4))
    gus = [t.gu_index for t in output.trunk_profile]
    ax1.plot(gus, [t.mass_g for t in output.trunk_profile], "o-")
    ax1.set_xlabel("trunk growth unit")
    ax1.set_ylabel("wood mass (g)")
    ax2.plot(gus, [t.diameter_cm for t in output.trunk_profile], "o-")
    ax2.set_xlabel("trunk growth unit")
    ax2.set_ylabel("external diameter (cm)")
    written.append(_save(fig, out_dir, "trunk.svg"))

    by_gu: dict[int, list] = {}
    for r in output.ring_matrix:
        by_gu.setdefault(r.gu_index, []).append(r)
    fig, ax = plt.subplots(figsize=(7, 4))
    for gu, rows in sorted(by_gu.items()):
        rows.sort(key=lambda r: r.tree_age)
        ax.plot([r.tree_age for r in rows], [r.diameter_cm for r in rows],
                label=f"GU {gu}")
    ax.set_xlabel("tree age (cycles)")
    ax.set_ylabel("diameter (cm)")
    if len(by_gu) <= 14:
        ax.legend(fontsize="x-small", ncol=2)
    written.append(_save(fig, out_dir, "rings.svg"))
    return written


def write_fit_plots(out_dir, result: FitResult) -> list[str]:
    require_matplotlib()
    os.makedirs(out_dir, exist_ok=True)
    fig, ax = plt.subplots(figsize=(5, 5))
    classes = sorted({row.data_class for row in result.predicted_observed})
    for cls in classes:
        obs = [r.observed for r in result.predicted_observed
               if r.data_class == cls]
        sim = [r.simulated for r in result.predicted_observed
               if r.data_class == cls]
        ax.scatter(obs, sim, s=12, label=cls)
    lim = max((max(abs(r.observed), abs(r.simulated))
               for r in result.predicted_observed), default=1.0)
    ax.plot([0, lim], [0, lim], "k:", linewidth=1)
    ax.set_xlabel("observed")
    ax.set_ylabel("simulated")
    ax.legend(fontsize="x-small")
    return [_save(fig, out_dir, "predicted_vs_observed.svg")]
