"""Batch command-line interface.

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime or
domain errors, i/o errors, and runs that need more memory than the host
gives or numpy allows.
"""

from __future__ import annotations

import json
import sys

import click

from .config import parse_config
from .errors import ConfigError, SimulationError
from .experiments import emit_tables, run

# How numpy refuses an array whose size exceeds its own limits, with a plain
# ValueError, before any allocation is tried.
_NUMPY_SIZE_REFUSALS = ("array is too big", "Maximum allowed dimension exceeded")


@click.group()
def main():
    """Deterministic massive MIMO experiments."""


@main.command(name="run")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment INI file.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--trials", type=int, default=None, help="Override the trial count.")
@click.option("--paper-scale", is_flag=True, help="Use full-scale run parameters as defaults.")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Output directory.")
@click.option("--channels", type=click.Path(), default=None, help="Measured-channel CFCSV file.")
@click.option("--workers", type=int, default=None, help="Worker threads for focusing-map trials; others run in order.")
def run_command(config_path, seed, trials, paper_scale, out_dir, channels, workers):
    """Run one experiment and emit its CSV tables and JSON summary."""
    try:
        config = parse_config(
            config_path,
            seed=seed,
            trials=trials,
            output_dir=out_dir,
            workers=workers,
            paper_scale=paper_scale,
            channels_path=channels,
        )
        result = run(config)
        written = emit_tables(result, config.output_dir)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except SimulationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(3)
    except MemoryError as exc:
        click.echo(f"error: out of memory: {' '.join(str(exc).split()) or 'an allocation failed'}", err=True)
        sys.exit(3)
    except ValueError as exc:
        if not str(exc).startswith(_NUMPY_SIZE_REFUSALS):
            raise
        click.echo(f"error: out of memory: numpy refused an array size: {exc}", err=True)
        sys.exit(3)
    for path in written:
        click.echo(path)


@main.command(name="validate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment INI file.")
@click.option("--paper-scale", is_flag=True, help="Validate against full-scale defaults.")
def validate_command(config_path, paper_scale):
    """Check a config file and print the fully resolved run description."""
    try:
        config = parse_config(config_path, paper_scale=paper_scale)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    click.echo(json.dumps(config.resolved(), sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
