"""Operator command line: everything the HTTP service does, without HTTP.

Exit codes: 0 success, 1 user error (bad arguments, bad PID, missing
dataset), 2 internal error.
"""

from __future__ import annotations

import sys

import click

from .catalog import DatasetMetadata, json_bytes
from .errors import ArksliceError, MalformedPid
from .http_service import App, ServiceConfig, serve
from .pid_grammar import split_ark
from .resolver import Info, Redirect, Resolution
from .timeseries_store import render_csv


def strip_scheme_host(pid: str) -> str:
    """Accept both full URLs and bare ark:/ strings."""
    if pid.startswith(("http://", "https://")):
        idx = pid.find("ark:/")
        if idx < 0:
            raise MalformedPid(f"no ark:/ segment in {pid!r}")
        return pid[idx:]
    return pid


def _app(config_path: str) -> App:
    return App(ServiceConfig.from_file(config_path))


def _write(data: bytes) -> None:
    """Write bytes to stdout as they are, whatever its text encoding."""
    sys.stdout.flush()
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _print_resolution(result: Resolution) -> None:
    """Print what ``GET /ark:/...`` sends: the CSV slice, the same JSON
    document for ``?info``, or a redirect's location."""
    if isinstance(result, Redirect):
        click.echo(result.location)
    elif isinstance(result, Info):
        _write(json_bytes(result.document))
    else:
        _write(render_csv(result.slice))


@click.group()
@click.option("--config", "config_path", default="config.json",
              show_default=True, help="Path to the service config JSON.")
@click.pass_context
def cli(ctx, config_path):
    """Persistent-identifier resolver for time-series data slices."""
    ctx.obj = config_path


@cli.command("serve")
@click.pass_obj
def serve_cmd(config_path):
    """Run the HTTP resolver service."""
    serve(_app(config_path))


@cli.command()
@click.option("--source", "source_id", required=True)
@click.option("--dataset", required=True)
@click.option("--core", default="", help="Core classification text.")
@click.argument("directory", required=False)
@click.pass_obj
def ingest(config_path, source_id, dataset, core, directory):
    """Register a dataset from a configured source."""
    app = _app(config_path)
    source = app.source(source_id)
    entry = app.catalog.register_dataset(
        source, dataset,
        metadata=DatasetMetadata(core=core),
        data_dir=directory,
    )
    click.echo(f"registered {entry.dataset} ({len(entry.sensors)} sensors) "
               f"hash {entry.content_hash[:12]}")


@cli.command()
@click.argument("pid")
@click.pass_obj
def resolve(config_path, pid):
    """Print the slice a PID names, or a NOID's target (same bytes as HTTP)."""
    app = _app(config_path)
    _print_resolution(app.resolver.resolve(*split_ark(strip_scheme_host(pid))))


@cli.command()
@click.option("--target", required=True)
@click.pass_obj
def mint(config_path, target):
    """Mint a NOID bound to a target URL or PID."""
    minted = _app(config_path).resolver.mint(target)
    click.echo(minted["noid"])
    click.echo(minted["url"])


@cli.command()
@click.option("--dataset", required=True)
@click.option("--sensors", required=True, help="Comma-separated sensor names.")
@click.option("--measurements", required=True,
              help="Comma-separated measurement names.")
@click.option("-k", "folds", type=int, required=True)
@click.pass_obj
def crossfold(config_path, dataset, sensors, measurements, folds):
    """Print k train/test PID pairs for cross-validation."""
    app = _app(config_path)
    pairs = app.resolver.crossfold_pids(
        dataset, sensors.split(","), measurements.split(","), folds
    )
    for i, (train, test) in enumerate(pairs, start=1):
        click.echo(f"fold {i} train {train}")
        click.echo(f"fold {i} test  {test}")


@cli.command()
@click.pass_obj
def crawl(config_path):
    """Re-scan all sources and print change events."""
    app = _app(config_path)
    for e in app.catalog.crawl():
        click.echo(f"{e.kind} {e.dataset} source={e.source_id}")


@cli.command()
@click.argument("query", required=False, default="")
@click.pass_obj
def search(config_path, query):
    """Search the catalog (empty query lists everything)."""
    app = _app(config_path)
    _write(json_bytes(app.catalog.search(query)))


@cli.command()
@click.argument("pid")
@click.pass_obj
def info(config_path, pid):
    """Print catalog metadata for the dataset/columns a PID references."""
    app = _app(config_path)
    _print_resolution(
        app.resolver.resolve(*split_ark(strip_scheme_host(pid)), info=True)
    )


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except ArksliceError as exc:
        kind = "internal error" if exc.exit_code == 2 else "error"
        click.echo(f"{kind}: {exc}", err=True)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"internal error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
