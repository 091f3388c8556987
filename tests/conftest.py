import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from arkslice import catalog
from arkslice.catalog import DatasetMetadata
from arkslice.http_service import App, DataSource, ServiceConfig, start_background
from arkslice.timeseries_store import SensorTable

NAAN = "57460"
DATASET = "AMPds-mini"
SENSORS = ("HPE", "DWE", "WOE")

# Keys cover 13300-25600 so the ranges 13332-13400 and 24300-25500 used by
# the canonical example PIDs are nonempty. The first block is dense (every
# key), the second sparse (every 10th).
BLOCK1 = list(range(13300, 13501))
BLOCK2 = list(range(24250, 25601, 10))


def sensor_keys(sensor: str) -> list[int]:
    keys = BLOCK1 + BLOCK2
    if sensor == "WOE":
        # WOE misses some rows so multi-sensor joins produce empty cells.
        keys = [k for i, k in enumerate(keys) if i % 7 != 3]
    return keys


def write_fixture(data_root: Path, dataset: str = DATASET) -> Path:
    ds_dir = data_root / dataset
    ds_dir.mkdir(parents=True, exist_ok=True)
    for sensor in SENSORS:
        rng = random.Random(f"{dataset}/{sensor}")
        lines = ["timestamp,V,I"]
        for k in sensor_keys(sensor):
            v = f"{rng.uniform(110.0, 125.0):.3f}"
            i = f"{rng.uniform(0.0, 15.0):.3f}"
            lines.append(f"{k},{v},{i}")
        (ds_dir / f"{sensor}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
    return ds_dir


FIXTURE_METADATA = DatasetMetadata(
    core="residential energy metering",
    domain_environmental="energy monitoring",
    domain_object_class="electricity meter readings",
    domain_object_format="CSV time series",
    relation="https://example.org/ampds",
    model="one CSV per meter, minute-sampled rows keyed by timestamp",
    dictionary=[
        ("DWE", "dishwasher meter"),
        ("HPE", "heat pump meter"),
        ("WOE", "wall oven meter"),
        ("V", "voltage"),
        ("I", "current"),
    ],
    schema_name="Dublin Core",
)


def make_app(tmp_path: Path, port: int = 0) -> App:
    data_root = tmp_path / "data"
    write_fixture(data_root)
    config = ServiceConfig(
        host="127.0.0.1",
        port=port,
        naans=[NAAN],
        sources=[DataSource(id="local", root=str(data_root))],
        state_dir=str(tmp_path / "state"),
    )
    app = App(config)
    app.catalog.register_dataset(
        app.source("local"), DATASET, metadata=FIXTURE_METADATA
    )
    return app


@pytest.fixture
def app(tmp_path):
    return make_app(tmp_path)


@pytest.fixture
def data_dir(app):
    return Path(app.catalog.lookup(DATASET).data_dir)


@pytest.fixture
def live_server(app):
    server, thread = start_background(app)
    port = server.server_address[1]
    app.config.port = port
    app.config.base_url = f"http://127.0.0.1:{port}"
    app.resolver.base_url = app.config.base_url
    yield app, app.config.base_url
    server.shutdown()
    server.server_close()


@pytest.fixture
def work(monkeypatch):
    """What the catalog does from now on: ``parsed`` lists the sensor of
    each file parsed (``SensorTable.from_bytes``), ``typed`` the
    ``(sensor, measurement)`` of each column typed (``_column_schema``)."""
    done = SimpleNamespace(parsed=[], typed=[])
    from_bytes = SensorTable.from_bytes.__func__
    column_schema = catalog._column_schema

    def parse(cls, sensor_name, *args):
        done.parsed.append(sensor_name)
        return from_bytes(cls, sensor_name, *args)

    def type_column(table, name):
        done.typed.append((table.sensor_name, name))
        return column_schema(table, name)

    monkeypatch.setattr(SensorTable, "from_bytes", classmethod(parse))
    monkeypatch.setattr(catalog, "_column_schema", type_column)
    return done
