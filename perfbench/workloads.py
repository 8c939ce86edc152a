"""The three benchmark workloads on the Siemens deployment.

Every workload goes through the public surface only: ``generate_fleet``
and ``deploy`` build the deployment, ``Session.submit`` registers STARQL
text, ``GatewayServer.step`` drives the closed-loop replay, subscriber
callbacks receive the windows and ``CheckpointManager`` writes the
durable state.  One benchmark run of a workload

* sets up several times (``setup_s`` is the median),
* replays the same seeded work ``replays`` times, each on a fresh
  deployment (the timed passes; see ``combine`` for how they make one
  figure),
* replays it once more on the recompute oracle (``incremental=False,
  mqo=False``, one shard, no checkpoints), untimed, and checks every
  delivered window against it.

Sizes scale linearly with ``--seconds`` so that the timed passes of a
run take about that long on a 2-core x86 box; the same seed and seconds
always give the same work.
"""

from __future__ import annotations

import dataclasses
import random
import re
import shutil
import statistics
import time
from pathlib import Path

from repro import siemens
from repro.exastream.durability import CheckpointManager

#: the catalog's pane-tier tasks, fixed by id so that moving other tasks
#: onto panes leaves ``pane_durable_sharded`` unchanged
PANE_TASKS = (2, 3, 4, 9, 11, 12, 18, 19, 20)

#: the static fleet is generated from this seed in every run; the
#: workload seed drives the streams (see ``make_fleet``)
STRUCTURE_SEED = 7

#: stream-seconds per timed pass and measured second (calibrated on a
#: 2-core box; each workload runs ``replays`` passes per run)
CATALOG_STREAM_PER_S = 20
PANE_STREAM_PER_S = 12
#: fleet_register: cycles of the 20 tasks per pass and measured second
REGISTER_CYCLES_PER_S = 0.25

PANE_SENSORS = 200
PANE_SHARDS = 4
CHECKPOINT_INTERVAL = 5
#: fleet_register only needs every task's first window (ranges <= 30 s)
REGISTER_STREAM_SECONDS = 60


@dataclasses.dataclass
class Outcome:
    """What one pass of a workload produced.

    ``units`` and ``latencies`` are in the pass's deterministic order,
    so the same position means the same work in every pass of a run.
    """

    #: (query, window_id) -> rows, for every delivered window
    windows: dict
    #: wall seconds of each unit of work: a ``step(1)`` round, or one
    #: submission from ``submit`` to ``close``
    units: list
    #: per-operation latencies in seconds (windows, or first results)
    latencies: list
    #: reference-kernel seconds measured before each unit and after the
    #: last one (see ``HostSpeed``)
    kernels: list
    #: index of the unit each latency was measured in
    latency_units: list
    #: operations completed: windows delivered, or first results
    ops: int
    #: wall seconds of the whole pass
    wall_s: float
    #: stream-seconds replayed (0 for fleet_register)
    stream_seconds: int = 0
    registrations: int = 0
    failed_registrations: int = 0
    failed_steps: int = 0
    checkpoints_due: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0


class Deliveries:
    """The subscriber callback: stamps and keeps every delivered window.

    ``mark`` is set by the driving loop right before each ``step(1)``
    (or ``submit``); a window's latency runs from the previous delivery
    in the same round, or from that mark, to its own delivery.
    """

    def __init__(self) -> None:
        self.mark = 0.0
        self.latencies: list[float] = []
        self.results: list = []

    def __call__(self, result) -> None:
        now = time.perf_counter()
        self.latencies.append(now - self.mark)
        self.mark = now
        self.results.append(result)


def make_fleet(seed: int):
    """The 10-turbine, 4-plant fleet whose streams are seeded by ``seed``.

    The static side is always generated from ``STRUCTURE_SEED``: the
    seed otherwise decides whether turbine t0001, which carries most of
    the streamed sensors, is a gas or a steam turbine, and that changes
    how much work the catalog does, not just its values.
    ``FleetConfig.seed`` is then set to ``seed``, which seeds the
    measurement and event streams.
    """
    config = siemens.FleetConfig(turbines=10, plants=4, seed=STRUCTURE_SEED)
    fleet = siemens.generate_fleet(config)
    return dataclasses.replace(
        fleet, config=dataclasses.replace(config, seed=seed)
    )


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _reference_kernel() -> int:
    """Fixed interpreter work (dict stores, tuples, arithmetic), ~0.1 ms."""
    table, total = {}, 0
    for i in range(400):
        table[i & 63] = (i, total)
        total += len(table) * i % 7
    return total


class HostSpeed:
    """How fast the host runs interpreter code right now.

    The host runs this code up to ~1.7x slower while a neighbour shares
    its core, in spells of seconds to minutes, and every timed interval
    here is bracketed by runs of a fixed reference kernel.  An interval
    is rescaled to the nominal speed at which the kernel takes
    ``NOMINAL_S``: ``seconds * NOMINAL_S / kernel seconds``, with the
    kernel time taken as the median of the samples around the interval.
    """

    NOMINAL_S = 100e-6

    @staticmethod
    def sample() -> float:
        start = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - start

    @classmethod
    def factors(cls, kernels: list[float], units: int) -> list[float]:
        """Per unit ``k``: nominal over the median kernel time of the
        samples ``k-2 .. k+3`` (unit ``k`` lies between ``k`` and ``k+1``)."""
        return [
            cls.NOMINAL_S / statistics.median(kernels[max(0, k - 2):k + 4])
            for k in range(units)
        ]

    @classmethod
    def timed(cls, function):
        """Call ``function``; return (its result, normalised seconds)."""
        kernels = [cls.sample() for _ in range(5)]
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        kernels += [cls.sample() for _ in range(5)]
        return result, elapsed * cls.NOMINAL_S / statistics.median(kernels)


def combine(outcomes: list[Outcome]) -> tuple[float, list[float]]:
    """One figure from the timed passes of a run.

    Each unit of work (a ``step(1)`` round, or a submission) and each
    latency is first rescaled to nominal host speed (``HostSpeed``);
    then, since every pass does the same work in the same order, each
    unit and latency is taken from its fastest pass.  Returns (seconds
    for one pass, latencies).
    """
    units, latencies = [], []
    for outcome in outcomes:
        factors = HostSpeed.factors(outcome.kernels, len(outcome.units))
        units.append([d * f for d, f in zip(outcome.units, factors)])
        latencies.append([lat * factors[k] for lat, k
                          in zip(outcome.latencies, outcome.latency_units)])
    seconds = sum(min(unit) for unit in zip(*units))
    return seconds, [min(lat) for lat in zip(*latencies)]


class Workload:
    """One named workload: set-up, timed pass and oracle pass."""

    name = ""
    why = ""
    #: how many times a run sets up (``setup_s`` is their median); the
    #: last ``replays`` set-ups each get a timed pass
    setups = 3
    replays = 3

    def __init__(self, seed: int, seconds: float, work_dir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir

    def size(self) -> dict:
        raise NotImplementedError

    def setup(self, oracle: bool = False):
        """Build a fresh deployment up to its first pulse."""
        raise NotImplementedError

    def run(self, state) -> Outcome:
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what ``setup`` made outside the process."""


def _replay(gateway, deliveries: Deliveries) -> tuple[list, list, list, int]:
    """Step the gateway closed-loop, one round at a time, to the end.

    Returns per-round seconds, kernel samples, the round of each
    delivered window, and the number of failed pulses.
    """
    step = gateway.step
    clock = time.perf_counter
    sample = HostSpeed.sample
    rounds, kernels, latency_units, failed = [], [sample()], [], 0
    while True:
        start = deliveries.mark = clock()
        try:
            executed = step(1)
        except Exception:  # a failed pulse ends the replay; counted
            failed += 1
            break
        rounds.append(clock() - start)
        kernels.append(sample())
        latency_units += [len(rounds) - 1] * (
            len(deliveries.latencies) - len(latency_units))
        if not executed:
            break
    return rounds, kernels, latency_units, failed


def _submit_all(session, tasks, deliveries) -> tuple[int, int]:
    submitted = failed = 0
    for task in tasks:
        submitted += 1
        try:
            handle = session.submit(task.starql, name=f"t{task.task_id}")
        except Exception:  # a refused registration is counted, not fatal
            failed += 1
            continue
        handle.subscribe(deliveries)
    return submitted, failed


def _replay_outcome(state, stream_seconds: int) -> Outcome:
    deployment, deliveries, submitted, failed = state[:4]
    start = time.perf_counter()
    rounds, kernels, latency_units, failed_steps = _replay(
        deployment.gateway, deliveries)
    return Outcome(
        windows={(r.query, r.window_id): r.rows for r in deliveries.results},
        units=rounds,
        latencies=deliveries.latencies,
        kernels=kernels,
        latency_units=latency_units,
        ops=len(deliveries.results),
        wall_s=time.perf_counter() - start,
        stream_seconds=stream_seconds,
        registrations=submitted,
        failed_registrations=failed,
        failed_steps=failed_steps,
    )


class Catalog(Workload):
    name = "catalog"
    why = (
        "S2 as users run it: all 20 catalog tasks on the default deployment, "
        "replayed closed-loop; recompute, UDF and macro layers do the work"
    )

    def size(self) -> dict:
        return {"stream_seconds": round(CATALOG_STREAM_PER_S * self.seconds),
                "tasks": 20}

    def setup(self, oracle: bool = False):
        fleet = make_fleet(self.seed)
        options = {"incremental": False, "mqo": False} if oracle else {}
        deployment = siemens.deploy(
            fleet=fleet, stream_duration=self.size()["stream_seconds"], **options
        )
        session = deployment.session()
        deliveries = Deliveries()
        submitted, failed = _submit_all(
            session, siemens.diagnostic_catalog(), deliveries
        )
        return deployment, deliveries, submitted, failed

    def run(self, state) -> Outcome:
        return _replay_outcome(state, self.size()["stream_seconds"])


class PaneDurableSharded(Workload):
    name = "pane_durable_sharded"
    why = (
        "the nine pane-tier tasks over 200 sensors on 4 serial shards with "
        "checkpoints every 5 pulses: pane, shard merge and durability layers"
    )
    setups = 7

    def size(self) -> dict:
        return {"stream_seconds": round(PANE_STREAM_PER_S * self.seconds),
                "sensors": PANE_SENSORS, "shards": PANE_SHARDS,
                "tasks": len(PANE_TASKS),
                "checkpoint_interval": CHECKPOINT_INTERVAL}

    def setup(self, oracle: bool = False):
        fleet = make_fleet(self.seed)
        stream_seconds = self.size()["stream_seconds"]
        sensors = fleet.sensor_ids[:PANE_SENSORS]
        if oracle:
            deployment = siemens.deploy(
                fleet=fleet, stream_sensors=sensors,
                stream_duration=stream_seconds, incremental=False, mqo=False,
            )
            checkpoints = None
        else:
            deployment = siemens.deploy(
                fleet=fleet, stream_sensors=sensors,
                stream_duration=stream_seconds, shards=PANE_SHARDS,
            )
            # The checkpoints go under the checkout, on whatever disk
            # holds it; fsync is off so that the shared disk's flush
            # times stay out of the figures, as on a tmpfs directory
            # (where fsync returns at once).
            directory = self.work_dir / f"checkpoints-{time.perf_counter_ns()}"
            checkpoints = CheckpointManager(
                deployment.gateway, directory, interval=CHECKPOINT_INTERVAL,
                fsync=False,
            )
        session = deployment.session()
        deliveries = Deliveries()
        tasks = [t for t in siemens.diagnostic_catalog()
                 if t.task_id in PANE_TASKS]
        submitted, failed = _submit_all(session, tasks, deliveries)
        return deployment, deliveries, submitted, failed, checkpoints

    def teardown(self, state) -> None:
        checkpoints = state[4]
        if checkpoints is not None:
            shutil.rmtree(checkpoints.directory, ignore_errors=True)

    def run(self, state) -> Outcome:
        checkpoints = state[4]
        if checkpoints is None:
            return _replay_outcome(state, self.size()["stream_seconds"])
        before = _dir_bytes(checkpoints.directory)
        epoch = checkpoints.epoch
        outcome = _replay_outcome(state, self.size()["stream_seconds"])
        outcome.checkpoints_due = checkpoints.pulses // checkpoints.interval
        outcome.checkpoints = checkpoints.epoch - epoch
        outcome.checkpoint_bytes = _dir_bytes(checkpoints.directory) - before
        return outcome


_THRESHOLD = re.compile(r"([<>]=?)\s*(\d+(?:\.\d+)?)")


def submission_texts(seed: int, cycles: int) -> list[tuple[int, str]]:
    """``cycles`` variants of each catalog task, in a seeded order.

    Every cycle submits the 20 tasks once, in one seeded order, so a
    task recurs every 20 submissions whatever the seed (two PEARSON
    variants in a row would hold two large static results at once).
    Each text is new to the translation cache: its output stream gets a
    per-submission suffix and every numeric HAVING threshold moves by a
    seeded amount within +-2%.  The mix of tasks never depends on the
    seed; the order and the thresholds do.
    """
    rng = random.Random(seed)
    order = siemens.diagnostic_catalog()
    rng.shuffle(order)
    texts = []
    for index, task in enumerate(order * cycles):
        head, having = task.starql.split("\nHAVING ", 1)
        head = re.sub(r"CREATE STREAM (\w+)",
                      rf"CREATE STREAM \1_v{index}", head, count=1)

        def perturb(match):
            value = float(match.group(2)) * (1 + rng.uniform(-0.02, 0.02))
            return f"{match.group(1)} {value:.4f}"

        texts.append(
            (task.task_id,
             head + "\nHAVING " + _THRESHOLD.sub(perturb, having))
        )
    return texts


class FleetRegister(Workload):
    name = "fleet_register"
    why = (
        "one closed-loop client submitting fresh variants of all 20 tasks, "
        "one at a time, to its first window: compile, bind and static query"
    )
    setups = 7
    replays = 4

    def size(self) -> dict:
        cycles = max(1, round(REGISTER_CYCLES_PER_S * self.seconds))
        return {"submissions": 20 * cycles, "cycles": cycles,
                "stream_seconds": REGISTER_STREAM_SECONDS}

    def setup(self, oracle: bool = False):
        fleet = make_fleet(self.seed)
        options = {"incremental": False, "mqo": False} if oracle else {}
        deployment = siemens.deploy(
            fleet=fleet, stream_duration=REGISTER_STREAM_SECONDS, **options
        )
        return deployment, deployment.session()

    def run(self, state) -> Outcome:
        deployment, session = state
        step = deployment.gateway.step
        clock = time.perf_counter
        deliveries = Deliveries()
        texts = submission_texts(self.seed, self.size()["cycles"])
        units, latencies, latency_units, windows = [], [], [], {}
        kernels = [HostSpeed.sample()]
        failed = failed_steps = 0
        start = clock()
        for index, (_, text) in enumerate(texts):
            delivered = len(deliveries.results)
            submitted_at = deliveries.mark = clock()
            try:
                handle = session.submit(text, name=f"r{index}")
            except Exception:  # a refused registration is counted
                failed += 1
                units.append(clock() - submitted_at)
                kernels.append(HostSpeed.sample())
                continue
            handle.subscribe(deliveries)
            try:
                while len(deliveries.results) == delivered and step(1):
                    pass
            except Exception:  # a failed first window is counted
                failed_steps += 1
            handle.close()
            units.append(clock() - submitted_at)
            kernels.append(HostSpeed.sample())
            if len(deliveries.results) > delivered:
                first = deliveries.results[delivered]
                latencies.append(deliveries.latencies[delivered])
                latency_units.append(len(units) - 1)
                windows[(first.query, first.window_id)] = first.rows
        return Outcome(
            windows=windows,
            units=units,
            latencies=latencies,
            kernels=kernels,
            latency_units=latency_units,
            ops=len(windows),
            wall_s=clock() - start,
            registrations=len(texts),
            failed_registrations=failed,
            failed_steps=failed_steps,
        )


WORKLOADS = {w.name: w for w in (Catalog, FleetRegister, PaneDurableSharded)}
