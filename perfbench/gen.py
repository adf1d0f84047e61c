"""Seeded input generation: sweep cell lists and serving request mixes.

The workload seed is the benchmark's only source of variation.  It sets
the workload image seed of every cell and request, the order of the
cells, and the serving mix.  :func:`inputs_bytes` serializes what a seed
generates, so the same seed is shown to give byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.configio import machine_config_to_dict
from repro.experiments.common import model_machine
from repro.params import MachineConfig
from repro.service.http import request_to_wire
from repro.service.request import SimRequest
from repro.workloads.suite import REPRESENTATIVES, get_profile

# -- sweep-timing: a Fig. 9-shaped depth x width x reinforcement sweep ------

#: Pointer-chasing benchmarks, where the paper's speedups come from.
#: Their hot sets fall below (b2c), between (tpcc-2) and, by footprint,
#: above (specjbb-vsnet) the model UL2 sizes.
TIMING_BENCHMARKS = ("b2c", "tpcc-2", "specjbb-vsnet")
#: Trace length of every image, in µops (see :func:`scale_for`).
TIMING_UOPS = 66_000
#: (label, content-prefetcher settings); ``None`` is the stride-only
#: baseline every speedup is measured against.
TIMING_CONFIGS = (
    ("baseline", None),
    ("d3-reinf-p0n3", {"depth_threshold": 3, "reinforcement": True,
                       "prev_lines": 0, "next_lines": 3}),
    ("d3-reinf-p1n1", {"depth_threshold": 3, "reinforcement": True,
                       "prev_lines": 1, "next_lines": 1}),
    ("d5-nr-p0n2", {"depth_threshold": 5, "reinforcement": False,
                    "prev_lines": 0, "next_lines": 2}),
    ("d9-nr-p0n0", {"depth_threshold": 9, "reinforcement": False,
                    "prev_lines": 0, "next_lines": 0}),
)

# -- sweep-functional: a Fig. 7/8-shaped matcher sweep ----------------------

#: One benchmark per suite; their hot sets fall below, between and above
#: the two model UL2 sizes.
FUNCTIONAL_BENCHMARKS = REPRESENTATIVES
FUNCTIONAL_UOPS = 60_000
#: (compare.filter.align.step label, matcher settings), chain-only as in
#: the paper's tuning runs.
FUNCTIONAL_CONFIGS = (
    ("08.4.1.2", {"compare_bits": 8, "filter_bits": 4, "align_bits": 1,
                  "scan_step": 2}),
    ("12.4.1.2", {"compare_bits": 12, "filter_bits": 4, "align_bits": 1,
                  "scan_step": 2}),
    ("08.0.0.1", {"compare_bits": 8, "filter_bits": 0, "align_bits": 0,
                  "scan_step": 1}),
)

# -- serve-mixed: cached reads plus rare cold functional writes -------------

SERVE_BENCHMARK = "b2c"
SERVE_SCALE = 0.02
#: Cold writes are short jobs, so that a cached read seldom finds one
#: holding the server's interpreter lock (see README.md, "serve-mixed").
COLD_SCALE = 0.005
POOL_SIZE = 16
CLIENTS = 2
#: Each block of this many requests holds exactly one cold write, with a
#: never-seen seed, at a seeded position.  A fixed share keeps the time
#: clients spend waiting on cold writes the same in every run.
COLD_ONE_IN = 32
#: Requests generated per client: more than any run can complete.
OPS_PER_CLIENT = 20000


#: Cells per sweep round.  With 15 cells of distinct cost, the
#: nearest-rank p90 of a whole number of rounds falls mid-way into one
#: cell's samples (rank 13.5 of 15), never on the boundary between two
#: cells, where it would read the noisy maximum of one.
CELLS_PER_ROUND = 15


def scale_for(benchmark: str, uops: int) -> float:
    """The workload scale that gives *benchmark* a trace of about *uops*.

    Images of one sweep get traces of equal length, so that cells differ
    in cost by configuration and benchmark character, not by trace
    length; no single long benchmark then owns the tail percentile.
    """
    return round(uops / get_profile(benchmark).target_uops, 4)


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a machine configuration on one benchmark image."""

    ident: str
    benchmark: str
    scale: float
    image_seed: int
    mode: str
    machine: MachineConfig

    def as_dict(self) -> dict:
        return {
            "id": self.ident, "benchmark": self.benchmark,
            "scale": self.scale, "image_seed": self.image_seed,
            "mode": self.mode,
            "machine": machine_config_to_dict(self.machine),
        }


def timing_cells(seed: int) -> list:
    """The sweep-timing cell list for *seed*, in seeded order."""
    base = model_machine()
    cells = []
    for benchmark in TIMING_BENCHMARKS:
        for label, content in TIMING_CONFIGS:
            if content is None:
                machine = base.with_content(enabled=False).with_markov(
                    enabled=False)
            else:
                machine = base.with_content(**content)
            cells.append(Cell("%s/%s" % (benchmark, label), benchmark,
                              scale_for(benchmark, TIMING_UOPS), seed,
                              "timing", machine))
    random.Random(seed).shuffle(cells)
    return cells


def functional_cells(seed: int) -> list:
    """The sweep-functional cell list for *seed*, in seeded order.

    Each image serves two or three matcher configurations, so set-up
    weighs as much as simulation; see :data:`CELLS_PER_ROUND`.
    """
    base = model_machine()
    configs = len(FUNCTIONAL_CONFIGS)
    cells = []
    for index, benchmark in enumerate(FUNCTIONAL_BENCHMARKS):
        for offset, (label, matcher) in enumerate(FUNCTIONAL_CONFIGS):
            if index >= configs and offset == index % configs:
                continue
            machine = base.with_content(next_lines=0, prev_lines=0,
                                        **matcher)
            cells.append(Cell("%s/%s" % (benchmark, label), benchmark,
                              scale_for(benchmark, FUNCTIONAL_UOPS), seed,
                              "functional", machine))
    random.Random(seed).shuffle(cells)
    return cells


@dataclass
class ServePlan:
    """The pool of cacheable requests and each client's request stream.

    A stream entry is ``("cached", pool_index)`` or ``("cold", request)``;
    cold requests carry seeds no other request of the run uses.
    """

    pool: list
    streams: list


def serve_plan(seed: int) -> ServePlan:
    machine = MachineConfig()
    pool = [
        SimRequest(machine=machine, benchmark=SERVE_BENCHMARK,
                   scale=SERVE_SCALE, seed=seed * 1000 + index,
                   mode="functional")
        for index in range(POOL_SIZE)
    ]
    streams = []
    for client in range(CLIENTS):
        rng = random.Random("serve-mixed/%d/%d" % (seed, client))
        stream = []
        cold_at = 0
        for position in range(OPS_PER_CLIENT):
            if position % COLD_ONE_IN == 0:
                cold_at = position + rng.randrange(COLD_ONE_IN)
            if position == cold_at:
                cold_seed = (10 ** 7 + seed * 10 ** 5
                             + client * OPS_PER_CLIENT + position)
                stream.append(("cold", SimRequest(
                    machine=machine, benchmark=SERVE_BENCHMARK,
                    scale=COLD_SCALE, seed=cold_seed, mode="functional")))
            else:
                stream.append(("cached", rng.randrange(POOL_SIZE)))
        streams.append(stream)
    return ServePlan(pool, streams)


def inputs_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization of everything *seed* generates."""
    if workload == "sweep-timing":
        tree = [cell.as_dict() for cell in timing_cells(seed)]
    elif workload == "sweep-functional":
        tree = [cell.as_dict() for cell in functional_cells(seed)]
    elif workload == "serve-mixed":
        plan = serve_plan(seed)
        tree = {
            "pool": [request_to_wire(r) for r in plan.pool],
            "streams": [
                [[kind, item if kind == "cached" else request_to_wire(item)]
                 for kind, item in stream]
                for stream in plan.streams
            ],
        }
    else:
        raise ValueError("unknown workload %r" % workload)
    return json.dumps(tree, sort_keys=True).encode()
