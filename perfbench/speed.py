"""The machine-speed probe that scales the benchmark's timings.

On a shared virtual machine the speed of a fixed piece of work drifts
by 20-50% within minutes, because other guests contend for the host's
cores and caches; the guest sees no steal time while it happens.  The
benchmark therefore runs this probe between requests, outside the timed
region, and reports every latency scaled to a reference speed::

    scaled = measured * REFERENCE_S / probe

where ``probe`` is the median probe time in the seconds around the
request.  The probe is a fixed mix of the three kinds of work the
workloads do: a 3-operand einsum over 8x8 blocks, two copies of a
512x512 RGB pixel buffer, and interpreter-bound dict and string work.
It lives here and uses no ``repro`` code, so a change to the program
never changes the probe.
"""

from __future__ import annotations

import time

#: Probe seconds at the reference speed: near the fast end of the probe
#: times on a 2-vCPU KVM guest (Intel Xeon, AVX-512, 2.0 GHz nominal),
#: where a probe takes 2.0-5.0 ms as the host's load moves.
REFERENCE_S = 0.0025


class SpeedProbe:
    """One call runs the fixed work mix once and returns its seconds;
    ``samples`` keeps every call's seconds and ``times`` its start."""

    def __init__(self) -> None:
        # Imported here so that importing this module does not take
        # numpy's import out of the benchmark's timed set-up.
        import numpy as np

        self.einsum = np.einsum
        rng = np.random.default_rng(0)
        self.basis = rng.standard_normal((8, 8))
        self.blocks = rng.standard_normal((128, 8, 8))
        self.pixels = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
        self.words = [f"photo-{i}" for i in range(4000)]
        self.samples: list[float] = []
        self.times: list[float] = []

    def work(self) -> None:
        self.einsum("ji,...jk,kl->...il", self.basis, self.blocks, self.basis)
        for _ in range(2):
            self.pixels.copy().tobytes()
        table = {word: len(word) for word in self.words}
        sum(table[word.upper().lower()] for word in self.words)

    def __call__(self) -> float:
        # The untimed pass brings the probe's data back into the caches
        # the request evicted it from, so only machine speed moves the
        # timed pass.
        self.work()
        start = time.perf_counter()
        self.work()
        seconds = time.perf_counter() - start
        self.times.append(start)
        self.samples.append(seconds)
        return seconds


def steal_ticks() -> int:
    """The host's steal-time counter for all vCPUs, from ``/proc/stat``
    (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0
