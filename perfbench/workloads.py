"""Workload definitions: the scenario config each workload hands to edgekpi.

The benchmark writes each config itself, from the text below plus the
``--seed`` it was given, so the program only ever sees generated inputs.
``DEFAULT_CONFIG`` repeats the keys of ``configs/default.ini`` so that an
edit to the shipped example does not silently change the benchmark.
"""

from __future__ import annotations

import random

#: 5 s of VGA MJPEG video at 20 fps plus 100 pings on a clean 5G edge path.
DEFAULT_CONFIG = """\
[scenario]
tech = FIVE_G
range = EDGE
jitter_std = 0

[video]
encoder = MJPEG
resolution = VGA
fps = 20
duration_s = 5

[workload]
ping_interval_ms = 100
ping_count = 100
"""

#: The default video and pings with 2 % loss, retransmission and 1 ms jitter.
RTX_VIDEO_CONFIG = """\
[scenario]
tech = FIVE_G
range = EDGE
jitter_std = 1
loss_prob = 0.02
retransmit = true

[video]
encoder = MJPEG
resolution = VGA
fps = 20
duration_s = 5

[workload]
ping_interval_ms = 100
ping_count = 100
"""

#: Workload name -> scenario config text (without the [run] section).
WORKLOADS = {
    # one scenario, simulated then analyzed through the library calls the
    # CLI makes; emulator-heavy, with retransmissions
    "rtx-video": RTX_VIDEO_CONFIG,
    # `edgekpi sweep` on the default config: five scenarios through cli.main
    "sweep5": DEFAULT_CONFIG,
}


#: The emulator seed of rtx-video. With retransmission on, the emulator's
#: work is bimodal across seeds: 30-38 k UE records on some, 75-79 k on
#: most, as spurious retransmissions cascade or not. Seed 1 is in the large
#: mode (77,879 UE records, uplink emissions 5.99x the unique segments).
#: A fixed emulator seed keeps the workload the same size at every
#: benchmark seed; the benchmark seed draws the three nodes' clock offsets,
#: which change every capture timestamp but not the emulated events.
RTX_EMULATOR_SEED = 1


def config_text(workload: str, seed: int) -> str:
    """The config file the benchmark writes for ``workload`` at ``seed``."""
    if workload == "rtx-video":
        rng = random.Random(seed)
        offsets = "".join(f"offset_{node}_ms = {rng.uniform(0.0, 10.0):.3f}\n"
                          for node in ("ue", "core", "app"))
        return f"{WORKLOADS[workload]}\n[clocks]\n{offsets}\n[run]\nseed = {RTX_EMULATOR_SEED}\n"
    return f"{WORKLOADS[workload]}\n[run]\nseed = {seed}\n"
