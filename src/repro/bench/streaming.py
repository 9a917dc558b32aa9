"""Drivers for the streaming comparison (paper Fig. 11 + Table 4)."""

from repro.apps.lunar_streaming import LunarStreamClient, LunarStreamServer
from repro.baselines.sendfile import SendfileStreamer
from repro.bench.harness import make_testbed
from repro.bench.images import image_size_bytes
from repro.core.runtime import build_stack

STREAMING_SYSTEMS = ("lunar_fast", "lunar_slow", "sendfile")


def lunar_streaming_run(mode, resolution, frames, profile="local", seed=0):
    """Stream ``frames`` synthetic images; returns (fps, latencies_ns)."""
    testbed, deployment = build_stack(profile=profile, seed=seed)
    sim = testbed.sim
    server = LunarStreamServer(deployment.runtime(0), mode=mode)
    client = LunarStreamClient(deployment.runtime(1), mode=mode, synthetic=True)
    frame_size = image_size_bytes(resolution)
    completions = []

    def server_proc():
        yield from server.wait_for_client()

        def wait_next():
            return iter(())  # camera always has the next frame ready

        yield from server.loop(lambda: frame_size, wait_next, frames)

    def client_proc():
        yield from client.connect()
        received = yield from client.receive_frames(frames)
        completions.extend(done for _frame, done in received)

    sim.process(server_proc(), name="lnr.server")
    sim.process(client_proc(), name="lnr.client")
    sim.run()
    if len(completions) != frames:
        raise RuntimeError(
            "client reassembled %d/%d frames" % (len(completions), frames)
        )
    latencies = [
        done - start for done, start in zip(completions, server.frame_starts)
    ]
    elapsed = completions[-1] - server.frame_starts[0]
    fps = frames * 1e9 / elapsed if elapsed > 0 else 0.0
    return fps, latencies


def sendfile_run(resolution, frames, profile="local", seed=0):
    """The sendfile baseline for the same workload; returns (fps, latencies)."""
    testbed = make_testbed(profile, seed=seed)
    streamer = SendfileStreamer(testbed)
    frame_size = image_size_bytes(resolution)
    latencies, meter = streamer.stream_frames(frame_size, frames)
    if len(latencies) != frames:
        raise RuntimeError("client reassembled %d/%d frames" % (len(latencies), frames))
    elapsed = meter.last_ns - (meter.first_ns - latencies[0])
    fps = frames * 1e9 / elapsed if elapsed > 0 else 0.0
    return fps, latencies


def streaming_run(system, resolution, frames, profile="local", seed=0):
    """Uniform entry point across the three Fig. 11 systems."""
    if system == "sendfile":
        return sendfile_run(resolution, frames, profile=profile, seed=seed)
    if system in ("lunar_fast", "lunar_slow"):
        return lunar_streaming_run(system.split("_")[1], resolution, frames, profile=profile, seed=seed)
    raise ValueError("unknown streaming system %r" % (system,))


def frames_for_resolution(resolution, quick=False):
    """Pick a frame count that keeps simulated event counts tractable."""
    size = image_size_bytes(resolution)
    budget = 40_000_000 if quick else 150_000_000
    return max(4, min(60, budget // size))
