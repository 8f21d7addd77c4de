#!/usr/bin/env python
"""Real execution: the image-processing pipeline on local threads.

The same :class:`PipelineSpec` used in grid simulations carries real numpy
callables, so it runs unchanged on the thread backend.  numpy releases the
GIL, so replicating the heavy edge-detection stage gives genuine speedup on
a multicore host.  A :class:`RuntimeAdaptiveRunner` driving the
:class:`BottleneckGrowthPolicy` then finds that replication on its own,
growing the bottleneck stage's warm worker pool while images flow.

Run:  python examples/image_pipeline_local.py
"""

from repro.backend import (
    BottleneckGrowthPolicy,
    RuntimeAdaptiveRunner,
    ThreadBackend,
    local_config,
)
from repro.util.tables import render_table
from repro.workloads.apps import image_pipeline, make_images


def main() -> None:
    pipeline = image_pipeline()
    images = make_images(60, size=256)
    print(f"pipeline: {pipeline}")
    print(f"input: {len(images)} images of 256x256\n")

    rows = []
    for replicas in ([1, 1, 1, 1], [1, 2, 1, 1], [1, 3, 1, 1]):
        with ThreadBackend(pipeline, replicas=replicas) as backend:
            res = backend.run(images)
        assert res.outputs is not None and len(res.outputs) == len(images)
        rows.append(
            [
                str(replicas),
                f"{res.elapsed:.2f}",
                f"{res.throughput:.1f}",
                " ".join(f"{m:.3f}" for m in res.service_means),
            ]
        )
    print(
        render_table(
            ["replicas", "elapsed(s)", "imgs/s", "stage service means (s)"],
            rows,
            title="manual replication of the edge-detection stage (stage 1)",
        )
    )

    print("\nbottleneck growth (adds warm workers while images flow):")
    # Real measured stage costs are closer together than the simulated
    # weights, so accept modest imbalance before adding a worker.
    config = local_config(interval=0.05, cooldown=0.05, settle_time=0.05)
    policy = BottleneckGrowthPolicy(
        pipeline, config, max_workers=3, imbalance_threshold=1.05
    )
    runner = RuntimeAdaptiveRunner(
        pipeline,
        ThreadBackend(pipeline, max_replicas=3),
        policy=policy,
        rollback=False,
    )
    with runner:
        for seed in range(4):
            batch = make_images(20, size=256, seed=seed)
            res = runner.run(batch)
            assert res.outputs is not None and len(res.outputs) == len(batch)
            for event in res.adaptation_events:
                print(f"  event: {event.reason}")
        final = runner.backend.replica_counts()
    history = [(round(t, 2), counts) for t, counts in runner.replica_history]
    print(f"  replica history (s, counts): {history}")
    print(f"  final replicas per stage: {final}")
    print("\nnote: results depend on core count; the *shape* (stage 1 gets")
    print("the workers) is the point, not absolute speedups.")


if __name__ == "__main__":
    main()
