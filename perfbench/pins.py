"""Pinned outputs the benchmark checks every result against.

The space side of the paper is the fixed contract: a change that only
makes the simulator faster must leave all of these untouched.  To
re-derive them, run the same entry points the workloads call and print
the fields named below.
"""

#: pf_family: canonical event-stream digest per manager at M=8192,
#: n=128, c=50 (``TaskResult.event_digest``, jobs=1).
PF_DIGESTS = {
    "first-fit": "b03f25b14f330b8d6a684e3284d5853b056b61740699ab5dd8bfda9878a632a8",
    "best-fit": "b03f25b14f330b8d6a684e3284d5853b056b61740699ab5dd8bfda9878a632a8",
    "segregated-fit": "dae0d52c58eff72f7fe01fbc2b77a25f689d7adfd813f3962e7b1a1ba8fbb1ae",
    "sliding-compactor": "b5ba770386d50d7e947ea5a59f44339f44d790aaf33a42ef21cf22f28aeb7cdc",
    "window-compactor": "ea55ea440ba51d42ba3a2523d5516d26cb17426aed5e1444f2d9464abd06f037",
    "bp-collector": "915130775fd05621409bd10dd04f5e5b1929c97228c7ed90167b861a3811b218",
    "theorem2": "c45fb13e008e4ed750db8154e7b036b80084dc6d5fc360985854b44647e35955",
    "mark-compact": "b03f25b14f330b8d6a684e3284d5853b056b61740699ab5dd8bfda9878a632a8",
    "semispace": "b03f25b14f330b8d6a684e3284d5853b056b61740699ab5dd8bfda9878a632a8",
}

#: churn: (heap_size, total_moved, event_count) per manager for
#: RandomChurnWorkload(M=4096, n=64, c=10, operations=1500, seed=11).
CHURN = {
    "best-fit": (4050, 0, 1500),
    "bp-collector": (26444, 0, 1500),
    "buddy": (4735, 0, 1500),
    "first-fit": (4124, 0, 1500),
    "first-fit-aligned": (4671, 0, 1500),
    "highest-placement": (26444, 0, 1500),
    "mark-compact": (4124, 0, 1500),
    "next-fit": (4257, 0, 1500),
    "random-mover": (5366, 2618, 1632),
    "random-placement": (5181, 0, 1500),
    "robson": (4671, 0, 1500),
    "robson-rounded": (4769, 0, 1500),
    "segregated-fit": (6104, 0, 1500),
    "semispace": (4205, 0, 1500),
    "sliding-compactor": (4110, 2595, 1673),
    "theorem2": (4734, 76, 1509),
    "window-compactor": (4002, 1315, 1563),
    "worst-fit": (5074, 0, 1500),
}

#: sweep_audit: ``EngineStats.grid_digest`` of the cold sweep over
#: c in {5, 10, 20, 50, 100} x {first-fit, sliding-compactor, theorem2}
#: at M=4096, n=64.
SWEEP_GRID_DIGEST = "44b2e7529b37f7e1943d60e2fc35c447dec16df7b4cac16a1d41820c42faa010"
