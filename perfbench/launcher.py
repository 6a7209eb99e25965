"""Start ``repro`` as users deploy it, optionally with layer tracing.

    python perfbench/launcher.py [--trace-out FILE] -- serve --listen ...

Everything after ``--`` goes to the ``repro`` CLI unchanged.  With
``--trace-out`` the launcher first wraps the public call of every layer
(:data:`spans.LAYER_OF`) in a :class:`spans.SpanRecorder`, and writes the
spans to FILE once the CLI returns, i.e. after the gateway drained.
Without it the server runs untouched.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _shape(args, _out):
    req = args[1]
    return [req.kernel, req.flow, req.target, req.size]


def _instructions(_args, out):
    return getattr(out, "instructions", None)


def install(rec) -> None:
    """Wrap each layer's public calls (see :data:`spans.LAYER_OF`)."""
    from repro.harness.flows import FlowRunner
    from repro.jit.compilers import CompiledKernel, MonoJIT, OptimizingJIT
    from repro.kernels.suite import Kernel
    from repro.service import cache, core, gateway
    from repro.service.admission import AdmissionQueue
    from repro.service.singleflight import Flight

    methods = [
        (core.KernelService, "handle", _shape),
        (AdmissionQueue, "admit", None),
        (cache.KernelCache, "get", None),
        (cache.KernelCache, "put", None),
        (cache.KernelCache, "put_bytes", None),
        (cache.KernelCache, "claim_leader", None),
        (cache.KernelCache, "release_leader", None),
        (Flight, "wait", None),
        (Kernel, "instantiate", None),
        (FlowRunner, "scalar_ir", None),
        (FlowRunner, "vectorized_ir", None),
        (FlowRunner, "native_ir", None),
        (FlowRunner, "split_ir", None),
        (FlowRunner, "bytecode_sizes", None),
        (FlowRunner, "verify", None),
        (FlowRunner, "make_buffers", None),
        (MonoJIT, "compile", None),
        (OptimizingJIT, "compile", None),
        (CompiledKernel, "translated", None),
    ]
    for cls, attr, extra in methods:
        name = f"{cls.__name__}.{attr}"
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), extra))
    # Module-level functions are patched where their caller looks them up.
    cache.unpack_kernel = rec.wrap("cache.unpack_kernel", cache.unpack_kernel)
    core.execute_phase = rec.wrap("execute_phase", core.execute_phase,
                                  _instructions)
    gateway.response_payload = rec.wrap("wire.response_payload",
                                        gateway.response_payload)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, SRC)
    from repro import cli

    rec = None
    if trace_out is not None:
        from spans import SpanRecorder

        rec = SpanRecorder()
        install(rec)
    rc = cli.main(argv)
    if rec is not None:
        rec.dump(trace_out)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
