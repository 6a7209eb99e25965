"""The compilation flows of the paper's Figure 4.

Letters follow the figure as used in the evaluation ratios:

* **A** — scalar bytecode executed by the Mono-like JIT;
* **C** — vectorized bytecode executed by the Mono-like JIT;
* **D** — vectorized bytecode compiled by the gcc4cli-like online compiler;
* **E** — native scalar compilation;
* **F** — native (monolithic) vectorized compilation.

(The scalar-bytecode-through-gcc4cli flow is also provided for the
low-scalar-overhead claim.)  Each flow compiles a kernel instance, executes
it on the cycle-cost VM, checks the results against the numpy reference,
and reports cycles plus compile-time/bytecode statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..api import execute_phase, resolve_engine
from ..machine.registry import DEFAULT_ENGINE
from ..bytecode import decode_function, encode_function
from ..errors import ReproError
from ..frontend import compile_source
from ..ir import Function
from ..jit import CompiledKernel, MonoJIT, NativeBackend, OptimizingJIT
from ..kernels import Kernel, KernelInstance, get_kernel
from ..machine import ArrayBuffer
from ..targets import Target, get_target
from ..vectorizer import native_config, split_config, vectorize_function

__all__ = ["FlowResult", "FlowRunner", "FLOWS"]

#: flow name -> (offline form, online compiler class)
FLOWS = {
    "split_scalar_mono": ("scalar", MonoJIT),
    "split_vec_mono": ("split", MonoJIT),
    "split_scalar_gcc4cli": ("scalar", OptimizingJIT),
    "split_vec_gcc4cli": ("split", OptimizingJIT),
    "native_scalar": ("scalar", NativeBackend),
    "native_vec": ("native", NativeBackend),
}


@dataclass
class FlowResult:
    """One kernel execution under one flow."""

    kernel: str
    flow: str
    target: str
    cycles: float
    value: object
    compile_seconds: float
    bytecode_bytes: int
    checked: bool
    stats: dict = field(default_factory=dict)


class CheckError(ReproError, AssertionError):
    """A flow produced results that disagree with the numpy reference.

    Also an :class:`AssertionError` for backward compatibility with tests
    that assert on the check failure directly.
    """


class FlowRunner:
    """Compiles and runs kernels through the Figure 4 flows, with caching.

    ``base_misalign`` controls the simulated base alignment of every array
    (0 = the JIT/native runtime aligns allocations, the default story).
    ``vectorizer_overrides`` feed the ablation experiments (e.g.
    ``enable_alignment_opts=False`` for §V-A.b).

    ``engine`` selects the execution engine: ``"threaded"`` (default) runs
    pre-decoded closure code (:mod:`repro.machine.threaded`), ``"reference"``
    runs the decode-per-instruction reference interpreter.  The two are
    differential-tested to be bit-identical (cycles, values, op counts), so
    every figure/table is engine-independent.

    Every :meth:`run` is instrumented as the canonical span taxonomy of
    ``docs/observability.md``: one ``flow`` root containing exactly the
    five phase spans (``frontend`` / ``vectorize`` / ``encode`` / ``jit``
    / ``vm``), with cache hits and skipped stages recorded as span
    attributes rather than missing spans.  When :mod:`repro.obs` is
    disabled the instrumentation is a handful of no-op calls.
    """

    def __init__(
        self,
        *,
        base_misalign: int = 0,
        check: bool = True,
        vectorizer_overrides: dict | None = None,
        use_bytecode_roundtrip: bool = True,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.base_misalign = base_misalign
        self.check = check
        self.vectorizer_overrides = dict(vectorizer_overrides or {})
        self.use_bytecode_roundtrip = use_bytecode_roundtrip
        self.engine = resolve_engine(engine)
        self._scalar_cache: dict = {}
        self._vec_cache: dict = {}
        self._split_cache: dict = {}
        self._native_cache: dict = {}
        self._compiled_cache: dict = {}
        self._sizes_cache: dict = {}

    def config(self) -> dict:
        """Constructor kwargs reproducing this runner (minus its caches);
        used to rebuild equivalent runners inside worker processes."""
        return {
            "base_misalign": self.base_misalign,
            "check": self.check,
            "vectorizer_overrides": dict(self.vectorizer_overrides),
            "use_bytecode_roundtrip": self.use_bytecode_roundtrip,
            "engine": self.engine,
        }

    # -- offline stage --------------------------------------------------------

    def scalar_ir(self, instance: KernelInstance) -> Function:
        key = (instance.name, instance.size)
        if key not in self._scalar_cache:
            module = compile_source(instance.source, instance.name)
            self._scalar_cache[key] = module[instance.entry]
        return self._scalar_cache[key]

    def vectorized_ir(self, instance: KernelInstance) -> Function:
        """The split-form IR straight out of the offline vectorizer
        (before the bytecode round-trip)."""
        key = (instance.name, instance.size)
        if key not in self._vec_cache:
            cfg = split_config(**self.vectorizer_overrides)
            self._vec_cache[key] = vectorize_function(
                self.scalar_ir(instance), cfg
            )
        return self._vec_cache[key]

    def split_ir(self, instance: KernelInstance) -> Function:
        key = (instance.name, instance.size)
        if key not in self._split_cache:
            vec = self.vectorized_ir(instance)
            if self.use_bytecode_roundtrip:
                vec = decode_function(encode_function(vec))
            self._split_cache[key] = vec
        return self._split_cache[key]

    def native_ir(self, instance: KernelInstance, target: Target) -> Function:
        key = (instance.name, instance.size, target.name)
        if key not in self._native_cache:
            overrides = dict(self.vectorizer_overrides)
            overrides.pop("assume_noalias", None)
            cfg = native_config(target, **overrides)
            self._native_cache[key] = vectorize_function(
                self.scalar_ir(instance), cfg
            )
        return self._native_cache[key]

    def flow_ir(self, instance: KernelInstance, flow: str,
                target: Target) -> Function:
        """The IR ``flow``'s online compiler consumes: the scalar IR, the
        split-form bytecode (decoded), or the target's native vector IR."""
        form = FLOWS[flow][0]
        if form == "scalar":
            return self.scalar_ir(instance)
        if form == "split":
            return self.split_ir(instance)
        return self.native_ir(instance, target)

    def bytecode_sizes(self, instance: KernelInstance) -> tuple[int, int]:
        """(scalar, vectorized) encoded byte sizes for this kernel."""
        key = (instance.name, instance.size)
        if key not in self._sizes_cache:
            self._sizes_cache[key] = (
                len(encode_function(self.scalar_ir(instance))),
                len(encode_function(self.split_ir(instance))),
            )
        return self._sizes_cache[key]

    # -- online stage ----------------------------------------------------------

    def compiled(
        self, instance: KernelInstance, flow: str, target: Target
    ) -> CompiledKernel:
        """The offline+online phases, spanned — see the class docstring.

        Each phase span is emitted even when its work is cached (attr
        ``cached=True``) or inapplicable to this flow (``skipped=True``),
        so one :meth:`run` always yields the same five-span shape and
        per-phase attribution stays truthful: a warm cache shows up as a
        near-zero-duration span, not a missing one.
        """
        form, jit_cls = FLOWS[flow]
        ir_key = (instance.name, instance.size)
        with obs.span("frontend", phase="frontend",
                      kernel=instance.name) as sp:
            sp.set(cached=ir_key in self._scalar_cache)
            self.scalar_ir(instance)
        with obs.span("vectorize", phase="vectorize", form=form) as sp:
            if form == "scalar":
                sp.set(skipped=True)
            elif form == "split":
                sp.set(cached=ir_key in self._vec_cache)
                self.vectorized_ir(instance)
            else:
                sp.set(cached=(*ir_key, target.name) in self._native_cache,
                       mode="native", target=target.name)
                self.native_ir(instance, target)
        with obs.span("encode", phase="encode") as sp:
            if form == "split" and self.use_bytecode_roundtrip:
                sp.set(cached=ir_key in self._split_cache)
            else:
                sp.set(skipped=True)
            ir = self.flow_ir(instance, flow, target)
        key = (instance.name, instance.size, flow, target.name)
        with obs.span("jit", phase="jit", target=target.name,
                      compiler=jit_cls.name) as sp:
            ck = self._compiled_cache.get(key)
            if ck is None:
                ck = self._compiled_cache[key] = jit_cls().compile(ir, target)
                sp.set(cached=False, compile_seconds=ck.compile_seconds)
            else:
                sp.set(cached=True)
            if ck.degraded:
                sp.set(degraded=True, events=[e.cause for e in ck.events])
        return ck

    # -- execution ---------------------------------------------------------

    def make_buffers(self, instance: KernelInstance) -> dict[str, ArrayBuffer]:
        fn = self.scalar_ir(instance)
        bufs: dict[str, ArrayBuffer] = {}
        for arr in fn.array_params:
            data = instance.arrays[arr.name]
            bufs[arr.name] = ArrayBuffer(
                arr.elem, int(np.asarray(data).size),
                base_misalign=self.base_misalign,
                data=np.asarray(data),
            )
        return bufs

    def run(
        self, instance: KernelInstance, flow: str, target: Target | str
    ) -> FlowResult:
        if isinstance(target, str):
            target = get_target(target)
        with obs.span("flow", phase="flow", kernel=instance.name,
                      flow=flow, target=target.name) as root:
            result = self._run(instance, flow, target)
            root.set(cycles=result.cycles, checked=result.checked)
        return result

    def _run(
        self, instance: KernelInstance, flow: str, target: Target
    ) -> FlowResult:
        ck = self.compiled(instance, flow, target)
        bufs = self.make_buffers(instance)
        result = execute_phase(
            ck, instance.scalar_args, bufs, engine=self.engine
        )
        checked = False
        if self.check:
            self.verify(instance, bufs, result.value)
            checked = True
        scalar_bytes, vec_bytes = self.bytecode_sizes(instance)
        form = FLOWS[flow][0]
        return FlowResult(
            kernel=instance.name,
            flow=flow,
            target=target.name,
            cycles=result.cycles,
            value=result.value,
            compile_seconds=ck.compile_seconds,
            bytecode_bytes=scalar_bytes if form == "scalar" else vec_bytes,
            checked=checked,
            stats=dict(ck.stats),
        )

    def verify(self, instance: KernelInstance, bufs, value) -> None:
        kernel = instance.kernel
        for name, expected in instance.expected_arrays.items():
            got = bufs[name].read_elements().reshape(np.asarray(expected).shape)
            expected = np.asarray(expected)
            if expected.dtype.kind == "f":
                if not np.allclose(got, expected, rtol=kernel.rtol, atol=1e-5):
                    worst = np.abs(got - expected).max()
                    raise CheckError(
                        f"{instance.name}: array {name} mismatch "
                        f"(max abs err {worst})"
                    )
            else:
                diff = np.abs(got.astype(np.int64) - expected.astype(np.int64))
                if diff.max() > kernel.int_atol:
                    raise CheckError(
                        f"{instance.name}: array {name} mismatch "
                        f"(max abs err {diff.max()})"
                    )
        if instance.expected_return is not None:
            exp = instance.expected_return
            if isinstance(exp, float):
                if not np.isclose(float(value), exp, rtol=kernel.rtol):
                    raise CheckError(
                        f"{instance.name}: return {value} != {exp}"
                    )
            else:
                if int(value) != int(exp):
                    raise CheckError(
                        f"{instance.name}: return {value} != {exp}"
                    )
