"""Outside-in layer tracing for the traced benchmark run.

The benchmark never edits ``repro``: it times each layer by swapping a
timing wrapper in for the layer's public entry point, and swaps the
original back afterwards. A function is replaced wherever a loaded
module holds a reference to it (``from x import f`` copies the binding),
a method on its class. Wrappers keep a per-thread span stack,
so a layer's self time is its busy time minus that of wrapped layers
running inside it.

A target that no longer exists is reported as absent (its metrics read 0
and the layer is named on stderr) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()


def _len_result(args, kwargs, result):
    return len(result)


def _batch_of_arg(index):
    def items(args, kwargs, result):
        return int(args[index].shape[0])
    return items


def _steps(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    return int(config.steps) if config is not None else 0


def _frames_of_outputs(args, kwargs, result):
    return int(args[0][0].shape[0])


def _frames_and_kept(args, kwargs, result):
    return len(result), sum(len(detections) for detections in result)


def _candidates(args, kwargs, result):
    return int(args[0].shape[0])


def _outcomes(args, kwargs, result):
    return len(args[0])


def _calibration_frames(args, kwargs, result):
    return int(result.frames)


#: Layers the traced run times: (layer, "module:attribute", items-of-call).
#: ``items`` maps (args, kwargs, result) to the work one call did, or to
#: (work, extra count); ``None`` means the layer reports busy time and
#: calls only. Layers sharing a name (``eval.score``) sum.
TIMED_LAYERS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    # attack_train
    ("attack.train", "repro.attack.trainer:train_patch_attack", _steps),
    ("gan.warmup", "repro.gan.trainer:train_gan", None),
    ("scene.frame_pool", "repro.scene.video:sample_training_frames", _len_result),
    ("gan.generator", "repro.gan.generator:PatchGenerator.forward", _batch_of_arg(1)),
    ("gan.discriminator", "repro.gan.discriminator:PatchDiscriminator.forward",
     _batch_of_arg(1)),
    ("eot.transform", "repro.eot.compose:EOTPipeline.sample_and_apply", None),
    ("patch.composite", "repro.patch.apply:apply_patches", None),
    ("detection.forward", "repro.detection.model:TinyYolo.forward", _batch_of_arg(1)),
    ("nn.backward", "repro.nn.tensor:Tensor.backward", None),
    ("nn.optim", "repro.nn.optim:Adam.step", None),
    # challenge_eval
    ("eval.challenges", "repro.eval.protocol:evaluate_challenges", _len_result),
    ("scene.render", "repro.scene.video:render_run", _len_result),
    ("detection.postprocess", "repro.detection.decode:detections_from_outputs",
     _frames_and_kept),
    ("detection.decode", "repro.detection.decode:decode_heads", _frames_of_outputs),
    ("detection.nms", "repro.detection.nms:non_max_suppression", _candidates),
    ("eval.score", "repro.eval.metrics:classify_frame", None),
    ("eval.score", "repro.eval.metrics:score_video", _outcomes),
    # drive
    ("av.step", "repro.av.pipeline:AvPipeline.step", None),
    ("nn.int8_forward", "repro.nn.quant:QuantizedDetector.__call__", _batch_of_arg(1)),
    ("av.confirm", "repro.av.confirmation:DetectionConfirmer.update", None),
    ("av.plan", "repro.av.planner:RulePlanner.decide", None),
    ("nn.calibrate", "repro.nn.quant:calibrate_detector", _calibration_frames),
    # serve_stream
    ("serve.submit", "repro.serve.server:DetectionServer.submit", None),
)

#: Layers that count calls only.
COUNTED_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("runtime.guard_checks", "repro.runtime.guard:DivergenceGuard.check"),
)

#: Timed layers that have wrapped layers inside them report self time.
NESTING_LAYERS = ("attack.train", "gan.warmup", "eval.challenges",
                  "detection.postprocess", "av.step")

#: Timed layers whose item count is reported.
ITEM_LAYERS = tuple(dict.fromkeys(
    name for name, _, items in TIMED_LAYERS if items is not None))


class LayerStats:
    __slots__ = ("busy_s", "child_s", "calls", "items", "extra")

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.child_s = 0.0
        self.calls = 0
        self.items = 0
        self.extra = 0


class LayerTracer:
    """Install timing wrappers, collect per-layer totals, restore."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {}
        self.absent: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._local = threading.local()

    # -- wrappers ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn: Callable, items: Optional[Callable]) -> Callable:
        stats = self.stats.setdefault(name, LayerStats())
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.busy_s += elapsed
                stats.child_s += children
                stats.calls += 1
            if items is not None:
                counted = items(args, kwargs, result)
                if isinstance(counted, tuple):
                    counted, extra = counted
                    stats.extra += extra
                stats.items += counted
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, LayerStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ---------------------------------------------
    def _resolve(self, target: str):
        module_name, _, attr = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            return owner, parts[-1], getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            return None

    def _patch(self, owner, attr: str, replacement) -> None:
        # ``_MISSING`` marks an inherited method: restore by deleting.
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerTracer":
        targets = [(name, target, items, True) for name, target, items in TIMED_LAYERS]
        targets += [(name, target, None, False) for name, target in COUNTED_LAYERS]
        for name, target, items, timed in targets:
            resolved = self._resolve(target)
            if resolved is None:
                self.stats.setdefault(name, LayerStats())
                if f"{name} ({target})" not in self.absent:
                    self.absent.append(f"{name} ({target})")
                continue
            owner, attr, original = resolved
            wrapper = (self._timed(name, original, items) if timed
                       else self._counted(name, original))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A module-level function: rebind every loaded module's reference
            # to it, since ``from x import f`` copied the binding.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- report -----------------------------------------------------------
    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics: ``{name: (value, unit)}``."""
        out: Dict[str, Tuple[float, str]] = {}
        for name, _, _ in TIMED_LAYERS:
            stats = self.stats.get(name, LayerStats())
            out[f"{name}_s"] = (stats.busy_s, "s")
            out[f"{name}.calls"] = (float(stats.calls), "count")
            if name in NESTING_LAYERS:
                out[f"{name}.self_s"] = (stats.busy_s - stats.child_s, "s")
            if name in ITEM_LAYERS:
                out[f"{name}.items"] = (float(stats.items), "count")
        for name, _ in COUNTED_LAYERS:
            out[name] = (float(self.stats.get(name, LayerStats()).calls), "count")
        post = self.stats.get("detection.postprocess", LayerStats())
        out["detection.kept_per_frame"] = (
            post.extra / post.items if post.items else 0.0, "detections")
        return out
