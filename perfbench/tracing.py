"""Outside-in instrumentation of the ifalign modules.

Nothing here edits the library: every probe replaces a public function or
method at the names its callers look it up by (module attributes and class
attributes), so the library's own calls go through the probe.

* :class:`UpdateProbe` (untraced runs) times each ``update()`` call of the
  aligners that ``harness.make_aligner`` builds, plus the per-run work
  (``AlignmentData.from_simulation`` and ``run_alignment``).  It can also
  pause between updates to time a calibration slice (:mod:`speed`).
  Monte-Carlo pool workers inherit the probe through ``fork`` and spool
  their samples to files that the parent collects.
* :class:`SpanRecorder` (traced runs) records one span per call of every
  function in :data:`TRACED`, keeps the spans in memory, and reduces them
  to ``calls``/``busy_s``/``self_s`` per span name.
"""

import itertools
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import speed

# Span name -> (module, attribute path) of the traced callable.
TRACED = {
    "simulate.generate_truth": ("simulate", "generate_truth"),
    "simulate.sample_imu": ("simulate", "sample_imu"),
    "simulate.gps_fixes": ("simulate", "gps_fixes"),
    "increments.sculling_increment": ("increments", "sculling_increment"),
    "increments.body_rotvec": ("increments", "body_rotvec"),
    "increments.double_integral_increment": ("increments", "double_integral_increment"),
    "earth.aiding_kinematics": ("earth", "aiding_kinematics"),
    "attitude.rotvec_to_dcm": ("attitude", "rotvec_to_dcm"),
    "attitude.compose_attitude": ("attitude", "compose_attitude"),
    "attitude.dcm_to_euler": ("attitude", "dcm_to_euler"),
    "align.vif.update": ("align", "VelocityIntegrationAligner.update"),
    "align.pif.update": ("align", "PositionIntegrationAligner.update"),
    "quest.accumulate": ("quest", "accumulate"),
    "quest.optimal_quaternion": ("quest", "optimal_quaternion"),
    "harness.run_alignment": ("harness", "run_alignment"),
    "harness.monte_carlo": ("harness", "monte_carlo"),
    "harness.AlignmentData.interval": ("harness", "AlignmentData.interval"),
    "harness.AlignmentData.fix": ("harness", "AlignmentData.fix"),
    "harness.AlignmentData.from_simulation": ("harness", "AlignmentData.from_simulation"),
    "harness.AlignmentData.from_logs": ("harness", "AlignmentData.from_logs"),
    "harness.RunReport.write_csv": ("harness", "RunReport.write_csv"),
    "io.read_imu": ("io", "read_imu"),
    "io.read_gps": ("io", "read_gps"),
    "io.read_truth": ("io", "read_truth"),
    "io.interpolate_fixes": ("io", "interpolate_fixes"),
}

_READERS = ("io.read_imu", "io.read_gps", "io.read_truth")


def _ifalign_modules():
    return [m for name, m in sys.modules.items()
            if (name == "ifalign" or name.startswith("ifalign.")) and m is not None]


def _rebind(module_name, path, make_wrapper):
    """Replace a callable everywhere the ifalign package binds it.

    Functions are rebound in every ``ifalign`` module namespace that holds
    them (``from .quest import accumulate`` copies the binding), methods on
    their class.  Returns the original callable.
    """
    module = sys.modules[f"ifalign.{module_name}"]
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
            return raw.__func__
        setattr(cls, attr, make_wrapper(raw))
        return raw
    original = getattr(module, path)
    wrapper = make_wrapper(original)
    for mod in _ifalign_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
    return original


class SpanRecorder:
    """In-memory span log: name, start, end and parent span of every call."""

    def __init__(self):
        self.names = list(TRACED)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.raised = {}           # span name -> calls that raised
        self.rows_read = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._stack = []

    def install(self):
        for name, (module_name, path) in TRACED.items():
            _rebind(module_name, path, lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name, fn):
        name_id = self._name_id[name]
        stack = self._stack
        clock = time.perf_counter_ns
        push_name, push_parent = self.name_ids.append, self.parents.append
        push_start, push_end, ends = self.starts.append, self.ends.append, self.ends
        on_return = self._on_return if (name in _READERS or name.endswith("write_csv")) else None

        def traced(*args, **kwargs):
            index = len(ends)
            push_name(name_id)
            push_parent(stack[-1] if stack else -1)
            push_end(0)
            stack.append(index)
            push_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[index] = clock()
                stack.pop()
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            ends[index] = clock()
            stack.pop()
            if on_return is not None:
                on_return(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_return(self, name, args, result):
        if name.endswith("write_csv"):
            self.bytes_written += os.path.getsize(args[1])
        else:
            self.rows_read += int(result[0].shape[0])
            self.bytes_read += os.path.getsize(args[0])

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
        )

    def summary(self):
        """``{name: (calls, busy_s, self_s)}``; self time excludes child spans."""
        name_id = np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.int64)
        duration = (np.frombuffer(self.ends, dtype=np.int64)
                    - np.frombuffer(self.starts, dtype=np.int64)).astype(float)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=duration.size)
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        busy = np.bincount(name_id, weights=duration, minlength=n) * 1e-9
        own = np.bincount(name_id, weights=duration - child, minlength=n) * 1e-9
        return {name: (int(calls[i]), float(busy[i]), float(own[i]))
                for i, name in enumerate(self.names)}


class UpdateProbe:
    """Per-update latency and per-run busy time, with tracing off.

    With ``calibrate``, the first update that ends ``speed.PERIOD_NS`` or
    more after the previous calibration slice is followed by another slice.
    Its duration goes to ``slice_ns`` and the whole pause to ``paused_ns``.
    An update's speed factor is the mean of those of the slices just before
    and just after it, or NaN when the two differ by more than
    ``speed.STEADY``: the host changed speed in between, so the update's
    own speed is unknown.  Update latencies never include a pause; the
    per-run times do.

    Samples taken in a forked pool worker are written to ``spool_dir`` after
    each run; :meth:`collect` merges them with the parent's own samples.
    """

    def __init__(self, spool_dir, calibrate):
        self.spool_dir = Path(spool_dir)
        self.calibrate = calibrate
        self.latency_ns = {}     # method -> update latencies
        self.window = {}         # method -> per update, index of the next slice
        self.run_ns = array("q")
        self.slice_ns = array("q")
        self.paused_ns = array("q")
        self._next_slice = 0
        self._owner = os.getpid()
        self._flushes = itertools.count()

    def install(self):
        from ifalign import harness

        os.register_at_fork(after_in_child=self._forget)
        clock = time.perf_counter_ns
        calibrate = self.calibrate
        slices = self.slice_ns
        make_aligner = harness.make_aligner

        def timed_make_aligner(method, *args, **kwargs):
            aligner = make_aligner(method, *args, **kwargs)
            update = aligner.update
            latency = self.latency_ns.setdefault(method, array("q"))
            window = self.window.setdefault(method, array("q"))

            def timed_update(interval, fix_prev, fix_next):
                start = clock()
                try:
                    return update(interval, fix_prev, fix_next)
                finally:
                    end = clock()
                    latency.append(end - start)
                    if calibrate:
                        window.append(len(slices))
                        if end >= self._next_slice:
                            self._slice(end)

            aligner.update = timed_update
            return aligner

        harness.make_aligner = timed_make_aligner
        _rebind("harness", "AlignmentData.from_simulation", self._time_run)
        _rebind("harness", "run_alignment", self._time_run_and_flush)
        if calibrate:
            speed.kernel()  # the first call in a process pays one-off numpy set-up
        self._next_slice = clock() + speed.PERIOD_NS

    def _slice(self, paused_at):
        self.slice_ns.append(speed.timed_slice())
        resumed = time.perf_counter_ns()
        self.paused_ns.append(resumed - paused_at)
        self._next_slice = resumed + speed.PERIOD_NS

    def _forget(self):
        for samples in (*self.latency_ns.values(), *self.window.values(),
                        self.run_ns, self.slice_ns, self.paused_ns):
            del samples[:]
        self._next_slice = time.perf_counter_ns() + speed.PERIOD_NS

    def _time_run(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.run_ns.append(time.perf_counter_ns() - start)

        return timed

    def _time_run_and_flush(self, fn):
        timed = self._time_run(fn)

        def flushed(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                if os.getpid() != self._owner:
                    self._flush()

        return flushed

    def _arrays(self):
        arrays = {key: np.frombuffer(getattr(self, key), dtype=np.int64)
                  for key in ("run_ns", "slice_ns", "paused_ns")}
        for method, samples in self.latency_ns.items():
            arrays[f"latency_ns.{method}"] = np.frombuffer(samples, dtype=np.int64)
            arrays[f"window.{method}"] = np.frombuffer(self.window[method], dtype=np.int64)
        return arrays

    def _flush(self):
        np.savez(self.spool_dir / f"spool-{os.getpid()}-{next(self._flushes)}",
                 **self._arrays())
        self._forget()

    def collect(self):
        """``(latency, factor, other)``: this process's samples plus spooled ones.

        ``latency`` and ``factor`` map each method to its update latencies
        (ns) and their speed factors (NaN where unknown; empty without
        ``calibrate``);
        ``other`` holds ``run_ns``, ``slice_ns`` and ``paused_ns``.
        """
        chunks = [self._arrays()]
        for path in sorted(self.spool_dir.glob("spool-*.npz")):
            with np.load(path) as spooled:
                chunks.append({key: spooled[key] for key in spooled.files})
            path.unlink()
        latency, factor = {}, {}
        for chunk in chunks:
            slices = chunk["slice_ns"] / speed.NOMINAL_NS
            for key in chunk:
                if key.startswith("latency_ns."):
                    method = key.split(".", 1)[1]
                    latency.setdefault(method, []).append(chunk[key])
                    if self.calibrate:
                        after = np.minimum(chunk[f"window.{method}"], slices.size - 1)
                        before = slices[np.maximum(after - 1, 0)]
                        after = slices[after]
                        steady = np.maximum(before, after) <= speed.STEADY * np.minimum(before, after)
                        factor.setdefault(method, []).append(
                            np.where(steady, 0.5 * (before + after), np.nan))
        other = {key: np.concatenate([c[key] for c in chunks])
                 for key in ("run_ns", "slice_ns", "paused_ns")}
        return ({m: np.concatenate(parts) for m, parts in latency.items()},
                {m: np.concatenate(parts) for m, parts in factor.items()},
                other)
