//! Host-time spans around the benchmark's own calls into each layer.
//!
//! The untraced runs use [`Off`], whose marks are empty and compile away;
//! the traced run uses [`Spans`], which keeps one self-time sample per
//! call in memory. Trace-sink time is measured by [`TimedSink`], a
//! wrapper around the sink the benchmark hands the kernel; sink spans
//! nest inside `access`, `pump` and install spans, and are subtracted from
//! them so every layer reports self time.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use hipec_core::{TraceEvent, TraceRecord, TraceSink};

/// A layer boundary the benchmark times from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `HipecKernel::access` returning a hit.
    Hit,
    /// `HipecKernel::access` returning a page-in.
    PageIn,
    /// `HipecKernel::access` returning another fault kind.
    OtherFault,
    /// `HipecKernel::access` returning `Err`.
    AccessError,
    /// `HipecKernel::pump`.
    Pump,
    /// `vm_map_hipec` / `vm_map_hipec_as`.
    Install,
    /// `hipec_lang::compile`, through `PolicyKind::program`.
    Compile,
    /// `kernel_stats` followed by `stats_export`.
    Scrape,
}

pub const LAYERS: usize = 8;

/// Opens and closes spans; see the module docs.
pub trait Probe {
    type Mark: Copy;
    fn open(&self) -> Self::Mark;
    fn close(&mut self, mark: Self::Mark, layer: Layer);
}

/// No spans: the untraced runs.
pub struct Off;

impl Probe for Off {
    type Mark = ();
    #[inline(always)]
    fn open(&self) {}
    #[inline(always)]
    fn close(&mut self, _: (), _: Layer) {}
}

/// Calls and host time spent inside the trace sink.
#[derive(Debug, Default)]
pub struct SinkTally {
    pub calls: Cell<u64>,
    pub ns: Cell<u64>,
}

/// Per-call self-time samples (ns) for each [`Layer`].
#[derive(Default)]
pub struct Spans {
    pub sink: Rc<SinkTally>,
    pub samples: [Vec<u64>; LAYERS],
}

impl Probe for Spans {
    type Mark = (Instant, u64);

    #[inline(always)]
    fn open(&self) -> (Instant, u64) {
        (Instant::now(), self.sink.ns.get())
    }

    #[inline(always)]
    fn close(&mut self, (start, sink_before): (Instant, u64), layer: Layer) {
        let span = start.elapsed().as_nanos() as u64;
        let child = self.sink.ns.get() - sink_before;
        self.samples[layer as usize].push(span.saturating_sub(child));
    }
}

/// Times every record the kernel hands its trace sink.
pub struct TimedSink<S> {
    pub inner: S,
    pub tally: Rc<SinkTally>,
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&mut self, rec: &TraceRecord<TraceEvent>) {
        let start = Instant::now();
        self.inner.record(rec);
        let ns = start.elapsed().as_nanos() as u64;
        self.tally.ns.set(self.tally.ns.get() + ns);
        self.tally.calls.set(self.tally.calls.get() + 1);
    }

    fn flush_sink(&mut self) {
        self.inner.flush_sink();
    }
}

/// A writer that discards its input and counts the bytes.
#[derive(Clone, Default)]
pub struct ByteCounter(pub Rc<Cell<u64>>);

impl std::io::Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
