//! The in-memory span buffer behind `trace.json`.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; the buffer is allocated before any timed region and
//! never grows inside one (a full buffer counts what it drops instead).
//! A layer's self time is its span minus the part its children cover.

use crate::clock::now_ns;

/// One timed interval. `parent == 0` marks a root; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub workload: &'static str,
    /// `<layer>.<call>`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (tasks, ops, tokens or bytes — whatever
    /// the boundary counts), so ratios are taken where the work happens.
    pub count: u64,
}

/// The span buffer.
#[derive(Debug)]
pub struct Spans {
    workload: &'static str,
    buf: Vec<Span>,
    pub dropped: u64,
}

/// Tasks per block span.
pub const BLOCK_TASKS: u64 = 1_024;
/// Individual calls shorter than this get no span of their own.
pub const SLOW_CALL_NS: u64 = 50_000;

impl Spans {
    pub fn new(workload: &'static str, capacity: usize) -> Self {
        Self { workload, buf: Vec::with_capacity(capacity), dropped: 0 }
    }

    /// Records a finished span and returns its id (0 when the buffer is
    /// full and the span was dropped).
    pub fn push(
        &mut self,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u32 {
        if self.buf.len() == self.buf.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = self.buf.len() as u32 + 1;
        self.buf.push(Span { id, parent, workload: self.workload, name, start_ns, end_ns, count });
        id
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Self::close`]. Used for the enclosing pass and stack spans, so
    /// children can name their parent while it is still running.
    pub fn open(&mut self, parent: u32, name: &'static str) -> u32 {
        let now = now_ns();
        self.push(parent, name, now, now, 0)
    }

    pub fn close(&mut self, id: u32, count: u64) {
        if let Some(span) = id.checked_sub(1).and_then(|i| self.buf.get_mut(i as usize)) {
            span.end_ns = now_ns();
            span.count = count;
        }
    }

    /// Records a call's span if it was slow enough to matter.
    pub fn slow_call(
        &mut self,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) {
        if end_ns - start_ns >= SLOW_CALL_NS {
            self.push(parent, name, start_ns, end_ns, count);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_slow_calls_get_spans_and_full_buffers_count_drops() {
        let mut spans = Spans::new("w", 3);
        let root = spans.push(0, "pass.timed", 0, 4 * SLOW_CALL_NS, 0);
        spans.push(root, "stack.block", 10, 40, 1024);
        spans.slow_call(root, "finder.record", 50, 50 + SLOW_CALL_NS, 1);
        spans.slow_call(root, "finder.record", 60, 61, 1);
        assert_eq!(spans.spans().len(), 3, "the fast call got no span");
        assert_eq!(spans.push(root, "x.y", 0, 1, 0), 0);
        assert_eq!(spans.dropped, 1);
    }
}
