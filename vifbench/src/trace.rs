//! Spans recorded from the benchmark's own side of each call into a layer.
//!
//! One [`Tracer`] is the clock for both passes: `begin`/`end` always time
//! the call, and additionally keep the span when tracing is on. Spans live
//! in memory allocated up front and are written out as a Chrome
//! trace-event file when the workload ends.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: one time base for
/// every thread's spans.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub const NO_SPAN: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// 0 is the generator/control thread, `1 + w` is worker `w`.
    pub thread: u16,
    /// The audit round the span belongs to: spans of one round share it.
    pub round: u32,
    /// Index of the span that caused this one, or [`NO_SPAN`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: where it will be stored (if anywhere) and when it began.
pub struct Open {
    idx: u32,
    start_ns: u64,
}

pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<u32>,
    on: bool,
    /// Spans not kept because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer that keeps up to `capacity` spans; 0 never records.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            on: false,
            dropped: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.spans.capacity() > 0;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span on the control thread under the innermost open span.
    pub fn begin(&mut self, name: &'static str, round: u32) -> Open {
        let start_ns = now_ns();
        let mut idx = NO_SPAN;
        if self.on {
            let parent = self.open.last().copied().unwrap_or(NO_SPAN);
            idx = self.push(Span {
                name,
                thread: 0,
                round,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            if idx != NO_SPAN {
                self.open.push(idx);
            }
        }
        Open { idx, start_ns }
    }

    /// Closes `open` and returns how long it lasted, tracing or not.
    pub fn end(&mut self, open: Open) -> u64 {
        let end_ns = now_ns();
        if open.idx != NO_SPAN {
            self.spans[open.idx as usize].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(open.idx), "spans close innermost first");
        }
        end_ns - open.start_ns
    }

    /// Records a finished interval under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, round: u32, start_ns: u64, end_ns: u64) {
        if self.on {
            let parent = self.open.last().copied().unwrap_or(NO_SPAN);
            self.push(Span {
                name,
                thread: 0,
                round,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Takes in intervals another thread recorded, each under the control
    /// span named `parent_name` that was running when it started.
    pub fn adopt(
        &mut self,
        name: &'static str,
        thread: u16,
        intervals: &[(u64, u64)],
        parent_name: &'static str,
    ) {
        let mut hosts: Vec<(u64, u64, u32, u32)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent_name)
            .map(|(i, s)| (s.start_ns, s.end_ns, i as u32, s.round))
            .collect();
        hosts.sort_unstable();
        for &(start_ns, end_ns) in intervals {
            let at = hosts.partition_point(|h| h.0 <= start_ns);
            let host = at
                .checked_sub(1)
                .map(|i| hosts[i])
                .filter(|h| start_ns < h.1);
            self.push(Span {
                name,
                thread,
                round: host.map_or(0, |h| h.3),
                parent: host.map_or(NO_SPAN, |h| h.2),
                start_ns,
                end_ns,
            });
        }
    }

    fn children(&self, id: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    /// The share of `window`'s wall time that none of the spans on its
    /// blocking path account for: the `offer`, the `stage.batch` spans
    /// running after the offer returned, and the `tx.lag` tail.
    pub fn window_residual_share(&self, window: u32) -> f64 {
        let span = &self.spans[window as usize];
        let offer_end = self
            .children(window)
            .find(|c| c.name == "offer")
            .map_or(span.start_ns, |c| c.end_ns);
        let cover: Vec<(u64, u64)> = self
            .children(window)
            .filter_map(|c| match c.name {
                "offer" | "tx.lag" => Some((c.start_ns, c.end_ns)),
                "stage.batch" if c.end_ns > offer_end => {
                    Some((c.start_ns.max(offer_end), c.end_ns))
                }
                _ => None,
            })
            .collect();
        let dur = span.dur_ns().max(1);
        1.0 - covered_ns(span.start_ns, span.end_ns, cover) as f64 / dur as f64
    }

    /// `(name, count, total ns, self ns)` per span name, by first use.
    /// Self time is a span's duration minus the part of it its child spans
    /// cover (children may overlap each other across threads).
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        // Child cover per parent in one pass, so the summary stays linear
        // in the span count.
        let mut cover: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                cover[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in self.spans.iter().zip(cover) {
            let self_ns = s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += s.dur_ns();
                    row.3 += self_ns;
                }
                None => rows.push((s.name, 1, s.dur_ns(), self_ns)),
            }
        }
        rows
    }

    /// Writes the spans in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): complete events with microsecond timestamps; `args`
    /// carries the round and the causing span.
    pub fn write_chrome(&self, out: &mut impl Write, meta: &str) -> std::io::Result<()> {
        write!(out, "{{\"meta\":{meta},\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"round\":{},\"parent\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                s.round,
                if s.parent == NO_SPAN {
                    -1
                } else {
                    i64::from(s.parent)
                },
            )?;
        }
        out.write_all(b"\n]}\n")
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u16, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            thread,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(16);
        t.spans.push(span("window", 0, NO_SPAN, 100, 200));
        t.spans.push(span("offer", 0, 0, 100, 130));
        t.spans.push(span("barrier", 0, 0, 130, 190));
        // A worker-thread child overlapping both control-thread children,
        // and sticking out of the parent: only [100, 200] counts.
        t.spans.push(span("stage.batch", 1, 0, 120, 260));
        let self_of = |t: &Tracer, name| t.summary().iter().find(|r| r.0 == name).unwrap().3;
        assert_eq!(self_of(&t, "window"), 0);
        t.spans.truncate(3);
        assert_eq!(self_of(&t, "window"), 10);
        assert_eq!(self_of(&t, "offer"), 30);
    }

    #[test]
    fn residual_counts_only_the_blocking_path() {
        let mut t = Tracer::new(16);
        t.spans.push(span("window", 0, NO_SPAN, 0, 100));
        t.spans.push(span("offer", 0, 0, 0, 30));
        t.spans.push(span("barrier", 0, 0, 30, 100));
        // Overlaps the offer: only its part after the offer counts.
        t.spans.push(span("stage.batch", 1, 0, 20, 50));
        t.spans.push(span("stage.batch", 1, 0, 60, 80));
        t.spans.push(span("tx.lag", 0, 0, 80, 95));
        // Covered: [0,30] + [30,50] + [60,80] + [80,95] = 85 of 100.
        assert!((t.window_residual_share(0) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nest_and_off_records_nothing() {
        let mut t = Tracer::new(8);
        let a = t.begin("round", 7);
        t.end(a);
        assert!(t.spans().is_empty(), "tracing starts off");
        t.set_on(true);
        let round = t.begin("round", 7);
        let window = t.begin("window", 7);
        t.leaf("tx.lag", 7, 1, 2);
        t.end(window);
        t.end(round);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[2].parent, 1);
        assert_eq!(t.spans()[0].parent, NO_SPAN);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn adopt_parents_by_containment_and_full_buffer_counts_drops() {
        let mut t = Tracer::new(4);
        t.spans.push(span("window", 0, NO_SPAN, 100, 200));
        t.spans.push(span("window", 0, NO_SPAN, 300, 400));
        t.spans[1].round = 9;
        t.adopt(
            "stage.batch",
            1,
            &[(150, 160), (250, 260), (310, 390)],
            "window",
        );
        assert_eq!(t.spans()[2].parent, 0);
        assert_eq!(t.spans()[3].parent, NO_SPAN);
        assert_eq!(t.dropped, 1, "third interval did not fit");
        let rows = t.summary();
        assert_eq!(rows[0], ("window", 2, 200, 190));
    }

    #[test]
    fn chrome_file_is_valid_json() {
        let mut t = Tracer::new(4);
        t.spans.push(span("round", 0, NO_SPAN, 1_000, 5_000));
        t.spans.push(span("window", 0, 0, 2_000, 4_500));
        let mut bytes = Vec::new();
        t.write_chrome(&mut bytes, "{\"workload\":\"t\"}").unwrap();
        let v = crate::json::Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
