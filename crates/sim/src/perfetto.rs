//! Chrome `trace_event` / Perfetto JSON export.
//!
//! [`perfetto_trace_json`] renders a [`SimResult`] as a JSON object in
//! the Trace Event Format that `ui.perfetto.dev` (and `chrome://tracing`)
//! load directly: one named track per processor carrying its activity
//! spans as complete (`"ph":"X"`) slices, async flow arrows
//! (`"ph":"s"`/`"f"`) from each message's send-overhead slice to its
//! receive-overhead slice, and counter (`"ph":"C"`) tracks for any
//! sampled gauges. Timestamps are simulated cycles, written in the
//! format's microsecond field — one cycle displays as one microsecond.
//!
//! The exporter is pure string building: the workspace has no
//! serialization dependency, and the format is simple enough that
//! hand-rolled JSON is the honest implementation.

use crate::engine::SimResult;
use crate::obs::{MsgRecord, ObsSink, UNSET};
use crate::trace::{Activity, Span};
use logp_core::ProcId;
use std::collections::HashSet;
use std::io::{self, Write};
use std::path::Path;

fn activity_name(a: Activity) -> &'static str {
    match a {
        Activity::SendOverhead => "send o",
        Activity::RecvOverhead => "recv o",
        Activity::Compute => "compute",
        Activity::Stall => "stall",
        Activity::Barrier => "barrier",
    }
}

/// Whether a message gets a flow arrow. Flow endpoints must land strictly
/// inside a nonzero-width slice to bind (`"bp":"e"` attaches to the
/// enclosing slice): a crashed receiver or an `o = 0` machine produces
/// records whose overhead slices are empty, and an unmatched or unbound
/// flow id renders as a dangling arrow in the Perfetto UI. Skipping those
/// keeps every emitted flow bound on both ends.
fn flow_ok(m: &MsgRecord) -> bool {
    m.deliver != UNSET && m.sent > m.inject && m.deliver > m.recv_start
}

/// Render `res` as Chrome `trace_event` JSON (see module docs): the
/// [`PerfettoSink`] driven over a retained result — every thread named
/// first, then the spans, the flows, and the gauge counters only a
/// retained result has.
pub fn perfetto_trace_json(res: &SimResult) -> String {
    let mut json = Vec::new();
    let mut sink = PerfettoSink::new(&mut json);
    for p in 0..res.stats.procs.len() {
        sink.ensure_thread(p as ProcId);
    }
    for sp in &res.trace.spans {
        sink.on_span(sp);
    }
    for m in &res.obs.msgs {
        sink.on_msg(m);
    }
    for g in res.metrics.gauges() {
        for (t, v) in &g.samples {
            sink.event(&format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":0,\"ts\":{t},\"args\":{{\"value\":{v}}}}}",
                g.name
            ));
        }
    }
    sink.finish().expect("writes to memory do not fail");
    drop(sink);
    String::from_utf8(json).expect("the sink writes whole `str`s")
}

/// Write the per-run artifacts a `--trace-out` / `--metrics-out` request
/// asks for: Perfetto JSON to `trace_out`, metrics JSON to `metrics_out`
/// (either may be `None`).
pub fn write_artifacts(
    res: &SimResult,
    trace_out: Option<&Path>,
    metrics_out: Option<&Path>,
) -> io::Result<()> {
    if let Some(path) = trace_out {
        std::fs::write(path, perfetto_trace_json(res))?;
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, res.metrics.to_json())?;
    }
    Ok(())
}

/// Incremental Perfetto writer: `trace_event` JSON written to any
/// [`io::Write`] as records complete. Memory is bounded by the set of
/// processors named so far, whatever their ids — slices and flows go
/// straight to the writer. Thread-naming metadata is emitted lazily the
/// first time a processor appears, so the sink never needs to know `P` up
/// front. I/O errors are latched and surface from [`ObsSink::finish`] as
/// the run's `SimError::Sink`.
pub struct PerfettoSink<W: Write = io::BufWriter<std::fs::File>> {
    out: Option<W>,
    err: Option<String>,
    buf: String,
    first: bool,
    /// Processors whose thread metadata has been written.
    named: HashSet<ProcId>,
}

impl PerfettoSink {
    /// A sink writing the file at `path` (a failure to create it is
    /// latched like any other I/O error).
    pub fn create(path: &Path) -> Self {
        match std::fs::File::create(path) {
            Ok(f) => Self::new(io::BufWriter::new(f)),
            Err(e) => Self::open(None, Some(format!("create {}: {e}", path.display()))),
        }
    }
}

impl<W: Write> PerfettoSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self::open(Some(out), None)
    }

    fn open(out: Option<W>, err: Option<String>) -> Self {
        let mut sink = PerfettoSink {
            out,
            err,
            buf: String::with_capacity(256),
            first: true,
            named: HashSet::default(),
        };
        sink.buf.push_str("{\"traceEvents\":[\n");
        sink.event(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"LogP machine\"}}",
        );
        sink
    }

    /// Append one event (comma-separated) and hand the buffer to the writer.
    fn event(&mut self, ev: &str) {
        if !std::mem::take(&mut self.first) {
            self.buf.push_str(",\n");
        }
        self.buf.push_str(ev);
        if let Some(out) = self.out.as_mut() {
            if let Err(e) = out.write_all(self.buf.as_bytes()) {
                self.err.get_or_insert_with(|| format!("write: {e}"));
                self.out = None;
            }
        }
        self.buf.clear();
    }

    /// Emit thread metadata for `p` the first time it appears.
    fn ensure_thread(&mut self, p: ProcId) {
        if !self.named.insert(p) {
            return;
        }
        self.event(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\"args\":{{\"name\":\"P{p}\"}}}}"
        ));
        self.event(&format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\"args\":{{\"sort_index\":{p}}}}}"
        ));
    }
}

impl<W: Write + Send> ObsSink for PerfettoSink<W> {
    fn on_msg(&mut self, m: &MsgRecord) {
        if !flow_ok(m) {
            return;
        }
        self.ensure_thread(m.src);
        self.ensure_thread(m.dst);
        self.event(&format!(
            "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"pid\":0,\"tid\":{},\"ts\":{}}}",
            m.id, m.src, m.inject
        ));
        self.event(&format!(
            "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"pid\":0,\"tid\":{},\"ts\":{}}}",
            m.id, m.dst, m.recv_start
        ));
    }

    fn on_span(&mut self, s: &Span) {
        self.ensure_thread(s.proc);
        self.event(&format!(
            "{{\"name\":\"{}\",\"cat\":\"activity\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            activity_name(s.activity),
            s.proc,
            s.start,
            s.end - s.start
        ));
    }

    fn finish(&mut self) -> Result<(), String> {
        // The `process_name` metadata event always precedes the footer,
        // so no trailing-comma bookkeeping is needed here.
        if let Some(out) = self.out.as_mut() {
            if let Err(e) = out
                .write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
                .and_then(|_| out.flush())
            {
                self.err.get_or_insert_with(|| format!("finish: {e}"));
            }
        }
        match self.err.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Sim;
    use crate::message::Data;
    use crate::process::{Ctx, StartFn};
    use logp_core::LogP;

    fn ping_result() -> SimResult {
        let model = LogP::new(6, 2, 4, 2).unwrap();
        let mut sim = Sim::new(
            model,
            SimConfig::default().with_msg_log(true).with_metrics_grid(5),
        );
        sim.set_process(
            0,
            Box::new(StartFn(|ctx: &mut Ctx<'_>| {
                ctx.send(1, 0, Data::U64(7));
            })),
        );
        sim.run().unwrap()
    }

    #[test]
    fn export_contains_tracks_slices_and_flows() {
        let json = perfetto_trace_json(&ping_result());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"P0\""));
        assert!(json.contains("\"name\":\"P1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"send o\""));
        assert!(json.contains("\"name\":\"recv o\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"ph\":\"C\""));
    }

    #[test]
    fn export_is_balanced_json() {
        // No serde in the workspace: sanity-check bracket balance so a
        // malformed export cannot slip through silently.
        let json = perfetto_trace_json(&ping_result());
        let (mut depth, mut min_depth) = (0i64, 0i64);
        for b in json.bytes() {
            match b {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                _ => {}
            }
            min_depth = min_depth.min(depth);
        }
        assert_eq!(depth, 0);
        assert_eq!(min_depth, 0);
    }

    #[test]
    fn write_artifacts_creates_files() {
        let dir = std::env::temp_dir().join("logp_perfetto_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.trace.json");
        let metrics = dir.join("t.metrics.json");
        write_artifacts(&ping_result(), Some(&trace), Some(&metrics)).unwrap();
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("traceEvents"));
        assert!(std::fs::read_to_string(&metrics)
            .unwrap()
            .contains("\"counters\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
