//! The structured fault audit journal.
//!
//! Every recovery episode the FT drivers resolve (or fail to resolve)
//! is written as one journal event into the calling thread's
//! flight-recorder ring, tagged with the ambient trace context — job
//! id, attempt, iteration, FT phase, and the protection level that was
//! active. [`snapshot`] decodes the retained records back into
//! [`JournalRecord`]s; flight-recorder dumps append them after the
//! events, and the service telemetry test reads them per job.
//!
//! Memory is the rings' bound: journal records share each thread's
//! ring (`FT_TRACE_RECORDER` capacity) with its spans and counter
//! deltas, drop-oldest, and are only retained while the rings record
//! ([`crate::recording`]). Recovery is rare, so the retained window
//! reaches back as far as the thread's last few thousand events.
//!
//! Wire form of a journal event: `name_id` is the interned phase, `tid`
//! the interned protection tag, `arg` the iteration (low 32 bits) and
//! the corrected count (high 32 bits, both saturating), `has_arg` the
//! resolved flag, `t0` the record time and `t1` the mismatch bits.

use crate::recorder::{self, ring};

/// One recovery / correction episode.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord {
    /// Record time, µs since the trace epoch.
    pub ts_us: f64,
    /// Owning job, if a trace context was installed.
    pub job_id: Option<u64>,
    /// Attempt number from the trace context (0 when absent).
    pub attempt: u32,
    /// Panel iteration the episode occurred in.
    pub iteration: usize,
    /// Which driver phase recorded it: `"recovery"` (in-iteration
    /// correction), `"giveup"` (budget exhausted, re-encode), or
    /// `"final"` (whole-matrix post-check).
    pub phase: &'static str,
    /// Active protection level, e.g. `"checksums+q"` (see
    /// `FtConfig::protection_label` in the FT driver).
    pub protection: &'static str,
    /// Number of corrected elements.
    pub corrected: usize,
    /// Checksum mismatch magnitude that triggered the episode (NaN when
    /// the driver gave up without a localized mismatch).
    pub mismatch: f64,
    /// Whether the episode left the factorization consistent.
    pub resolved: bool,
}

/// Writes one record into the calling thread's ring, stamped with its
/// trace context. No-op while the rings are off.
pub fn record(
    iteration: usize,
    phase: &'static str,
    protection: &'static str,
    corrected: usize,
    mismatch: f64,
    resolved: bool,
) {
    if !crate::recording() {
        return;
    }
    let low32 = |v: usize| v.min(u32::MAX as usize) as u64;
    recorder::write(ring::RawEvent {
        kind: ring::KIND_JOURNAL,
        name_id: recorder::intern(phase),
        has_arg: resolved,
        attempt: 0,
        tid: u64::from(recorder::intern(protection)),
        job: 0,
        arg: low32(iteration) | low32(corrected) << 32,
        t0: crate::clock::now_us().to_bits(),
        t1: mismatch.to_bits(),
    });
}

/// Decodes the journal events of a raw ring snapshot.
pub(crate) fn decode(raw: &[ring::RawEvent]) -> Vec<JournalRecord> {
    raw.iter()
        .filter(|ev| ev.kind == ring::KIND_JOURNAL)
        .map(|ev| {
            let ctx = recorder::raw_ctx(ev);
            JournalRecord {
                ts_us: f64::from_bits(ev.t0),
                job_id: ctx.map(|c| c.job_id),
                attempt: ctx.map_or(0, |c| c.attempt),
                iteration: (ev.arg & 0xffff_ffff) as usize,
                phase: recorder::resolve(ev.name_id),
                protection: recorder::resolve(ev.tid as u32),
                corrected: (ev.arg >> 32) as usize,
                mismatch: f64::from_bits(ev.t1),
                resolved: ev.has_arg,
            }
        })
        .collect()
}

/// The retained records of every ring, oldest first.
pub fn snapshot() -> Vec<JournalRecord> {
    decode(&recorder::raw_snapshot())
}

/// Renders one record as a single JSONL object (no trailing newline).
/// Non-finite mismatches render as `null` — JSON has no NaN.
pub fn to_jsonl_line(rec: &JournalRecord) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"journal\":{");
    let _ = write!(out, "\"ts_us\":{:.3}", rec.ts_us);
    if let Some(j) = rec.job_id {
        let _ = write!(out, ",\"job\":{j}");
    }
    let _ = write!(
        out,
        ",\"attempt\":{},\"iteration\":{},\"phase\":\"{}\",\"protection\":\"{}\",\"corrected\":{}",
        rec.attempt,
        rec.iteration,
        crate::writer::json_escape(rec.phase),
        crate::writer::json_escape(rec.protection),
        rec.corrected,
    );
    if rec.mismatch.is_finite() {
        let _ = write!(out, ",\"mismatch\":{:e}", rec.mismatch);
    } else {
        out.push_str(",\"mismatch\":null");
    }
    let _ = write!(out, ",\"resolved\":{}}}}}", rec.resolved);
    out
}

/// Renders records as JSON Lines.
pub fn to_jsonl(records: &[JournalRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&to_jsonl_line(rec));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx;

    #[test]
    fn records_round_trip_through_the_ring_with_their_context() {
        crate::recorder::configure(true, crate::recorder::DEFAULT_CAPACITY, None);
        std::thread::spawn(|| {
            let g = ctx::push(ctx::TraceCtx {
                job_id: 41,
                attempt: 2,
            });
            record(3, "recovery", "checksums+q", 2, 1.5e-9, true);
            drop(g);
            record(9, "final", "checksums", 0, f64::NAN, false);
        })
        .join()
        .unwrap();
        let recs = snapshot();
        let with_ctx = recs
            .iter()
            .find(|r| r.job_id == Some(41))
            .expect("context-tagged record present");
        assert_eq!(with_ctx.attempt, 2);
        assert_eq!(with_ctx.iteration, 3);
        assert_eq!(with_ctx.phase, "recovery");
        assert_eq!(with_ctx.protection, "checksums+q");
        assert_eq!(with_ctx.corrected, 2);
        assert_eq!(with_ctx.mismatch, 1.5e-9);
        assert!(with_ctx.resolved);
        let line = to_jsonl_line(with_ctx);
        assert!(line.starts_with("{\"journal\":{"));
        assert!(line.contains("\"job\":41"));
        assert!(line.contains("\"attempt\":2"));
        assert!(line.contains("\"resolved\":true"));
        let bare = recs
            .iter()
            .find(|r| r.phase == "final" && r.iteration == 9)
            .expect("bare record");
        assert_eq!(bare.job_id, None);
        assert!(!bare.resolved);
        assert!(to_jsonl_line(bare).contains("\"mismatch\":null"));
    }
}
