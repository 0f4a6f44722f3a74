//! Machine-readable bench results: a dependency-free JSON writer that the
//! bench targets use to drop `BENCH_<stem>.json` files at the repo root
//! (CI uploads them as artifacts; the numbers back the threading claims
//! in DESIGN.md).
//!
//! The workspace deliberately carries no serde, so the emitter is a small
//! hand-rolled one: flat records of string/number/bool fields, which is
//! all a bench summary needs.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One value in a bench record.
#[derive(Clone, Debug)]
pub enum Value {
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// An unsigned integer, kept exact (no float rounding).
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

/// One flat JSON object, field order preserved.
#[derive(Clone, Debug, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// Empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Adds a numeric field (builder style).
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.fields.push((key.to_string(), Value::Num(v)));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.fields.push((key.to_string(), Value::Int(v)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields
            .push((key.to_string(), Value::Str(v.to_string())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.fields.push((key.to_string(), Value::Bool(v)));
        self
    }

    /// Looks up a field by key (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The record's result class: `true` when it carries `"smoke": true`.
    /// Records without the field (e.g. hand-written seeds) count as full
    /// results, which the merge logic below protects from smoke runs.
    pub fn is_smoke(&self) -> bool {
        matches!(self.get("smoke"), Some(Value::Bool(true)))
    }

    /// The record's merge class: result class (smoke vs full) plus the
    /// machine tags (`isa`, `cores`). Untagged records — hand-written
    /// seeds, results from before the tags existed — key to `("", 0)`,
    /// so they form their own class and old files keep merging as they
    /// always did.
    pub fn merge_key(&self) -> (bool, &str, u64) {
        let isa = match self.get("isa") {
            Some(Value::Str(s)) => s.as_str(),
            _ => "",
        };
        let cores = match self.get("cores") {
            Some(Value::Int(c)) => *c,
            _ => 0,
        };
        (self.is_smoke(), isa, cores)
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn emit_value(v: &Value, out: &mut String) {
    match v {
        Value::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Int(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(s) => escape(s, out),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// Serializes `records` as `{"bench": <stem>, "records": [...]}`.
pub fn to_json(stem: &str, records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": ");
    escape(stem, &mut out);
    out.push_str(",\n  \"records\": [\n");
    for (ri, rec) in records.iter().enumerate() {
        out.push_str("    {");
        for (fi, (key, value)) in rec.fields.iter().enumerate() {
            if fi > 0 {
                out.push_str(", ");
            }
            escape(key, &mut out);
            out.push_str(": ");
            emit_value(value, &mut out);
        }
        out.push('}');
        if ri + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Reading back what we wrote: a parser for exactly the JSON dialect the
// emitter above produces (one object, a string `bench` field, a flat
// `records` array of string/number/bool/null fields). The workspace
// carries no serde on purpose; this is the read half that makes bench
// files mergeable instead of last-writer-wins.

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        self.skip_ws();
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                // The emitter writes multi-byte UTF-8 verbatim; pass the
                // continuation bytes through unchanged.
                _ => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while self
                        .bytes
                        .get(end)
                        .is_some_and(|&c| c != b'"' && c != b'\\')
                    {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).ok()?);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Option<Value> {
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'"' => Some(Value::Str(self.parse_string()?)),
            b't' => self.keyword("true", Value::Bool(true)),
            b'f' => self.keyword("false", Value::Bool(false)),
            // `null` is how the emitter spells a non-finite number.
            b'n' => self.keyword("null", Value::Num(f64::NAN)),
            _ => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let tok = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                if !tok.contains(['.', 'e', 'E']) {
                    if let Ok(i) = tok.parse::<u64>() {
                        return Some(Value::Int(i));
                    }
                }
                tok.parse::<f64>().ok().map(Value::Num)
            }
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Option<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn parse_record(&mut self) -> Option<Record> {
        if !self.eat(b'{') {
            return None;
        }
        let mut rec = Record::new();
        if self.eat(b'}') {
            return Some(rec);
        }
        loop {
            let key = self.parse_string()?;
            if !self.eat(b':') {
                return None;
            }
            let value = self.parse_value()?;
            rec.fields.push((key, value));
            if self.eat(b'}') {
                return Some(rec);
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }
}

/// Parses a `BENCH_<stem>.json` file produced by [`to_json`] back into
/// its records. `None` on anything malformed — callers treat that as "no
/// previous results" rather than guessing.
pub fn parse_bench_json(s: &str) -> Option<Vec<Record>> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    if !p.eat(b'{') {
        return None;
    }
    let mut records: Option<Vec<Record>> = None;
    if p.eat(b'}') {
        return records;
    }
    loop {
        let key = p.parse_string()?;
        if !p.eat(b':') {
            return None;
        }
        if key == "records" {
            if !p.eat(b'[') {
                return None;
            }
            let mut out = Vec::new();
            if !p.eat(b']') {
                loop {
                    out.push(p.parse_record()?);
                    if p.eat(b']') {
                        break;
                    }
                    if !p.eat(b',') {
                        return None;
                    }
                }
            }
            records = Some(out);
        } else {
            p.parse_value()?;
        }
        if p.eat(b'}') {
            return records;
        }
        if !p.eat(b',') {
            return None;
        }
    }
}

/// Merges `incoming` into `existing`, by [`Record::merge_key`]: an
/// incoming batch replaces the stored records *of its own classes only*
/// — same result class (smoke vs full) *and* same machine tags
/// (`isa`, `cores`) — and leaves every other class untouched. This is
/// what lets CI's fast `FT_BENCH_SMOKE=1` sweeps land alongside — never
/// over — the slow full-size results committed to the repo, and lets
/// results from different machines (an AVX-512 box and a NEON one, say)
/// coexist in the same file.
pub fn merge_records(existing: &[Record], incoming: &[Record]) -> Vec<Record> {
    let incoming_keys: Vec<_> = incoming.iter().map(Record::merge_key).collect();
    let mut out: Vec<Record> = existing
        .iter()
        .filter(|r| !incoming_keys.contains(&r.merge_key()))
        .cloned()
        .collect();
    out.extend(incoming.iter().cloned());
    // Full results first: they are the headline numbers readers look for.
    // (Stable sort: within a class, stored order is preserved.)
    out.sort_by_key(Record::is_smoke);
    out
}

/// Cores the OS makes available to this process: the `cores` machine tag
/// every bench record carries next to `isa`.
pub fn cores() -> u64 {
    std::thread::available_parallelism()
        .map(|c| c.get() as u64)
        .unwrap_or(1)
}

/// Repo root (two levels up from this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Writes `BENCH_<stem>.json` at the repo root, merging with any previous
/// contents via [`merge_records`], and returns its path. Failures are
/// reported but non-fatal — a bench run must never die on a read-only
/// checkout.
pub fn write_bench_json(stem: &str, records: &[Record]) -> Option<PathBuf> {
    let path = repo_root().join(format!("BENCH_{stem}.json"));
    let merged = match std::fs::read_to_string(&path).ok().as_deref() {
        Some(prev) => match parse_bench_json(prev) {
            Some(existing) => merge_records(&existing, records),
            None => {
                eprintln!(
                    "BENCH_{stem}.json: existing file unparseable, overwriting instead of merging"
                );
                records.to_vec()
            }
        },
        None => records.to_vec(),
    };
    match std::fs::write(&path, to_json(stem, &merged)) {
        Ok(()) => {
            println!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("BENCH_{stem}.json not written: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_escaping() {
        let records = vec![
            Record::new()
                .str("kernel", "gemm \"n=128\"")
                .num("ms", 1.5)
                .int("dispatches", 3)
                .bool("smoke", true),
            Record::new().num("bad", f64::NAN),
        ];
        let s = to_json("demo", &records);
        assert!(s.contains("\"bench\": \"demo\""));
        assert!(s.contains("\"kernel\": \"gemm \\\"n=128\\\"\""));
        assert!(s.contains("\"ms\": 1.5"));
        assert!(s.contains("\"dispatches\": 3"));
        assert!(s.contains("\"smoke\": true"));
        assert!(s.contains("\"bad\": null"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn parse_roundtrips_what_to_json_emits() {
        let records = vec![
            Record::new()
                .str("kernel", "gemm \"n=128\"\tπ")
                .num("ms", 1.5)
                .int("dispatches", 3)
                .bool("smoke", true),
            Record::new().num("bad", f64::NAN).bool("flag", false),
            Record::new(),
        ];
        let parsed = parse_bench_json(&to_json("demo", &records)).expect("must parse");
        assert_eq!(parsed.len(), 3);
        assert!(matches!(
            parsed[0].get("kernel"),
            Some(Value::Str(s)) if s == "gemm \"n=128\"\tπ"
        ));
        assert!(matches!(parsed[0].get("ms"), Some(Value::Num(x)) if *x == 1.5));
        assert!(matches!(parsed[0].get("dispatches"), Some(Value::Int(3))));
        assert!(parsed[0].is_smoke());
        assert!(matches!(parsed[1].get("bad"), Some(Value::Num(x)) if x.is_nan()));
        assert!(!parsed[1].is_smoke());
        assert!(parsed[2].get("anything").is_none());
        // Second roundtrip is byte-stable.
        let again = to_json("demo", &parsed);
        assert_eq!(again, to_json("demo", &parse_bench_json(&again).unwrap()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_bench_json("").is_none());
        assert!(parse_bench_json("not json").is_none());
        assert!(parse_bench_json("{\"bench\": \"x\"}").is_none()); // no records
        assert!(parse_bench_json("{\"records\": [{]}").is_none());
    }

    #[test]
    fn smoke_runs_never_clobber_full_records() {
        let full = [
            Record::new()
                .str("kind", "backend")
                .int("n", 1024)
                .bool("smoke", false),
            Record::new()
                .str("kind", "overhead")
                .int("n", 512)
                .bool("smoke", false),
        ];
        let smoke_old = [Record::new()
            .str("kind", "backend")
            .int("n", 256)
            .bool("smoke", true)];
        let mut stored: Vec<Record> = full.iter().chain(&smoke_old).cloned().collect();

        // A new smoke batch replaces only the old smoke records.
        let smoke_new = [Record::new()
            .str("kind", "backend")
            .int("n", 128)
            .bool("smoke", true)];
        stored = merge_records(&stored, &smoke_new);
        assert_eq!(stored.len(), 3);
        assert_eq!(stored.iter().filter(|r| !r.is_smoke()).count(), 2);
        assert!(stored
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(128)))));
        assert!(!stored
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(256)))));

        // A new full batch replaces only the full records, keeping smoke.
        let full_new = [Record::new()
            .str("kind", "backend")
            .int("n", 2048)
            .bool("smoke", false)];
        stored = merge_records(&stored, &full_new);
        assert_eq!(stored.len(), 2);
        assert!(stored
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(2048)))));
        assert!(stored
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(128)))));
        // Full results sort ahead of smoke ones.
        assert!(!stored[0].is_smoke() && stored[1].is_smoke());

        // Records without a smoke field count as full and are protected
        // from smoke batches.
        let seed = [Record::new().str("kind", "hand_seed")];
        let merged = merge_records(&seed, &smoke_new);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_key_separates_machines() {
        let avx = Record::new()
            .int("n", 1024)
            .bool("smoke", false)
            .str("isa", "avx2+fma")
            .int("cores", 16);
        let neon = Record::new()
            .int("n", 1024)
            .bool("smoke", false)
            .str("isa", "neon")
            .int("cores", 8);
        let untagged = Record::new().int("n", 512).bool("smoke", false);
        let stored = vec![avx.clone(), neon.clone(), untagged.clone()];

        // A fresh batch from the AVX box replaces only the AVX records;
        // the NEON and untagged legacy results survive.
        let avx_new = [Record::new()
            .int("n", 2048)
            .bool("smoke", false)
            .str("isa", "avx2+fma")
            .int("cores", 16)];
        let merged = merge_records(&stored, &avx_new);
        assert_eq!(merged.len(), 3);
        assert!(merged
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(2048)))));
        assert!(!merged
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(1024)))
                && matches!(r.get("isa"), Some(Value::Str(s)) if s == "avx2+fma")));
        assert!(merged
            .iter()
            .any(|r| matches!(r.get("isa"), Some(Value::Str(s)) if s == "neon")));

        // An untagged batch replaces only the untagged legacy class.
        let legacy_new = [Record::new().int("n", 768).bool("smoke", false)];
        let merged = merge_records(&merged, &legacy_new);
        assert_eq!(merged.len(), 3);
        assert!(merged
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(768)))));
        assert!(!merged
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(512)))));

        // Smoke and full of the same machine are distinct classes.
        let avx_smoke = [Record::new()
            .int("n", 64)
            .bool("smoke", true)
            .str("isa", "avx2+fma")
            .int("cores", 16)];
        let merged = merge_records(&merged, &avx_smoke);
        assert_eq!(merged.len(), 4);
        assert!(merged
            .iter()
            .any(|r| matches!(r.get("n"), Some(Value::Int(2048)))));
    }
}
