//! Persistent benchmark results: a dependency-free JSONL record format.
//!
//! Every measured run can be serialized as one JSON object per line (JSONL)
//! carrying the full configuration provenance — scheme, structure, operation
//! mix, every [`BenchParams`]/[`smr_core::SmrConfig`] field, the git
//! revision, the host core count, and a caller-supplied timestamp — plus the
//! [`RunResult`] metrics. Files accumulate across runs (`append`), so the
//! repository's `BENCH_sweep.jsonl` becomes a trajectory of the project's
//! performance over time, and `perfgate` (see [`crate::gate`]) can compare
//! any two snapshots.
//!
//! The build environment is offline (no serde), so the encoder and decoder
//! are hand-rolled here: the encoder emits one flat JSON object per record,
//! and the decoder is a minimal JSON parser that ignores unknown fields and
//! fails loudly on another schema version or a missing or ill-typed field.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;

use crate::driver::{BenchParams, RunResult};

/// Version stamp written into every record (`"schema"` field), and the
/// only version [`BenchRecord::decode`] accepts. Adding a field or changing
/// one's meaning bumps it and re-records `benchdata/stable-baseline.jsonl`
/// rather than teaching the decoder older layouts; dropping a field does
/// not, because the decoder ignores fields it does not know.
pub const SCHEMA_VERSION: u64 = 5;

/// One benchmark measurement with full configuration provenance.
///
/// The struct is flat so that encode→decode equality is a plain field-wise
/// comparison; [`BenchRecord::from_run`] flattens [`BenchParams`] (and the
/// embedded [`smr_core::SmrConfig`]) into it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Format version ([`SCHEMA_VERSION`] at write time).
    pub schema: u64,
    /// Which figure/sweep produced the record (e.g. `Fig 8c`, `thread-scaling`).
    pub figure: String,
    /// Scheme series name (e.g. `Hyaline-S-adaptive`).
    pub scheme: String,
    /// Structure name (e.g. `hashmap`).
    pub structure: String,
    /// Operation mix short label (e.g. `write-intensive`).
    pub mix: String,
    /// Active worker threads.
    pub threads: u64,
    /// Stalled threads parked inside an operation.
    pub stalled: u64,
    /// Measured seconds per trial.
    pub secs: f64,
    /// Trials averaged into the result.
    pub trials: u64,
    /// Elements prefilled.
    pub prefill: u64,
    /// Key range.
    pub key_range: u64,
    /// Unreclaimed-count sampling period (operations).
    pub sample_every: u64,
    /// Whether §3.3 `trim` drove the operations.
    pub use_trim: bool,
    /// Operations between forced leaves when trimming.
    pub trim_window: u64,
    /// RNG seed.
    pub seed: u64,
    /// Hyaline slot count (`k`).
    pub slots: u64,
    /// Minimum local batch size.
    pub batch_min: u64,
    /// Era/epoch advance frequency.
    pub era_freq: u64,
    /// Reclamation-scan threshold of the scan-based schemes.
    pub scan_threshold: u64,
    /// Protection indices per thread (HP/HE).
    pub max_protect: u64,
    /// Hyaline-S stall-detection threshold.
    pub ack_threshold: i64,
    /// §4.3 adaptive slot resizing enabled.
    pub adaptive: bool,
    /// Thread-registry capacity.
    pub max_threads: u64,
    /// Shard count *as configured* (`1` = unsharded). Recorded verbatim
    /// from the run's `SmrConfig`: plain schemes ignore the knob, but the
    /// gate keys on the full configuration, so a sweep that sets `--shards`
    /// stamps every record it produces.
    pub shards: u64,
    /// Crystalline wait-free handoff threshold as configured (CAS attempts
    /// per slot before retiring through the handoff cell; other schemes
    /// ignore the knob, recorded verbatim).
    pub handoff_attempts: u64,
    /// Node recycling enabled ([`smr_core::SmrConfig::recycle`]).
    pub recycle: bool,
    /// Recycle-pool capacity as configured (recorded verbatim; meaningless
    /// when `recycle` is false).
    pub recycle_capacity: u64,
    /// Recycle-magazine capacity as configured (recorded verbatim).
    pub recycle_magazine: u64,
    /// Git revision the binary was built from, if discoverable.
    pub git_sha: Option<String>,
    /// `available_parallelism` of the measuring host.
    pub host_cores: u64,
    /// Caller-supplied wall-clock stamp (the module never reads clocks).
    pub timestamp: String,
    /// Throughput, million operations per second.
    pub mops: f64,
    /// Average retired-but-unreclaimed objects per sample point.
    pub avg_unreclaimed: f64,
    /// Total operations executed.
    pub ops: u64,
    /// Nodes retired during the measured phase.
    pub retired: u64,
    /// Nodes freed during the measured phase.
    pub freed: u64,
    /// Allocations served from the recycle pool (zero when recycling off).
    pub pool_hits: u64,
    /// Allocations that fell through to the global allocator while
    /// recycling was enabled (zero when recycling off).
    pub pool_misses: u64,
    /// Reclaimed nodes routed back to the recycle pool (zero when off).
    pub recycled: u64,
}

/// Host/build provenance shared by every record of one process run.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Git revision, if the binary runs inside a repository.
    pub git_sha: Option<String>,
    /// `available_parallelism` of the host.
    pub host_cores: u64,
    /// Wall-clock stamp chosen by the caller (e.g. unix seconds).
    pub timestamp: String,
}

impl Provenance {
    /// Detects the git revision and core count; the timestamp is passed in
    /// by the caller so the results module itself stays clock-free.
    pub fn detect(timestamp: impl Into<String>) -> Self {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty());
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as u64;
        Self {
            git_sha,
            host_cores,
            timestamp: timestamp.into(),
        }
    }
}

/// Current wall clock as unix seconds, stringified — a convenience for the
/// binaries that construct a [`Provenance`]; the encoder/decoder and
/// [`Provenance::detect`] never read clocks themselves.
pub fn wall_clock_timestamp() -> String {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_default()
}

impl BenchRecord {
    /// Builds a record from one measured run, flattening the parameters.
    pub fn from_run(
        figure: &str,
        scheme: &str,
        structure: &str,
        params: &BenchParams,
        result: &RunResult,
        prov: &Provenance,
    ) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            figure: figure.to_string(),
            scheme: scheme.to_string(),
            structure: structure.to_string(),
            mix: params.mix.short_label().to_string(),
            threads: params.threads as u64,
            stalled: params.stalled as u64,
            secs: params.secs,
            trials: params.trials as u64,
            prefill: params.prefill as u64,
            key_range: params.key_range,
            sample_every: params.sample_every,
            use_trim: params.use_trim,
            trim_window: params.trim_window,
            seed: params.seed,
            slots: params.config.slots as u64,
            batch_min: params.config.batch_min as u64,
            era_freq: params.config.era_freq,
            scan_threshold: params.config.scan_threshold as u64,
            max_protect: params.config.max_protect as u64,
            ack_threshold: params.config.ack_threshold,
            adaptive: params.config.adaptive,
            max_threads: params.config.max_threads as u64,
            shards: params.config.shards as u64,
            handoff_attempts: params.config.handoff_attempts as u64,
            recycle: params.config.recycle,
            recycle_capacity: params.config.recycle_capacity as u64,
            recycle_magazine: params.config.recycle_magazine as u64,
            git_sha: prov.git_sha.clone(),
            host_cores: prov.host_cores,
            timestamp: prov.timestamp.clone(),
            mops: result.mops,
            avg_unreclaimed: result.avg_unreclaimed,
            ops: result.ops,
            retired: result.retired,
            freed: result.freed,
            pool_hits: result.pool_hits,
            pool_misses: result.pool_misses,
            recycled: result.recycled,
        }
    }

    /// Serializes the record as one JSON object (no trailing newline).
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        push_u64(&mut s, "schema", self.schema);
        push_str(&mut s, "figure", &self.figure);
        push_str(&mut s, "scheme", &self.scheme);
        push_str(&mut s, "structure", &self.structure);
        push_str(&mut s, "mix", &self.mix);
        push_u64(&mut s, "threads", self.threads);
        push_u64(&mut s, "stalled", self.stalled);
        push_f64(&mut s, "secs", self.secs);
        push_u64(&mut s, "trials", self.trials);
        push_u64(&mut s, "prefill", self.prefill);
        push_u64(&mut s, "key_range", self.key_range);
        push_u64(&mut s, "sample_every", self.sample_every);
        push_bool(&mut s, "use_trim", self.use_trim);
        push_u64(&mut s, "trim_window", self.trim_window);
        push_u64(&mut s, "seed", self.seed);
        push_u64(&mut s, "slots", self.slots);
        push_u64(&mut s, "batch_min", self.batch_min);
        push_u64(&mut s, "era_freq", self.era_freq);
        push_u64(&mut s, "scan_threshold", self.scan_threshold);
        push_u64(&mut s, "max_protect", self.max_protect);
        push_i64(&mut s, "ack_threshold", self.ack_threshold);
        push_bool(&mut s, "adaptive", self.adaptive);
        push_u64(&mut s, "max_threads", self.max_threads);
        push_u64(&mut s, "shards", self.shards);
        push_u64(&mut s, "handoff_attempts", self.handoff_attempts);
        push_bool(&mut s, "recycle", self.recycle);
        push_u64(&mut s, "recycle_capacity", self.recycle_capacity);
        push_u64(&mut s, "recycle_magazine", self.recycle_magazine);
        match &self.git_sha {
            Some(sha) => push_str(&mut s, "git_sha", sha),
            None => push_null(&mut s, "git_sha"),
        }
        push_u64(&mut s, "host_cores", self.host_cores);
        push_str(&mut s, "timestamp", &self.timestamp);
        push_f64(&mut s, "mops", self.mops);
        push_f64(&mut s, "avg_unreclaimed", self.avg_unreclaimed);
        push_u64(&mut s, "ops", self.ops);
        push_u64(&mut s, "retired", self.retired);
        push_u64(&mut s, "freed", self.freed);
        push_u64(&mut s, "pool_hits", self.pool_hits);
        push_u64(&mut s, "pool_misses", self.pool_misses);
        push_u64(&mut s, "recycled", self.recycled);
        s.pop(); // trailing comma
        s.push('}');
        s
    }

    /// Parses one JSONL line back into a record.
    ///
    /// Unknown fields are ignored. Every field of the record is required: a
    /// missing or ill-typed one is an error naming it, and so is a
    /// `schema` other than [`SCHEMA_VERSION`].
    pub fn decode(line: &str) -> Result<Self, String> {
        let value = parse_json(line)?;
        let obj = match value {
            Json::Obj(fields) => fields,
            other => return Err(format!("expected a JSON object, got {other:?}")),
        };
        let get = |name: &str| -> Result<&Json, String> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{name}`"))
        };
        let get_u64 = |name: &str| get(name).and_then(|v| v.as_u64(name));
        let get_i64 = |name: &str| get(name).and_then(|v| v.as_i64(name));
        let get_f64 = |name: &str| get(name).and_then(|v| v.as_f64(name));
        let get_str = |name: &str| get(name).and_then(|v| v.as_str(name));
        let get_bool = |name: &str| get(name).and_then(|v| v.as_bool(name));
        let schema = get_u64("schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema {schema}: only schema {SCHEMA_VERSION} decodes"
            ));
        }
        let git_sha = match get("git_sha")? {
            Json::Null => None,
            v => Some(v.as_str("git_sha")?),
        };
        Ok(Self {
            schema,
            figure: get_str("figure")?,
            scheme: get_str("scheme")?,
            structure: get_str("structure")?,
            mix: get_str("mix")?,
            threads: get_u64("threads")?,
            stalled: get_u64("stalled")?,
            secs: get_f64("secs")?,
            trials: get_u64("trials")?,
            prefill: get_u64("prefill")?,
            key_range: get_u64("key_range")?,
            sample_every: get_u64("sample_every")?,
            use_trim: get_bool("use_trim")?,
            trim_window: get_u64("trim_window")?,
            seed: get_u64("seed")?,
            slots: get_u64("slots")?,
            batch_min: get_u64("batch_min")?,
            era_freq: get_u64("era_freq")?,
            scan_threshold: get_u64("scan_threshold")?,
            max_protect: get_u64("max_protect")?,
            ack_threshold: get_i64("ack_threshold")?,
            adaptive: get_bool("adaptive")?,
            max_threads: get_u64("max_threads")?,
            shards: get_u64("shards")?,
            handoff_attempts: get_u64("handoff_attempts")?,
            recycle: get_bool("recycle")?,
            recycle_capacity: get_u64("recycle_capacity")?,
            recycle_magazine: get_u64("recycle_magazine")?,
            git_sha,
            host_cores: get_u64("host_cores")?,
            timestamp: get_str("timestamp")?,
            mops: get_f64("mops")?,
            avg_unreclaimed: get_f64("avg_unreclaimed")?,
            ops: get_u64("ops")?,
            retired: get_u64("retired")?,
            freed: get_u64("freed")?,
            pool_hits: get_u64("pool_hits")?,
            pool_misses: get_u64("pool_misses")?,
            recycled: get_u64("recycled")?,
        })
    }
}

fn push_key(s: &mut String, key: &str) {
    push_json_string(s, key);
    s.push(':');
}

fn push_str(s: &mut String, key: &str, v: &str) {
    push_key(s, key);
    push_json_string(s, v);
    s.push(',');
}

fn push_u64(s: &mut String, key: &str, v: u64) {
    push_key(s, key);
    let _ = write!(s, "{v},");
}

fn push_i64(s: &mut String, key: &str, v: i64) {
    push_key(s, key);
    let _ = write!(s, "{v},");
}

fn push_f64(s: &mut String, key: &str, v: f64) {
    push_key(s, key);
    // Rust's `Display` for f64 is the shortest representation that parses
    // back to the same bits, so finite floats round-trip exactly. JSON has
    // no NaN/infinity; they are coerced to 0 (benchmark metrics are always
    // finite — durations are positive and counters are integers).
    let v = if v.is_finite() { v } else { 0.0 };
    let _ = write!(s, "{v},");
}

fn push_bool(s: &mut String, key: &str, v: bool) {
    push_key(s, key);
    let _ = write!(s, "{v},");
}

fn push_null(s: &mut String, key: &str) {
    push_key(s, key);
    s.push_str("null,");
}

fn push_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// A parsed JSON value (decoder side).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// Numbers keep their source text so u64/i64/f64 can each parse it
    /// at full precision (2^64-1 does not fit in an f64).
    Num(String),
    Str(String),
    #[allow(dead_code)]
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_u64(&self, name: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => n
                .parse()
                .map_err(|_| format!("field `{name}`: `{n}` is not a u64")),
            other => Err(format!("field `{name}`: expected a number, got {other:?}")),
        }
    }

    fn as_i64(&self, name: &str) -> Result<i64, String> {
        match self {
            Json::Num(n) => n
                .parse()
                .map_err(|_| format!("field `{name}`: `{n}` is not an i64")),
            other => Err(format!("field `{name}`: expected a number, got {other:?}")),
        }
    }

    fn as_f64(&self, name: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => n
                .parse()
                .map_err(|_| format!("field `{name}`: `{n}` is not an f64")),
            other => Err(format!("field `{name}`: expected a number, got {other:?}")),
        }
    }

    fn as_str(&self, name: &str) -> Result<String, String> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            other => Err(format!("field `{name}`: expected a string, got {other:?}")),
        }
    }

    fn as_bool(&self, name: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("field `{name}`: expected a bool, got {other:?}")),
        }
    }
}

/// Parses one complete JSON value (trailing content is an error).
fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        chars: s.chars().collect(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.chars.len() {
        return Err(format!("trailing characters at offset {}", p.i));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn next(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unexpected end of input")?;
        self.i += 1;
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "expected `{want}`, got `{got}` at offset {}",
                self.i
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            '{' => self.object(),
            '[' => self.array(),
            '"' => Ok(Json::Str(self.string()?)),
            't' => self.literal("true", Json::Bool(true)),
            'f' => self.literal("false", Json::Bool(false)),
            'n' => self.literal("null", Json::Null),
            '-' | '0'..='9' => self.number(),
            c => Err(format!("unexpected character `{c}` at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.next()? {
                ',' => continue,
                '}' => return Ok(Json::Obj(fields)),
                c => return Err(format!("expected `,` or `}}`, got `{c}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.next()? {
                ',' => continue,
                ']' => return Ok(Json::Arr(items)),
                c => return Err(format!("expected `,` or `]`, got `{c}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                '"' => return Ok(out),
                '\\' => match self.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{0008}'),
                    'f' => out.push('\u{000C}'),
                    'u' => {
                        let first = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // Surrogate pair: \uD8xx must be followed by \uDCxx.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let second = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                        );
                    }
                    c => return Err(format!("invalid escape `\\{c}`")),
                },
                c => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.next()?;
            v = v * 16
                + c.to_digit(16)
                    .ok_or_else(|| format!("invalid hex digit `{c}`"))?;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some('-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
            self.i += 1;
        }
        let text: String = self.chars[start..self.i].iter().collect();
        // Validate now so ill-formed numbers fail at parse time, not at
        // field-extraction time.
        text.parse::<f64>()
            .map_err(|_| format!("invalid number `{text}`"))?;
        Ok(Json::Num(text))
    }
}

/// Accumulates records during a run, stamped with shared [`Provenance`].
#[derive(Debug)]
pub struct ResultSink {
    provenance: Provenance,
    records: Vec<BenchRecord>,
}

impl ResultSink {
    /// An empty sink stamping every record with `provenance`.
    pub fn new(provenance: Provenance) -> Self {
        Self {
            provenance,
            records: Vec::new(),
        }
    }

    /// Records one measured run.
    pub fn record(
        &mut self,
        figure: &str,
        scheme: &str,
        structure: &str,
        params: &BenchParams,
        result: &RunResult,
    ) {
        self.records.push(BenchRecord::from_run(
            figure,
            scheme,
            structure,
            params,
            result,
            &self.provenance,
        ));
    }

    /// The records accumulated so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Appends all accumulated records to a JSONL file (creating it if
    /// needed) and returns how many were written.
    pub fn append_to(&self, path: &Path) -> std::io::Result<usize> {
        append_records(path, &self.records)?;
        Ok(self.records.len())
    }
}

/// Appends records to a JSONL file, creating it if absent.
pub fn append_records(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.encode());
        buf.push('\n');
    }
    file.write_all(buf.as_bytes())
}

/// Reads every record of a JSONL file. Blank lines are skipped; a malformed
/// line is an error naming its line number.
pub fn read_records(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (idx, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{}:{}: {e}", path.display(), idx + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let record = BenchRecord::decode(&line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), idx + 1))?;
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::OpMix;

    pub(crate) fn sample_record() -> BenchRecord {
        let params = BenchParams {
            threads: 8,
            stalled: 2,
            mix: OpMix::ReadMostly,
            ..BenchParams::default()
        };
        let result = RunResult {
            mops: 12.625,
            avg_unreclaimed: 130.5,
            ops: 123_456,
            retired: 100,
            freed: 90,
            ..RunResult::default()
        };
        let prov = Provenance {
            git_sha: Some("abc123def456".into()),
            host_cores: 8,
            timestamp: "1722280000".into(),
        };
        BenchRecord::from_run("Fig 8c", "Hyaline-S", "hashmap", &params, &result, &prov)
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = sample_record();
        let line = r.encode();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        let back = BenchRecord::decode(&line).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn none_git_sha_round_trips() {
        let mut r = sample_record();
        r.git_sha = None;
        let back = BenchRecord::decode(&r.encode()).unwrap();
        assert_eq!(back.git_sha, None);
        assert_eq!(back, r);
    }

    #[test]
    fn strings_with_specials_round_trip() {
        let mut r = sample_record();
        r.scheme = "weird \"scheme\", with\\slashes\nand\ttabs \u{1F600}".into();
        r.figure = "控制\u{0001}chars".into();
        let back = BenchRecord::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn extreme_integers_round_trip() {
        let mut r = sample_record();
        r.seed = u64::MAX;
        r.ops = u64::MAX - 1;
        r.ack_threshold = i64::MIN;
        let back = BenchRecord::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_fields_ignored_missing_fields_fail() {
        let mut line = sample_record().encode();
        line.insert_str(1, "\"future_field\":[1,{\"x\":null}],");
        assert!(BenchRecord::decode(&line).is_ok());
        let err = BenchRecord::decode(&format!("{{\"schema\":{SCHEMA_VERSION}}}")).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn every_field_is_required_and_named() {
        // The sample's strings hold no commas, so the commas split fields.
        let line = sample_record().encode();
        let fields: Vec<&str> = line[1..line.len() - 1].split(',').collect();
        assert_eq!(fields.len(), 39, "one entry per `BenchRecord` field");
        for (i, field) in fields.iter().enumerate() {
            let name = field.split(':').next().unwrap().trim_matches('"');
            let mut rest = fields.clone();
            rest.remove(i);
            let err = BenchRecord::decode(&format!("{{{}}}", rest.join(","))).unwrap_err();
            assert!(
                err.contains(&format!("`{name}`")),
                "dropping `{name}`: {err}"
            );
        }
    }

    #[test]
    fn other_schema_versions_are_rejected() {
        let old = sample_record()
            .encode()
            .replace(&format!("\"schema\":{SCHEMA_VERSION},"), "\"schema\":4,");
        let err = BenchRecord::decode(&old).unwrap_err();
        assert!(err.contains("schema 4"), "{err}");
    }

    #[test]
    fn committed_baseline_is_the_current_schema() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let records = read_records(&root.join("benchdata/stable-baseline.jsonl")).unwrap();
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.schema == SCHEMA_VERSION));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(BenchRecord::decode("not json").is_err());
        assert!(BenchRecord::decode("{\"schema\":}").is_err());
        assert!(BenchRecord::decode("[1,2]").is_err());
        let trailing = format!("{} extra", sample_record().encode());
        assert!(BenchRecord::decode(&trailing).is_err());
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let v = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("\u{1F600}".to_string()));
        assert!(parse_json("\"\\ud83d\"").is_err());
    }

    #[test]
    fn jsonl_file_append_and_read() {
        let dir = std::env::temp_dir().join(format!("hyaline-results-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sink = ResultSink::new(Provenance {
            git_sha: None,
            host_cores: 4,
            timestamp: "0".into(),
        });
        let r = sample_record();
        sink.record(
            "f",
            "s",
            "d",
            &BenchParams::default(),
            &RunResult::default(),
        );
        assert_eq!(sink.records().len(), 1);
        sink.append_to(&path).unwrap();
        append_records(&path, std::slice::from_ref(&r)).unwrap();
        let back = read_records(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1], r);
        let _ = std::fs::remove_file(&path);
    }
}
