//! The incremental verification cache, grained per proof obligation.
//!
//! Giallar's pitch is push-button *re*-verification on every compiler change
//! (§1 of the paper).  PR 2 cached verdicts per pass, which re-discharged a
//! whole pass when a single branch of its loop body changed.  Format v2
//! re-grains the cache to **one entry per proof obligation**, keyed by a
//! stable content fingerprint of everything an obligation's verdict depends
//! on:
//!
//! * the obligation's canonical form (see
//!   [`ProofObligation::write_canonical`]) — description plus
//!   goal, injective on goals by construction,
//! * the rewrite-rule library fingerprint of
//!   [`qc_symbolic::rule_library_fingerprint`] — a verdict is only valid
//!   for the rule library it was discharged under, and
//! * the id of the strategy that discharged it
//!   ([`crate::backend::BackendSelection::backend_id_for`]) — verdicts from
//!   the reference routing and the production routing are separate
//!   entries, so a differential `--backend reference` run never poisons (or
//!   is answered by) the default entries.
//!
//! [`crate::verifier::verify_passes_cached_with`] consults the cache per
//! obligation and re-discharges only obligations whose fingerprint changed:
//! a pass with one edited branch re-checks exactly that branch.  Hit/miss
//! statistics are tracked globally and per pass ([`VerdictCache::pass_stats`]).
//! The cache persists to a JSON file (see [`VerdictCache::to_json`]); a v1
//! (pass-grained) file loads as an empty v2 cache — the old entries cannot
//! answer obligation-grained queries, so migration is a clean cold start,
//! never an error.
//!
//! The `giallar serve` daemon keeps the same [`VerdictCache`] resident.  Its
//! clock, pins, [`EvictionPolicy`] and backend provenance live outside the
//! file format, so a daemon loads and saves the file `verify --cache` uses.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use smtlite::{FaultSite, Fingerprint, FingerprintBuilder, Verdict};

use crate::json::{self, Value};
use crate::obligation::ProofObligation;

/// Version of the cache file format; bump on any breaking schema change so
/// stale files are discarded instead of misread.  v1 was pass-grained; v2 is
/// obligation-grained.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The stable fingerprint of one proof obligation under one rule library,
/// one discharging backend, and one discharge context — the cache key.
///
/// `register_width` is the solver register the obligation is discharged
/// over: the widest equivalence goal of its pass (see
/// [`crate::verifier::pass_register_width`]) for circuit-equivalence goals,
/// and `0` for arithmetic/trivial goals, whose discharge never touches a
/// register.  Folding it in keeps cached verdicts — including the exact
/// counterexample text, which mentions register wires — a faithful replay
/// of what a fresh discharge in the same pass context would produce, even
/// when an identical obligation appears in passes of different widths.
pub fn obligation_fingerprint(
    obligation: &ProofObligation,
    rule_library: Fingerprint,
    backend_id: &str,
    register_width: usize,
) -> Fingerprint {
    let mut builder = FingerprintBuilder::new();
    builder.write_str("giallar-obligation");
    builder.write_u64(u64::from(CACHE_FORMAT_VERSION));
    builder.write_u64(rule_library.0);
    builder.write_str(backend_id);
    builder.write_u64(register_width as u64);
    builder.write_rendered(|out| obligation.write_canonical(out));
    builder.finish()
}

/// One cached verdict.  Mirrors [`smtlite::Verdict`] with owned explanation
/// text so a warm run reproduces failure reports byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The obligation was discharged.
    Proved,
    /// The obligation failed with a counterexample explanation.
    Refuted {
        /// The solver's counterexample description.
        explanation: String,
        /// Structured fault coordinates, when the discharging layer could
        /// localise the failure (see [`smtlite::FaultSite`]).
        site: Option<FaultSite>,
    },
    /// The solver could not decide the obligation.
    Unknown {
        /// Why the solver gave up.
        reason: String,
    },
}

impl CachedVerdict {
    /// Captures a solver verdict for storage.
    pub fn from_verdict(verdict: &Verdict) -> Self {
        match verdict {
            Verdict::Proved => CachedVerdict::Proved,
            Verdict::Refuted { explanation, site } => {
                CachedVerdict::Refuted { explanation: explanation.clone(), site: *site }
            }
            Verdict::Unknown { reason } => CachedVerdict::Unknown { reason: reason.clone() },
        }
    }

    /// Reconstructs the solver verdict a stored entry stands for.
    pub fn to_verdict(&self) -> Verdict {
        match self {
            CachedVerdict::Proved => Verdict::Proved,
            CachedVerdict::Refuted { explanation, site } => {
                Verdict::Refuted { explanation: explanation.clone(), site: *site }
            }
            CachedVerdict::Unknown { reason } => Verdict::Unknown { reason: reason.clone() },
        }
    }

    /// Whether the entry records a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, CachedVerdict::Proved)
    }

    pub(crate) fn to_json_value(&self) -> Value {
        match self {
            CachedVerdict::Proved => {
                Value::object(vec![("verdict", Value::String("proved".to_string()))])
            }
            CachedVerdict::Refuted { explanation, site } => {
                let mut members = vec![
                    ("verdict", Value::String("refuted".to_string())),
                    ("explanation", Value::String(explanation.clone())),
                ];
                if let Some(site) = site {
                    members.push(("site", fault_site_to_json(site)));
                }
                Value::object(members)
            }
            CachedVerdict::Unknown { reason } => Value::object(vec![
                ("verdict", Value::String("unknown".to_string())),
                ("reason", Value::String(reason.clone())),
            ]),
        }
    }

    pub(crate) fn from_json_value(value: &Value) -> Result<Self, String> {
        let kind =
            value.get("verdict").and_then(Value::as_str).ok_or("cache entry: missing `verdict`")?;
        match kind {
            "proved" => Ok(CachedVerdict::Proved),
            "refuted" => Ok(CachedVerdict::Refuted {
                explanation: value
                    .get("explanation")
                    .and_then(Value::as_str)
                    .ok_or("cache entry: refuted without `explanation`")?
                    .to_string(),
                site: match value.get("site") {
                    None | Some(Value::Null) => None,
                    Some(site) => Some(fault_site_from_json(site)?),
                },
            }),
            "unknown" => Ok(CachedVerdict::Unknown {
                reason: value
                    .get("reason")
                    .and_then(Value::as_str)
                    .ok_or("cache entry: unknown without `reason`")?
                    .to_string(),
            }),
            other => Err(format!("cache entry: bad verdict {}", quoted(other))),
        }
    }
}

/// Quotes untrusted text for a one-line error message: escaped and clamped
/// by [`qc_ir::escaped`], so control characters cannot break the line.
fn quoted(text: &str) -> String {
    format!("\"{}\"", qc_ir::escaped(text))
}

/// Renders a structured fault site as a JSON object (`{"kind": ...}`).
/// Serialized only on refuted entries that carry a site, so caches and
/// certificates written before sites existed — and all proved entries —
/// keep their bytes.
pub fn fault_site_to_json(site: &FaultSite) -> Value {
    match site {
        FaultSite::Wire { wire } => Value::object(vec![
            ("kind", Value::String("wire".to_string())),
            ("wire", Value::Int(*wire as i64)),
        ]),
        FaultSite::WireMap { entry, len } => Value::object(vec![
            ("kind", Value::String("wire-map".to_string())),
            ("entry", entry.map_or(Value::Null, |e| Value::Int(e as i64))),
            ("len", Value::Int(*len as i64)),
        ]),
        FaultSite::Termination { consumed, kept } => Value::object(vec![
            ("kind", Value::String("termination".to_string())),
            ("consumed", Value::Int(*consumed)),
            ("kept", Value::Int(*kept)),
        ]),
    }
}

/// Parses a fault site rendered by [`fault_site_to_json`].
///
/// # Errors
///
/// Returns a description of the first malformed or missing member.
pub fn fault_site_from_json(value: &Value) -> Result<FaultSite, String> {
    let kind = value.get("kind").and_then(Value::as_str).ok_or("fault site: missing `kind`")?;
    let int = |name: &str| -> Result<i64, String> {
        value
            .get(name)
            .and_then(Value::as_int)
            .ok_or_else(|| format!("fault site: missing `{name}`"))
    };
    match kind {
        "wire" => Ok(FaultSite::Wire { wire: int("wire")? as usize }),
        "wire-map" => Ok(FaultSite::WireMap {
            entry: match value.get("entry") {
                None | Some(Value::Null) => None,
                Some(entry) => {
                    Some(entry.as_int().ok_or("fault site: non-integer `entry`")? as usize)
                }
            },
            len: int("len")? as usize,
        }),
        "termination" => {
            Ok(FaultSite::Termination { consumed: int("consumed")?, kept: int("kept")? })
        }
        other => Err(format!("fault site: bad kind {}", quoted(other))),
    }
}

/// Hit/miss counts for one pass in one verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassCacheStats {
    /// Pass name.
    pub pass: String,
    /// Obligations answered from the cache.
    pub hits: usize,
    /// Obligations that had to be discharged.
    pub misses: usize,
}

/// Bounds on the resident entry set.  `None` disables the respective
/// mechanism; the all-`None` default keeps every entry forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionPolicy {
    /// Total entry capacity: a [`VerdictCache::evict`] sweep drops
    /// least-recently-used unpinned entries until the store fits.
    pub max_entries: Option<usize>,
    /// Idle time to live, in logical ticks: an unpinned entry last touched
    /// more than `ttl` ticks ago is dropped by the next sweep.
    pub ttl: Option<u64>,
}

/// Monotonic store counters since construction or the last
/// [`VerdictCache::reset_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Obligations answered from the store.
    pub hits: u64,
    /// Obligations that found no entry.
    pub misses: u64,
    /// Entries created by a record; overwriting an entry the store already
    /// holds does not count.
    pub inserted: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evicted_lru: u64,
    /// Entries dropped by the idle TTL.
    pub evicted_ttl: u64,
    /// Entries dropped by [`VerdictCache::compact`].
    pub compacted: u64,
    /// Entries dropped by [`VerdictCache::invalidate`].
    pub invalidated: u64,
}

/// What one [`VerdictCache::evict`] sweep removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionSummary {
    /// Entries dropped for exceeding the LRU capacity.
    pub evicted_lru: u64,
    /// Entries dropped for exceeding the idle TTL.
    pub evicted_ttl: u64,
}

/// One stored verdict plus the bookkeeping eviction and compaction need.
#[derive(Debug, Clone)]
struct Entry {
    verdict: CachedVerdict,
    /// Id of the backend that discharged the verdict; `None` for entries
    /// loaded from a file (the format does not record it), which
    /// compaction never drops.
    backend: Option<&'static str>,
    /// Logical tick of the last record or served hit.
    last_used: u64,
    /// In-flight requests holding this entry; eviction and compaction skip
    /// entries with `pins > 0`.
    pins: u32,
}

/// The verdict store: a map from obligation fingerprint to cached verdict,
/// bound to the rule library every entry was discharged under.
///
/// The daemon also uses a logical clock ([`Self::tick`], once per dispatch
/// batch), pins for in-flight requests ([`Self::pin`]), eviction sweeps
/// ([`Self::evict`]) and backend compaction ([`Self::compact`]).  Eviction
/// reads only the logical clock, so it replays exactly with the requests.
///
/// # Example
///
/// ```
/// use giallar_core::cache::{CachedVerdict, EvictionPolicy, VerdictCache};
/// use smtlite::Fingerprint;
///
/// // Two entries max; entries idle for more than 8 ticks expire.
/// let policy = EvictionPolicy { max_entries: Some(2), ttl: Some(8) };
/// let mut cache = VerdictCache::new().with_policy(policy);
/// cache.record_by(Fingerprint(1), CachedVerdict::Proved, "rewrite-equiv");
/// cache.record_by(Fingerprint(2), CachedVerdict::Proved, "rewrite-equiv");
///
/// // A later batch serves 1, so a third entry evicts 2.
/// cache.tick();
/// cache.note_served(Fingerprint(1), true);
/// cache.record_by(Fingerprint(3), CachedVerdict::Proved, "rewrite-equiv");
/// assert_eq!(cache.evict().evicted_lru, 1);
/// assert!(cache.peek(Fingerprint(2)).is_none());
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct VerdictCache {
    rule_library: Fingerprint,
    entries: BTreeMap<Fingerprint, Entry>,
    stats: CacheStats,
    pass_stats: Vec<PassCacheStats>,
    policy: EvictionPolicy,
    clock: u64,
}

impl VerdictCache {
    /// An empty, unbounded cache bound to the current rewrite-rule library.
    pub fn new() -> Self {
        VerdictCache {
            rule_library: qc_symbolic::rule_library_fingerprint(),
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
            pass_stats: Vec::new(),
            policy: EvictionPolicy::default(),
            clock: 0,
        }
    }

    /// The same store under an eviction policy (enforced by
    /// [`Self::evict`]).
    pub fn with_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Loads a cache from `path`.  A missing file yields an empty cache; a
    /// file written under a different format version (including v1) or rule
    /// library is discarded wholesale (every entry would be stale anyway).
    ///
    /// # Errors
    ///
    /// Returns an error for unreadable files or unparseable JSON.
    pub fn load(path: &Path) -> io::Result<Self> {
        match std::fs::read_to_string(path) {
            Ok(text) => VerdictCache::from_json(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(error) if error.kind() == io::ErrorKind::NotFound => Ok(VerdictCache::new()),
            Err(error) => Err(error),
        }
    }

    /// Loads a cache from `path`, recovering from corruption: a missing file
    /// is an empty cache, and an unreadable or unparseable file comes back
    /// as an empty cache plus a warning describing what was discarded (the
    /// next save overwrites the corrupt file).  This is the CLI entry point —
    /// a damaged cache must cost a cold run, not a failed verification.
    pub fn load_lenient(path: &Path) -> (Self, Option<String>) {
        match VerdictCache::load(path) {
            Ok(cache) => (cache, None),
            Err(error) => (
                VerdictCache::new(),
                Some(format!(
                    "ignoring unreadable cache {} ({error}); starting empty",
                    path.display()
                )),
            ),
        }
    }

    /// Persists the cache to `path` atomically: the JSON is written to a
    /// temporary file *unique to this save* and renamed into place, so a
    /// reader (or [`Self::load_lenient`]) can never observe a torn file.
    ///
    /// The temporary name folds in the process id and a per-process
    /// counter.  A *fixed* temporary name (the obvious `cache.tmp`) is not
    /// atomic under concurrency: with a daemon and a CLI run saving the
    /// same path, one writer can truncate the shared temporary file while
    /// the other is about to rename it, publishing a half-written cache.
    /// Unique temporaries make every rename the rename of a fully written
    /// file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the temporary file is removed on a
    /// failed rename).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        static SAVE_SEQUENCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let sequence = SAVE_SEQUENCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), sequence));
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Parses a cache from its JSON form.  Entries recorded under a
    /// different format version (v1 files auto-migrate this way) or
    /// rewrite-rule library are discarded: the cache comes back empty but
    /// valid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let version =
            doc.get("version").and_then(Value::as_int).ok_or("cache: missing `version`")?;
        let recorded_library = doc
            .get("rule_library_fingerprint")
            .and_then(Value::as_str)
            .and_then(Fingerprint::from_hex)
            .ok_or("cache: missing `rule_library_fingerprint`")?;
        let mut cache = VerdictCache::new();
        if version != i64::from(CACHE_FORMAT_VERSION) || recorded_library != cache.rule_library {
            // Format drift (a v1 pass-grained file, or a future v3) or
            // rule-library drift: every cached verdict is stale.  Migration
            // is a clean cold start, never an error.
            return Ok(cache);
        }
        let Some(Value::Object(entries)) = doc.get("entries") else {
            return Err("cache: missing `entries`".to_string());
        };
        for (key, entry) in entries {
            let fingerprint = Fingerprint::from_hex(key)
                .ok_or_else(|| format!("cache entry {}: bad fingerprint key", quoted(key)))?;
            let verdict = CachedVerdict::from_json_value(entry)?;
            cache
                .entries
                .insert(fingerprint, Entry { verdict, backend: None, last_used: 0, pins: 0 });
        }
        Ok(cache)
    }

    /// Serializes the cache.  Format:
    ///
    /// ```json
    /// {
    ///   "version": 2,
    ///   "rule_library_fingerprint": "16 hex digits",
    ///   "entries": {
    ///     "<16-hex obligation fingerprint>": { "verdict": "proved" },
    ///     "<16-hex obligation fingerprint>": {
    ///       "verdict": "refuted", "explanation": "counterexample …"
    ///     }
    ///   }
    /// }
    /// ```
    ///
    /// Entry keys are [`obligation_fingerprint`]s — the backend id and rule
    /// library are folded into the key, so one file can hold verdicts from
    /// several backends side by side.
    pub fn to_json(&self) -> String {
        let entries: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(fingerprint, entry)| (fingerprint.to_hex(), entry.verdict.to_json_value()))
            .collect();
        Value::object(vec![
            ("version", Value::Int(i64::from(CACHE_FORMAT_VERSION))),
            ("rule_library_fingerprint", Value::String(self.rule_library.to_hex())),
            ("entries", Value::Object(entries)),
        ])
        .to_pretty()
    }

    /// Looks up an entry without touching the counters or the LRU order.
    /// A cached run scans the start-of-run store through this and reports
    /// stats through [`Self::note_pass`] afterwards, keeping the counters
    /// deterministic regardless of thread scheduling.
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<&CachedVerdict> {
        self.entries.get(&fingerprint).map(|entry| &entry.verdict)
    }

    /// Records a verdict under its fingerprint, with no backend provenance.
    pub fn record(&mut self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        self.insert(fingerprint, verdict, None);
    }

    /// Records a verdict discharged by `backend` (a stable backend id such
    /// as `"rewrite-equiv"`, which [`Self::compact`] can retire).
    pub fn record_by(
        &mut self,
        fingerprint: Fingerprint,
        verdict: CachedVerdict,
        backend: &'static str,
    ) {
        self.insert(fingerprint, verdict, Some(backend));
    }

    /// Writes an entry, keeping the pins of one it overwrites and touching
    /// its LRU position.
    fn insert(
        &mut self,
        fingerprint: Fingerprint,
        verdict: CachedVerdict,
        backend: Option<&'static str>,
    ) {
        let pins = self.entries.get(&fingerprint).map_or(0, |entry| entry.pins);
        let entry = Entry { verdict, backend, last_used: self.clock, pins };
        let overwritten = self.entries.insert(fingerprint, entry);
        self.stats.inserted += u64::from(overwritten.is_none());
    }

    /// Removes one entry (e.g. to force a targeted re-check), returning
    /// whether it existed.  From the cache's point of view this is exactly
    /// what editing that obligation's canonical form does: the next run
    /// misses on it and re-discharges only it.  Invalidation ignores pins:
    /// the entry is stale for every future request.
    pub fn invalidate(&mut self, fingerprint: Fingerprint) -> bool {
        let removed = self.entries.remove(&fingerprint).is_some();
        self.stats.invalidated += u64::from(removed);
        removed
    }

    /// Folds one pass's hit/miss counts into the totals and the per-pass
    /// statistics (in verification order).
    pub fn note_pass(&mut self, pass: &str, hits: usize, misses: usize) {
        self.stats.hits += hits as u64;
        self.stats.misses += misses as u64;
        self.pass_stats.push(PassCacheStats { pass: pass.to_string(), hits, misses });
    }

    /// Counts one served hit or miss, touching the entry's LRU position on
    /// a hit.  The daemon counts through this instead of
    /// [`Self::note_pass`], so its memory does not grow per request.
    pub fn note_served(&mut self, fingerprint: Fingerprint, hit: bool) {
        if hit {
            self.stats.hits += 1;
            if let Some(entry) = self.entries.get_mut(&fingerprint) {
                entry.last_used = self.clock;
            }
        } else {
            self.stats.misses += 1;
        }
    }

    /// Obligation-level cache hits since construction or the last
    /// [`Self::reset_stats`].
    pub fn hits(&self) -> usize {
        self.stats.hits as usize
    }

    /// Obligation-level cache misses since construction or the last
    /// [`Self::reset_stats`].
    pub fn misses(&self) -> usize {
        self.stats.misses as usize
    }

    /// Every store counter since construction or the last
    /// [`Self::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Per-pass hit/miss statistics for the runs since construction or the
    /// last [`Self::reset_stats`], in verification order.
    pub fn pass_stats(&self) -> &[PassCacheStats] {
        &self.pass_stats
    }

    /// Clears the counters and per-pass statistics (e.g. between a cold and
    /// a warm run).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.pass_stats.clear();
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock (the daemon calls this once per dispatch
    /// batch) and returns the new tick.
    pub fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The eviction policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Pins an entry for the duration of a served request and returns its
    /// verdict: a pinned entry is never evicted or compacted.  Pinning a
    /// missing fingerprint is a no-op and returns `None`.  Pins nest; every
    /// successful `pin` must be paired with one [`Self::unpin`].
    pub fn pin(&mut self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        let entry = self.entries.get_mut(&fingerprint)?;
        entry.pins += 1;
        Some(entry.verdict.clone())
    }

    /// Releases one pin on an entry.  Unpinning a missing or unpinned
    /// fingerprint is a no-op (the entry may have been invalidated while
    /// pinned).
    pub fn unpin(&mut self, fingerprint: Fingerprint) {
        if let Some(entry) = self.entries.get_mut(&fingerprint) {
            entry.pins = entry.pins.saturating_sub(1);
        }
    }

    /// Entries currently pinned by in-flight requests.
    pub fn pinned(&self) -> usize {
        self.entries.values().filter(|entry| entry.pins > 0).count()
    }

    /// One eviction sweep under the policy: first drop entries idle for
    /// more than the TTL, then drop least-recently-used entries (ties
    /// broken by fingerprint) until at most `max_entries` remain.  Pinned
    /// entries are never dropped, even when that leaves the store over
    /// capacity.
    pub fn evict(&mut self) -> EvictionSummary {
        let mut summary = EvictionSummary::default();
        if let Some(ttl) = self.policy.ttl {
            let (now, before) = (self.clock, self.entries.len());
            self.entries
                .retain(|_, entry| entry.pins > 0 || now.saturating_sub(entry.last_used) <= ttl);
            summary.evicted_ttl = (before - self.entries.len()) as u64;
        }
        if let Some(cap) = self.policy.max_entries.filter(|&cap| self.entries.len() > cap) {
            let mut candidates: Vec<(u64, Fingerprint)> = self
                .entries
                .iter()
                .filter(|(_, entry)| entry.pins == 0)
                .map(|(fingerprint, entry)| (entry.last_used, *fingerprint))
                .collect();
            candidates.sort_unstable();
            let excess = self.entries.len() - cap;
            for (_, fingerprint) in candidates.into_iter().take(excess) {
                self.entries.remove(&fingerprint);
                summary.evicted_lru += 1;
            }
        }
        self.stats.evicted_ttl += summary.evicted_ttl;
        self.stats.evicted_lru += summary.evicted_lru;
        summary
    }

    /// Drops every unpinned entry recorded by one of the `retired_backends`
    /// ids and returns how many were dropped.  After a `--backend
    /// reference` comparison, `compact(&["reference"])` reclaims the
    /// entries default-routed requests will never hit.
    pub fn compact(&mut self, retired_backends: &[&str]) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, entry| {
            entry.pins > 0
                || entry.backend.is_none_or(|backend| !retired_backends.contains(&backend))
        });
        let removed = before - self.entries.len();
        self.stats.compacted += removed as u64;
        removed
    }

    /// Iterates over the stored entries in fingerprint order.
    pub fn entries(&self) -> impl Iterator<Item = (Fingerprint, &CachedVerdict)> + '_ {
        self.entries.iter().map(|(fingerprint, entry)| (*fingerprint, &entry.verdict))
    }

    /// Number of stored entries.  Identical obligations appearing in
    /// several passes share one entry, so this can be smaller than the
    /// total obligation count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache stores no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The rewrite-rule library fingerprint the entries are bound to.
    pub fn rule_library_fingerprint(&self) -> Fingerprint {
        self.rule_library
    }
}

impl Default for VerdictCache {
    fn default() -> Self {
        VerdictCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendSelection, GoalClass};
    use crate::obligation::{Goal, ProofObligation};
    use crate::registry::verified_passes;

    fn sample_obligation(description: &str) -> ProofObligation {
        ProofObligation::new(description, Goal::TerminationDecrease { consumed: 2, kept: 1 })
    }

    fn proved(cache: &mut VerdictCache, fp: u64) {
        cache.record_by(Fingerprint(fp), CachedVerdict::Proved, "rewrite-equiv");
    }

    /// Counts a served lookup the way the daemon does.
    fn serve(cache: &mut VerdictCache, fp: u64) -> bool {
        let hit = cache.peek(Fingerprint(fp)).is_some();
        cache.note_served(Fingerprint(fp), hit);
        hit
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let policy = EvictionPolicy { max_entries: Some(2), ttl: None };
        let mut cache = VerdictCache::new().with_policy(policy);
        proved(&mut cache, 1);
        cache.tick();
        proved(&mut cache, 2);
        cache.tick();
        // Serve 1 so 2 becomes the LRU entry.
        assert!(serve(&mut cache, 1));
        proved(&mut cache, 3);
        let summary = cache.evict();
        assert_eq!(summary.evicted_lru, 1);
        assert!(cache.peek(Fingerprint(1)).is_some());
        assert!(cache.peek(Fingerprint(2)).is_none());
        assert!(cache.peek(Fingerprint(3)).is_some());
    }

    #[test]
    fn the_capacity_bound_is_global_and_exact() {
        let policy = EvictionPolicy { max_entries: Some(9), ttl: None };
        let mut cache = VerdictCache::new().with_policy(policy);
        for fp in 0..64 {
            cache.tick();
            proved(&mut cache, fp);
        }
        assert_eq!(cache.evict().evicted_lru, 55);
        assert_eq!(cache.len(), 9);
        // The survivors are the nine most recently recorded.
        assert!(cache.entries().map(|(fp, _)| fp.0).eq(55..64));
    }

    #[test]
    fn ttl_expires_idle_entries_only() {
        let policy = EvictionPolicy { max_entries: None, ttl: Some(2) };
        let mut cache = VerdictCache::new().with_policy(policy);
        proved(&mut cache, 1);
        proved(&mut cache, 2);
        for _ in 0..3 {
            cache.tick();
        }
        // Keep 2 fresh; 1 has been idle for 3 > 2 ticks.
        assert!(serve(&mut cache, 2));
        let summary = cache.evict();
        assert_eq!(summary.evicted_ttl, 1);
        assert!(cache.peek(Fingerprint(1)).is_none());
        assert!(cache.peek(Fingerprint(2)).is_some());
    }

    #[test]
    fn pinned_entries_survive_eviction_and_compaction() {
        let policy = EvictionPolicy { max_entries: Some(1), ttl: Some(0) };
        let mut cache = VerdictCache::new().with_policy(policy);
        proved(&mut cache, 1);
        proved(&mut cache, 2);
        assert!(cache.pin(Fingerprint(1)).is_some());
        assert!(cache.pin(Fingerprint(2)).is_some());
        assert_eq!(cache.pinned(), 2);
        cache.tick();
        cache.tick();
        // Both entries violate the cap and the TTL, but both are pinned.
        let summary = cache.evict();
        assert_eq!(summary, EvictionSummary::default());
        assert_eq!(cache.compact(&["rewrite-equiv"]), 0);
        assert_eq!(cache.len(), 2);
        // Unpinning one releases exactly that one to the next sweep.
        cache.unpin(Fingerprint(2));
        let summary = cache.evict();
        assert_eq!(summary.evicted_ttl, 1);
        assert!(cache.peek(Fingerprint(1)).is_some());
        cache.unpin(Fingerprint(1));
        assert_eq!(cache.pinned(), 0);
    }

    #[test]
    fn pinning_missing_entries_is_a_no_op() {
        let mut cache = VerdictCache::new();
        assert!(cache.pin(Fingerprint(9)).is_none());
        cache.unpin(Fingerprint(9));
        // Invalidation ignores pins (an edit makes the entry stale for
        // everyone), and unpinning after is still a no-op.
        proved(&mut cache, 1);
        assert!(cache.pin(Fingerprint(1)).is_some());
        assert!(cache.invalidate(Fingerprint(1)));
        cache.unpin(Fingerprint(1));
        assert!(cache.is_empty());
    }

    #[test]
    fn compaction_retires_backends_but_keeps_current_entries() {
        let mut cache = VerdictCache::new();
        cache.record_by(Fingerprint(1), CachedVerdict::Proved, "rewrite-equiv");
        cache.record_by(Fingerprint(2), CachedVerdict::Proved, "reference");
        cache.record_by(Fingerprint(3), CachedVerdict::Proved, "reference");
        assert_eq!(cache.compact(&[]), 0, "nothing retired, nothing dropped");
        assert_eq!(cache.compact(&["reference"]), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(Fingerprint(1)).is_some());
        assert_eq!(cache.stats().compacted, 2);
    }

    #[test]
    fn loaded_entries_carry_no_backend_and_are_never_compacted() {
        let mut persistent = VerdictCache::new();
        persistent.record(Fingerprint(7), CachedVerdict::Proved);
        persistent.record(
            Fingerprint(8),
            CachedVerdict::Refuted { explanation: "wire 0".to_string(), site: None },
        );
        let mut loaded = VerdictCache::from_json(&persistent.to_json()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.peek(Fingerprint(8)),
            Some(&CachedVerdict::Refuted { explanation: "wire 0".to_string(), site: None })
        );
        assert_eq!(loaded.compact(&["rewrite-equiv", "reference"]), 0);
        // Clock, pins and provenance live outside the file format.
        loaded.tick();
        loaded.pin(Fingerprint(7));
        assert_eq!(loaded.to_json(), persistent.to_json());
    }

    #[test]
    fn counters_are_deterministic_for_a_replayed_sequence() {
        let run = || {
            let policy = EvictionPolicy { max_entries: Some(8), ttl: Some(3) };
            let mut cache = VerdictCache::new().with_policy(policy);
            for round in 0..6u64 {
                cache.tick();
                for fp in 0..12u64 {
                    if !serve(&mut cache, fp) {
                        proved(&mut cache, fp);
                    }
                }
                cache.evict();
                if round == 3 {
                    cache.compact(&["reference"]);
                }
            }
            cache.stats()
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(first.hits + first.misses, 72);
    }

    #[test]
    fn cache_json_round_trips() {
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(0xdead_beef), CachedVerdict::Proved);
        cache.record(
            Fingerprint(7),
            CachedVerdict::Refuted {
                explanation: "branch \"x\": counterexample\nwire 0".to_string(),
                site: Some(FaultSite::Wire { wire: 0 }),
            },
        );
        cache.record(Fingerprint(9), CachedVerdict::Unknown { reason: "gave up".to_string() });
        let text = cache.to_json();
        let back = VerdictCache::from_json(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert!(back.entries().eq(cache.entries()));
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn note_pass_counts_hits_and_misses_and_peek_does_not() {
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(1), CachedVerdict::Proved);
        assert!(cache.peek(Fingerprint(1)).is_some());
        assert!(cache.peek(Fingerprint(2)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.note_pass("CXCancellation", 3, 1);
        assert_eq!((cache.hits(), cache.misses()), (3, 1));
        assert_eq!(cache.pass_stats().len(), 1);
        assert_eq!(cache.pass_stats()[0].pass, "CXCancellation");
        cache.reset_stats();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.pass_stats().is_empty());
    }

    #[test]
    fn invalidate_removes_exactly_one_entry() {
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(1), CachedVerdict::Proved);
        cache.record(Fingerprint(2), CachedVerdict::Proved);
        assert!(cache.invalidate(Fingerprint(1)));
        assert!(!cache.invalidate(Fingerprint(1)));
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(Fingerprint(2)).is_some());
    }

    #[test]
    fn version_or_library_drift_discards_entries() {
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(1), CachedVerdict::Proved);
        let stale_version = cache.to_json().replace("\"version\": 2", "\"version\": 99");
        assert!(VerdictCache::from_json(&stale_version).unwrap().is_empty());
        let fp = cache.rule_library_fingerprint().to_hex();
        let stale_library = cache.to_json().replace(&fp, &Fingerprint(!0).to_hex());
        assert!(VerdictCache::from_json(&stale_library).unwrap().is_empty());
    }

    #[test]
    fn v1_pass_grained_files_load_as_an_empty_v2_cache() {
        // The exact shape PR 2 wrote: version 1, entries keyed by pass name
        // with per-pass report fields.  It must migrate to empty, not error.
        let v1 = format!(
            r#"{{
  "version": 1,
  "rule_library_fingerprint": "{}",
  "entries": {{
    "CXCancellation": {{
      "fingerprint": "00000000deadbeef",
      "pass_loc": 24, "subgoals": 4, "verified": true,
      "failure": null, "time_seconds": 0.0012
    }}
  }}
}}"#,
            VerdictCache::new().rule_library_fingerprint().to_hex()
        );
        let migrated = VerdictCache::from_json(&v1).unwrap();
        assert!(migrated.is_empty(), "a v1 file is a clean cold start");
    }

    #[test]
    fn malformed_cache_files_are_rejected() {
        assert!(VerdictCache::from_json("{}").is_err());
        assert!(VerdictCache::from_json("not json").is_err());
        let missing_entries = format!(
            "{{\"version\": {CACHE_FORMAT_VERSION}, \"rule_library_fingerprint\": \"{}\"}}",
            VerdictCache::new().rule_library_fingerprint().to_hex()
        );
        assert!(VerdictCache::from_json(&missing_entries).is_err());
        let bad_key = format!(
            "{{\"version\": {CACHE_FORMAT_VERSION}, \"rule_library_fingerprint\": \"{}\", \
             \"entries\": {{\"nope\": {{\"verdict\": \"proved\"}}}}}}",
            VerdictCache::new().rule_library_fingerprint().to_hex()
        );
        assert!(VerdictCache::from_json(&bad_key).is_err());
    }

    #[test]
    fn save_and_load_round_trip_on_disk_and_lenient_load_recovers() {
        let dir = std::env::temp_dir().join("giallar-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("cache-{}.json", std::process::id()));
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(42), CachedVerdict::Proved);
        cache.save(&path).unwrap();
        let back = VerdictCache::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        // A corrupt file errors on strict load and recovers on lenient load.
        std::fs::write(&path, "definitely { not json").unwrap();
        assert!(VerdictCache::load(&path).is_err());
        let (recovered, warning) = VerdictCache::load_lenient(&path);
        assert!(recovered.is_empty());
        assert!(warning.unwrap().contains("starting empty"));
        std::fs::remove_file(&path).unwrap();
        // Missing files load as an empty cache with no warning.
        assert!(VerdictCache::load(&path).unwrap().is_empty());
        let (empty, warning) = VerdictCache::load_lenient(&path);
        assert!(empty.is_empty());
        assert!(warning.is_none());
    }

    #[test]
    fn obligation_fingerprints_are_stable_and_sensitive() {
        let library = qc_symbolic::rule_library_fingerprint();
        let ob = sample_obligation("termination of branch 3");
        let first = obligation_fingerprint(&ob, library, "smtlite-arith", 0);
        assert_eq!(first, obligation_fingerprint(&ob, library, "smtlite-arith", 0));
        // The canonical form, the rule library, the backend id, and the
        // register width each shift the fingerprint.
        assert_ne!(
            first,
            obligation_fingerprint(
                &sample_obligation("termination of branch 4"),
                library,
                "smtlite-arith",
                0
            )
        );
        assert_ne!(first, obligation_fingerprint(&ob, Fingerprint(!library.0), "smtlite-arith", 0));
        assert_ne!(first, obligation_fingerprint(&ob, library, "reference", 0));
        assert_ne!(first, obligation_fingerprint(&ob, library, "smtlite-arith", 3));
    }

    #[test]
    fn registry_obligations_fingerprint_distinctly_per_canonical_form() {
        // Across the whole registry, two obligations collide exactly when
        // their canonical form and discharge context agree — the
        // fingerprint adds no collisions.
        let library = qc_symbolic::rule_library_fingerprint();
        let selection = BackendSelection::Default;
        let mut by_fingerprint: std::collections::BTreeMap<Fingerprint, String> =
            std::collections::BTreeMap::new();
        for pass in verified_passes() {
            let obligations = (pass.obligations)();
            let width = crate::verifier::pass_register_width(&obligations);
            for obligation in obligations {
                let class = GoalClass::of(&obligation.goal);
                let backend = selection.backend_id_for(class);
                let register = if class == GoalClass::CircuitEquivalence { width } else { 0 };
                let fingerprint = obligation_fingerprint(&obligation, library, backend, register);
                let canonical = format!("{register}:{}", obligation.canonical_form());
                if let Some(previous) = by_fingerprint.insert(fingerprint, canonical.clone()) {
                    assert_eq!(
                        previous, canonical,
                        "fingerprint collision between distinct obligations"
                    );
                }
            }
        }
        assert!(by_fingerprint.len() > 40, "registry should produce many distinct entries");
    }
}
