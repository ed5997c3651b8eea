//! Cache files are untrusted input: `giallar verify --cache` and
//! `giallar serve --cache` read whatever is on disk.  Every mangled file
//! must load or fail with a one-line error, in bounded time, because
//! `VerdictCache::load_lenient` prints the error as a single warning line.
//!
//! The cases are drawn from a fixed seed: truncations, byte flips,
//! oversized numbers, deep nesting, and entry keys, verdict tags and fault
//! site kinds that contain control characters.

use std::time::{Duration, Instant};

use giallar::core::cache::{CachedVerdict, VerdictCache};
use giallar::smt::{FaultSite, Fingerprint};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Wall-clock cap per parse (debug build, shared machine).
const CAP: Duration = Duration::from_secs(1);

/// A valid cache file with every verdict form, sites included.
fn sample_file() -> String {
    let mut cache = VerdictCache::new();
    cache.record(Fingerprint(1), CachedVerdict::Proved);
    let site = Some(FaultSite::Wire { wire: 1 });
    let explanation = "counterexample on qubit 1".to_string();
    cache.record(Fingerprint(2), CachedVerdict::Refuted { explanation, site });
    let reason = "rewrite budget exhausted".to_string();
    cache.record(Fingerprint(3), CachedVerdict::Unknown { reason });
    cache.to_json()
}

/// A short string mixing printable text with control characters.
fn hostile_text(rng: &mut StdRng) -> String {
    const PIECES: [&str; 10] = ["a", "\n", "\r", "\t", "\u{1b}[2J", "\0", "b", "\u{7f}", "é", "\""];
    let len = rng.random_range(1..80usize);
    (0..len).map(|_| PIECES[rng.random_range(0..PIECES.len())]).collect()
}

/// `text` as a JSON string literal (escaped, so the document stays valid
/// and the decoded value carries the control characters).
fn literal(text: &str) -> String {
    giallar::core::json::Value::String(text.to_string()).to_pretty()
}

/// One drawn mangling of `base`.
fn mangle(base: &str, rng: &mut StdRng) -> String {
    match rng.random_range(0..7u32) {
        0 => base[..rng.random_range(0..base.len())].to_string(),
        1 => {
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..rng.random_range(1..4usize) {
                let at = rng.random_range(0..bytes.len());
                bytes[at] = rng.random_range(0..0x80u32) as u8;
            }
            String::from_utf8(bytes).expect("ASCII stays UTF-8")
        }
        2 => {
            let digits = "9".repeat(rng.random_range(19..400usize));
            let target = ["\"version\": 2", "\"wire\": 1"][rng.random_range(0..2usize)];
            let (key, _) = target.split_once(": ").unwrap();
            base.replacen(target, &format!("{key}: {digits}"), 1)
        }
        3 => {
            let depth = rng.random_range(1..50_000usize);
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            base.replacen("{\n      \"verdict\": \"proved\"\n    }", &nested, 1)
        }
        4 => base.replacen(
            &format!("\"{}\"", Fingerprint(1).to_hex()),
            &literal(&hostile_text(rng)),
            1,
        ),
        5 => base.replacen("\"proved\"", &literal(&hostile_text(rng)), 1),
        _ => base.replacen("\"wire\"", &literal(&hostile_text(rng)), 1),
    }
}

#[test]
fn mangled_cache_files_load_or_fail_with_one_line_in_bounded_time() {
    let base = sample_file();
    assert_eq!(VerdictCache::from_json(&base).unwrap().len(), 3);
    let mut rng = StdRng::seed_from_u64(0x0063_6163_6865);
    let mut refused = 0;
    for case in 0..400 {
        let text = mangle(&base, &mut rng);
        let start = Instant::now();
        let result = VerdictCache::from_json(&text);
        let elapsed = start.elapsed();
        assert!(elapsed < CAP, "case {case} took {elapsed:?}");
        if let Err(error) = result {
            refused += 1;
            assert!(
                !error.chars().any(char::is_control) && error.len() <= 160,
                "case {case}: not a one-line error: {error:?}\nfrom {text:?}"
            );
        }
    }
    assert!(refused > 100, "only {refused} of 400 mangled files were refused");
}

#[test]
fn hostile_keys_and_tags_are_quoted_escaped_and_clamped() {
    let base = sample_file();
    let key = "a\nb\nc".repeat(40);
    let text = base.replacen(&format!("\"{}\"", Fingerprint(1).to_hex()), &literal(&key), 1);
    let error = VerdictCache::from_json(&text).unwrap_err();
    assert!(error.starts_with(r#"cache entry "a\nb\nc"#), "{error}");
    assert!(error.ends_with("…\": bad fingerprint key"), "{error}");
    let text = base.replacen("\"proved\"", &literal("weird\nline"), 1);
    let error = VerdictCache::from_json(&text).unwrap_err();
    assert_eq!(error, r#"cache entry: bad verdict "weird\nline""#);
}
