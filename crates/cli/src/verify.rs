//! `giallar verify` — registry verification with optional incremental cache
//! and selectable solver backend.

use std::path::PathBuf;

use giallar_core::backend::BackendSelection;
use giallar_core::cache::VerdictCache;
use giallar_core::json::Value;
use giallar_core::registry::{verified_passes, VerifiedPass};
use giallar_core::verifier::{render_table2, verify_passes_cached_with, PassReport};

use crate::{parse_count, value_of, CmdError, CmdResult};

/// Output format shared by `verify` and `client verify` (the served path
/// renders through the same code so its output is bit-identical).
pub(crate) enum Format {
    Table,
    Markdown,
    Json,
}

impl Format {
    /// Parses a `--format` value.
    pub(crate) fn parse(name: &str) -> Result<Format, CmdError> {
        match name {
            "table" => Ok(Format::Table),
            "markdown" => Ok(Format::Markdown),
            "json" => Ok(Format::Json),
            other => Err(CmdError::Usage(format!("--format: unknown format `{other}`"))),
        }
    }
}

struct Options {
    /// `--pass` names, in any order; empty verifies the whole registry.
    pass_filter: Vec<String>,
    format: Format,
    jobs: Option<usize>,
    cache_path: Option<PathBuf>,
    deterministic: bool,
    expect_passes: Option<usize>,
    min_cache_hits: Option<usize>,
    backend: BackendSelection,
}

fn parse_options(args: &[String]) -> Result<Options, CmdError> {
    let mut options = Options {
        pass_filter: Vec::new(),
        format: Format::Table,
        jobs: None,
        cache_path: None,
        deterministic: false,
        expect_passes: None,
        min_cache_hits: None,
        backend: BackendSelection::Default,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--pass" => options.pass_filter.push(value_of(args, &mut i, "--pass")?),
            "--format" => options.format = Format::parse(&value_of(args, &mut i, "--format")?)?,
            "--jobs" => {
                let jobs = parse_count(&value_of(args, &mut i, "--jobs")?, "--jobs")?;
                if jobs == 0 {
                    return Err(CmdError::Usage("--jobs must be at least 1".to_string()));
                }
                options.jobs = Some(jobs);
            }
            "--cache" => {
                options.cache_path = Some(PathBuf::from(value_of(args, &mut i, "--cache")?))
            }
            "--deterministic" => options.deterministic = true,
            "--expect-passes" => {
                options.expect_passes = Some(parse_count(
                    &value_of(args, &mut i, "--expect-passes")?,
                    "--expect-passes",
                )?)
            }
            "--min-cache-hits" => {
                options.min_cache_hits = Some(parse_count(
                    &value_of(args, &mut i, "--min-cache-hits")?,
                    "--min-cache-hits",
                )?)
            }
            "--backend" => options.backend = crate::flags::parse_backend(args, &mut i)?,
            other => return Err(CmdError::Usage(format!("verify: unknown option `{other}`"))),
        }
        i += 1;
    }
    Ok(options)
}

/// Full Levenshtein distance; [`near_miss_passes`] applies the suggestion
/// threshold on top (pass names are short, so the uncapped scan is cheap).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut current = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let substitution = previous[j] + usize::from(ca != cb);
            current.push(substitution.min(previous[j + 1] + 1).min(current[j] + 1));
        }
        previous = current;
    }
    previous[b.len()]
}

/// Near-miss candidates for a mistyped `--pass` value: case-insensitive
/// matches, substring matches, and names within a small edit distance,
/// closest first.
fn near_miss_passes<'a>(typo: &str, known: &[&'a str]) -> Vec<&'a str> {
    let lower = typo.to_lowercase();
    let mut scored: Vec<(usize, &str)> = known
        .iter()
        .filter_map(|&name| {
            let name_lower = name.to_lowercase();
            let distance = if name_lower == lower {
                0
            } else if name_lower.contains(&lower) || lower.contains(&name_lower) {
                1
            } else {
                edit_distance(&name_lower, &lower)
            };
            // A third of the name wrong (at least 2 edits) is no longer a
            // near miss.
            (distance <= 2.max(name.len() / 3)).then_some((distance, name))
        })
        .collect();
    scored.sort();
    scored.into_iter().take(5).map(|(_, name)| name).collect()
}

/// The error for a `--pass` filter that matches nothing: suggest near
/// misses when there are any, otherwise list every known pass.
fn unknown_pass_error(typo: &str) -> CmdError {
    let passes = verified_passes();
    let known: Vec<&str> = passes.iter().map(|p| p.name).collect();
    let near = near_miss_passes(typo, &known);
    if near.is_empty() {
        CmdError::Usage(format!(
            "verify: unknown pass `{typo}`; known passes: {}",
            known.join(", ")
        ))
    } else {
        CmdError::Usage(format!(
            "verify: unknown pass `{typo}`; did you mean {}? (misspelled filters verify \
             nothing, so they are an error)",
            near.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(", ")
        ))
    }
}

/// Runs `giallar verify`.
pub fn run(args: &[String]) -> CmdResult {
    let options = parse_options(args)?;
    if let Some(jobs) = options.jobs {
        // The vendored rayon shim sizes its scoped-thread pool from
        // RAYON_NUM_THREADS at call time; no worker threads exist yet here.
        // The bound covers both halves of the batched discharge pipeline:
        // parallel obligation generation and the work-stealing group
        // discharge both size their worker count from the rayon pool, so
        // `--jobs 1` runs fully sequentially with byte-identical output.
        std::env::set_var("RAYON_NUM_THREADS", jobs.to_string());
    }

    let passes: Vec<VerifiedPass> = verified_passes();
    if let Some(unknown) =
        options.pass_filter.iter().find(|name| passes.iter().all(|p| p.name != name.as_str()))
    {
        return Err(unknown_pass_error(unknown));
    }
    let passes: Vec<VerifiedPass> = passes
        .into_iter()
        .filter(|p| {
            options.pass_filter.is_empty() || options.pass_filter.iter().any(|f| f == p.name)
        })
        .collect();

    let mut cache = match &options.cache_path {
        Some(path) => {
            let (cache, warning) = VerdictCache::load_lenient(path);
            if let Some(warning) = warning {
                eprintln!("warning: {warning}");
            }
            cache
        }
        None => VerdictCache::new(),
    };

    let reports = verify_passes_cached_with(&passes, &mut cache, options.backend);

    // The report comes first, and a failure to persist the cache is a
    // warning, not a failed verification: the verdicts are already in hand,
    // and exit code 1 must keep meaning "a pass did not verify" (a later
    // warm run gated on --min-cache-hits will still surface the cold cache).
    out!("{}", render_reports(&reports, &options.format, options.deterministic, options.backend));
    if let Some(path) = &options.cache_path {
        match cache.save(path) {
            Ok(()) => {
                eprintln!(
                    "cache {}: {} obligation hits, {} misses across {} passes \
                     ({} entries stored, backend {})",
                    path.display(),
                    cache.hits(),
                    cache.misses(),
                    cache.pass_stats().len(),
                    cache.len(),
                    options.backend
                );
                // Per-pass stats: name the passes that did real solver work;
                // fully warm passes are only summarized.
                for stats in cache.pass_stats().iter().filter(|s| s.misses > 0) {
                    eprintln!(
                        "cache {}: {}: {} hits, {} misses (re-discharged)",
                        path.display(),
                        stats.pass,
                        stats.hits,
                        stats.misses
                    );
                }
            }
            Err(error) => {
                eprintln!("warning: could not save cache {}: {error}", path.display())
            }
        }
    }

    let verified = reports.iter().filter(|r| r.verified).count();
    if let Some(first) = reports.iter().find(|r| !r.verified) {
        return Err(CmdError::Failed(format!(
            "{} of {} passes failed verification; first: {} — {}",
            reports.len() - verified,
            reports.len(),
            first.name,
            first.failure.as_deref().unwrap_or("no counterexample recorded")
        )));
    }
    if let Some(expected) = options.expect_passes {
        if reports.len() != expected {
            return Err(CmdError::Failed(format!(
                "pass-count drift: expected {expected} verified passes, got {}",
                reports.len()
            )));
        }
    }
    if let Some(floor) = options.min_cache_hits {
        if cache.hits() < floor {
            return Err(CmdError::Failed(format!(
                "cache hits below floor: {} < {floor} obligations (cache invalidation bug, or \
                 a cold cache where a warm one was expected)",
                cache.hits()
            )));
        }
    }
    Ok(())
}

/// Renders verification reports in the requested format.  `giallar verify`
/// and `giallar client verify` both call this, which is what makes a served
/// run's output byte-identical to a local one at equal verdicts.
pub(crate) fn render_reports(
    reports: &[PassReport],
    format: &Format,
    deterministic: bool,
    backend: BackendSelection,
) -> String {
    let verified = reports.iter().filter(|r| r.verified).count();
    match format {
        Format::Table => {
            let mut out = if deterministic {
                // No machine-dependent columns: two runs with equal verdicts
                // must render byte-identically.
                let mut out = format!(
                    "{:<32} {:>8} {:>10}  {}\n",
                    "Pass name", "Pass LOC", "#subgoals", "verified"
                );
                for report in reports {
                    out.push_str(&format!(
                        "{:<32} {:>8} {:>10}  {}\n",
                        report.name,
                        report.pass_loc,
                        report.subgoals,
                        if report.verified { "yes" } else { "NO" }
                    ));
                }
                out
            } else {
                render_table2(reports)
            };
            out.push_str(&format!(
                "\nverified {verified} / {} passes (backend {}, rule library {})\n",
                reports.len(),
                backend,
                qc_symbolic::rule_library_fingerprint()
            ));
            out
        }
        Format::Markdown => {
            let mut out = String::new();
            if deterministic {
                out.push_str("| Pass | LOC | Subgoals | Verified |\n");
                out.push_str("|---|---:|---:|---|\n");
            } else {
                out.push_str("| Pass | LOC | Subgoals | Time (s) | Verified |\n");
                out.push_str("|---|---:|---:|---:|---|\n");
            }
            for report in reports {
                let verdict = if report.verified {
                    "yes".to_string()
                } else {
                    format!("**NO** — {}", report.failure.as_deref().unwrap_or(""))
                };
                if deterministic {
                    out.push_str(&format!(
                        "| {} | {} | {} | {} |\n",
                        report.name, report.pass_loc, report.subgoals, verdict
                    ));
                } else {
                    out.push_str(&format!(
                        "| {} | {} | {} | {:.9} | {} |\n",
                        report.name, report.pass_loc, report.subgoals, report.time_seconds, verdict
                    ));
                }
            }
            out.push_str(&format!("\nverified {verified} / {} passes\n", reports.len()));
            out
        }
        Format::Json => Value::object(vec![
            ("schema", Value::String("giallar-verify/v2".to_string())),
            ("backend", Value::String(backend.id().to_string())),
            (
                "rule_library_fingerprint",
                Value::String(qc_symbolic::rule_library_fingerprint().to_hex()),
            ),
            ("passes", Value::Int(reports.len() as i64)),
            ("verified", Value::Int(verified as i64)),
            ("all_verified", Value::Bool(verified == reports.len())),
            (
                "reports",
                Value::Array(reports.iter().map(|r| r.to_json_value(!deterministic)).collect()),
            ),
        ])
        .to_pretty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_misses_rank_close_names_first() {
        let known = ["CXCancellation", "CheckMap", "CheckCXDirection", "LookaheadSwap"];
        let near = near_miss_passes("CXCancelation", &known);
        assert_eq!(near.first(), Some(&"CXCancellation"));
        // Case-insensitive exact match wins outright.
        assert_eq!(near_miss_passes("checkmap", &known).first(), Some(&"CheckMap"));
        // Substrings are near misses.
        assert!(near_miss_passes("Lookahead", &known).contains(&"LookaheadSwap"));
        // Garbage matches nothing.
        assert!(near_miss_passes("zzzzzzzz", &known).is_empty());
    }

    #[test]
    fn edit_distance_is_symmetric_and_small_for_typos() {
        assert_eq!(edit_distance("CheckMap", "CheckMap"), 0);
        assert_eq!(edit_distance("CheckMap", "ChekMap"), 1);
        assert_eq!(edit_distance("ChekMap", "CheckMap"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
    }
}
