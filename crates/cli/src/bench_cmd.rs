//! `giallar bench` — regenerate or drift-check the committed benchmark
//! artifacts.
//!
//! Emits `BENCH_table2_verification.json`,
//! `BENCH_figure11_compilation.json`, `BENCH_solver_microbench.json`,
//! `BENCH_serve_latency.json`, `BENCH_certify_overhead.json`, and
//! `BENCH_bug_detection.json` through the `bench` crate's writers (the
//! `fuzz` subcommand shares the bug-detection one).  Output is
//! deterministic by default; with `--timings` every timed row is measured
//! by the one sampler (`bench::sample`: a warm-up, then `bench::SAMPLES`
//! runs summarised as median, p10, and p90) and written inside `timing`
//! sections.
//!
//! With `--check <dir>` nothing is written: the artifacts are regenerated in
//! memory and compared structurally against the files in `<dir>`, ignoring
//! timing fields (`bench::strip_timing`), so committed artifacts may carry
//! timing evidence while any change to verdicts, subgoal counts,
//! fingerprints, or workload checksums fails the check.

use std::path::{Path, PathBuf};

use bench::{
    bug_detection_artifact_json, bug_detection_campaign, certify_artifact_json, certify_rows,
    figure11_artifact_json, figure11_rows, serve_latency_artifact_json, serve_latency_rows,
    solver_microbench_artifact_json, solver_microbench_rows, strip_timing, table2_reports,
    verification_timing, CAMPAIGN_SEED, SAMPLES,
};
use giallar_core::json;
use giallar_core::mutate::parse_seed;
use qc_ir::CouplingMap;

use crate::{value_of, CmdError, CmdResult};

/// Runs `giallar bench`.
pub fn run(args: &[String]) -> CmdResult {
    let mut out_dir = PathBuf::from(".");
    let mut seed = 7u64;
    let mut timings = false;
    let mut check_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_dir = PathBuf::from(value_of(args, &mut i, "--out")?),
            "--seed" => {
                seed = value_of(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| CmdError::Usage("--seed: invalid seed".to_string()))?
            }
            "--timings" => timings = true,
            "--check" => check_dir = Some(PathBuf::from(value_of(args, &mut i, "--check")?)),
            other => return Err(CmdError::Usage(format!("bench: unknown option `{other}`"))),
        }
        i += 1;
    }

    // Regenerate every artifact (deterministic unless --timings; without
    // it one sampled run per measurement is enough for the structure).
    let samples = if timings { SAMPLES } else { 1 };
    let reports = table2_reports();
    let verified = reports.iter().filter(|r| r.verified).count();
    let verification = timings.then(|| verification_timing(SAMPLES));
    let table2 = bench::table2_artifact_json(&reports, verification.as_ref());

    let device = CouplingMap::falcon27();
    let rows = figure11_rows(&device, seed, samples);
    let figure11 = figure11_artifact_json("falcon27", seed, &rows, timings);

    let micro_rows = solver_microbench_rows(samples);
    let microbench = solver_microbench_artifact_json(&micro_rows, timings);

    let serve_rows = serve_latency_rows();
    let serve_latency = serve_latency_artifact_json(&serve_rows);

    let certify = certify_rows(&device, "falcon27", seed, samples);
    let certify_overhead = certify_artifact_json("falcon27", seed, &certify, timings);

    let campaign = bug_detection_campaign(
        parse_seed(CAMPAIGN_SEED),
        None,
        Some(&bench::pinned_generative_config(parse_seed(CAMPAIGN_SEED))),
    );
    let bug_detection = bug_detection_artifact_json(&campaign, timings);

    let artifacts: [(&str, &str); 6] = [
        ("BENCH_table2_verification.json", table2.as_str()),
        ("BENCH_figure11_compilation.json", figure11.as_str()),
        ("BENCH_solver_microbench.json", microbench.as_str()),
        ("BENCH_serve_latency.json", serve_latency.as_str()),
        ("BENCH_certify_overhead.json", certify_overhead.as_str()),
        ("BENCH_bug_detection.json", bug_detection.as_str()),
    ];

    if let Some(dir) = check_dir {
        return check_artifacts(&dir, &artifacts);
    }

    std::fs::create_dir_all(&out_dir).map_err(|error| {
        CmdError::Failed(format!("creating output dir {}: {error}", out_dir.display()))
    })?;
    for (name, content) in &artifacts {
        let path = out_dir.join(name);
        std::fs::write(&path, content)
            .map_err(|error| CmdError::Failed(format!("writing {}: {error}", path.display())))?;
        println!("wrote {}", path.display());
    }
    let generative = campaign.generative.as_ref().expect("bench always runs generative");
    println!(
        "table2: {} passes, {verified} verified; figure11: {} circuits; microbench: {} \
         workloads; serve: {} scenarios; certify: {} certificates; fuzz: {}/{} mutants \
         detected; generative: {}/{} semantic faults refused over {} circuits",
        reports.len(),
        rows.len(),
        micro_rows.len(),
        serve_rows.len(),
        certify.len(),
        campaign.report.detected(),
        campaign.report.total(),
        generative.refused(),
        generative.semantic(),
        generative.generated,
    );

    if verified != reports.len() {
        return Err(CmdError::Failed(format!(
            "artifacts written, but only {verified} of {} passes verified",
            reports.len()
        )));
    }
    Ok(())
}

/// Compares regenerated artifacts against the committed files in `dir`,
/// ignoring machine-dependent timing fields on both sides.
fn check_artifacts(dir: &Path, artifacts: &[(&str, &str)]) -> CmdResult {
    let mut drifted = Vec::new();
    for (name, regenerated) in artifacts {
        let path = dir.join(name);
        let committed = std::fs::read_to_string(&path)
            .map_err(|error| CmdError::Failed(format!("reading {}: {error}", path.display())))?;
        let committed = json::parse(&committed)
            .map_err(|error| CmdError::Failed(format!("parsing {}: {error}", path.display())))?;
        let regenerated = json::parse(regenerated)
            .map_err(|error| CmdError::Failed(format!("parsing regenerated {name}: {error}")))?;
        if strip_timing(&committed) == strip_timing(&regenerated) {
            println!("check {name}: ok");
        } else {
            println!("check {name}: STRUCTURAL DRIFT");
            drifted.push(*name);
        }
    }
    if drifted.is_empty() {
        Ok(())
    } else {
        Err(CmdError::Failed(format!(
            "benchmark artifacts drifted from the committed files: {} — \
             regenerate with `giallar bench --timings --out .` and commit",
            drifted.join(", ")
        )))
    }
}
