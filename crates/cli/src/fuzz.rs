//! `giallar fuzz` — the fault-injection campaign.
//!
//! Enumerates mutants of the registry's proof obligations, discharges each
//! through every solver-backend routing, and exits nonzero if any wound
//! survives.
//!
//! With `--generate` the campaign sabotages compilations instead: a seeded
//! random-circuit corpus is compiled honestly, each compilation is wounded
//! with a randomly drawn sabotage matrix, and every semantic fault must be
//! refused by `check-cert` under both backends; surviving
//! counterexamples are delta-debugged to minimal wounding edits before they
//! are reported.

use bench::{
    bug_detection_artifact_json, bug_detection_text, BugDetection, CAMPAIGN_SEED,
    GENERATIVE_CIRCUITS,
};
use giallar_core::gen::{run_generative_campaign, GateAlphabet, GenConfig};
use giallar_core::mutate::{parse_seed, run_campaign, CampaignConfig};

use crate::{parse_count, value_of, CmdError, CmdResult};

/// The environment knob widening (or shrinking) the default `--generate`
/// corpus — nightly CI sets it to run a larger corpus without touching the
/// pinned artifact configuration.
pub const CIRCUITS_ENV: &str = "GIALLAR_FUZZ_CIRCUITS";

/// The default generative corpus size: [`CIRCUITS_ENV`] when set, the
/// pinned [`GENERATIVE_CIRCUITS`] otherwise.
fn default_circuits() -> Result<usize, CmdError> {
    match std::env::var(CIRCUITS_ENV) {
        Ok(value) => value.parse::<usize>().map_err(|_| {
            CmdError::Failed(format!("fuzz: {CIRCUITS_ENV}: invalid circuit count `{value}`"))
        }),
        Err(_) => Ok(GENERATIVE_CIRCUITS),
    }
}

/// Maps a generator rejection message to the CLI flag that caused it (the
/// [`GenConfig::validate`] messages name the offending parameter).
fn flag_for(message: &str) -> &'static str {
    if message.contains("circuits") {
        "--circuits"
    } else if message.contains("width") {
        "--width"
    } else if message.contains("depth") {
        "--depth"
    } else {
        "--generate"
    }
}

/// Runs `giallar fuzz` with the args after the subcommand name.
pub fn run(args: &[String]) -> CmdResult {
    let mut seed_text = CAMPAIGN_SEED.to_string();
    let mut max_mutants = None;
    let mut pass_filter: Option<String> = None;
    let mut format = "table".to_string();
    let mut timings = false;
    let mut generate = false;
    let mut circuits: Option<usize> = None;
    let mut width: Option<usize> = None;
    let mut depth: Option<usize> = None;
    let mut alphabet_text: Option<String> = None;

    let mut index = 0;
    while index < args.len() {
        match args[index].as_str() {
            "--seed" => seed_text = value_of(args, &mut index, "--seed")?,
            "--mutants" => {
                let value = value_of(args, &mut index, "--mutants")?;
                max_mutants = Some(parse_count(&value, "--mutants")?);
            }
            "--pass" => pass_filter = Some(value_of(args, &mut index, "--pass")?),
            "--format" => format = value_of(args, &mut index, "--format")?,
            "--timings" => timings = true,
            "--generate" => generate = true,
            "--circuits" => {
                let value = value_of(args, &mut index, "--circuits")?;
                circuits = Some(parse_count(&value, "--circuits")?);
            }
            "--width" => {
                let value = value_of(args, &mut index, "--width")?;
                width = Some(parse_count(&value, "--width")?);
            }
            "--depth" => {
                let value = value_of(args, &mut index, "--depth")?;
                depth = Some(parse_count(&value, "--depth")?);
            }
            "--alphabet" => alphabet_text = Some(value_of(args, &mut index, "--alphabet")?),
            other => return Err(CmdError::Usage(format!("fuzz: unknown flag `{other}`"))),
        }
        index += 1;
    }
    if format != "table" && format != "json" {
        return Err(CmdError::Usage(format!("fuzz: unknown format `{format}`")));
    }

    let seed = parse_seed(&seed_text);
    if generate {
        if max_mutants.is_some() || pass_filter.is_some() {
            return Err(CmdError::Usage(
                "fuzz: --mutants/--pass apply to the registry campaign, not --generate".to_string(),
            ));
        }
        return run_generate(
            seed,
            &seed_text,
            circuits,
            width,
            depth,
            alphabet_text,
            &format,
            timings,
        );
    }
    for (flag, present) in [
        ("--circuits", circuits.is_some()),
        ("--width", width.is_some()),
        ("--depth", depth.is_some()),
        ("--alphabet", alphabet_text.is_some()),
    ] {
        if present {
            return Err(CmdError::Usage(format!("fuzz: {flag} requires --generate")));
        }
    }

    if let Some(filter) = &pass_filter {
        if !giallar_core::registry::verified_passes().iter().any(|p| p.name == *filter) {
            return Err(CmdError::Usage(format!("fuzz: unknown pass `{filter}`")));
        }
    }

    let report =
        run_campaign(&CampaignConfig { seed, max_mutants, pass_filter: pass_filter.clone() });
    let result = BugDetection { report, generative: None };

    match format.as_str() {
        "json" => outln!("{}", bug_detection_artifact_json(&result, timings)),
        _ => out!("{}", bug_detection_text(&result)),
    }

    let survivors = result.survivors();
    if survivors > 0 {
        return Err(CmdError::Failed(format!(
            "{survivors} mutant(s) survived the campaign (seed {seed_text})"
        )));
    }
    if result.report.total() == 0 {
        return Err(CmdError::Failed("campaign enumerated no mutants".to_string()));
    }
    Ok(())
}

/// Runs the generative leg (`giallar fuzz --generate`).
#[allow(clippy::too_many_arguments)]
fn run_generate(
    seed: u64,
    seed_text: &str,
    circuits: Option<usize>,
    width: Option<usize>,
    depth: Option<usize>,
    alphabet_text: Option<String>,
    format: &str,
    timings: bool,
) -> CmdResult {
    let alphabet = match alphabet_text.as_deref() {
        None | Some("all") => None,
        Some(name) => Some(GateAlphabet::parse(name).ok_or_else(|| {
            CmdError::Failed(format!(
                "fuzz: --alphabet: unknown preset `{name}` (expected basis, clifford+t, full, \
                 or all)"
            ))
        })?),
    };
    let circuits = match circuits {
        Some(n) => n,
        None => default_circuits()?,
    };
    let pinned = GenConfig::pinned(seed, circuits);
    let config = GenConfig {
        seed,
        circuits,
        max_width: width.unwrap_or(pinned.max_width),
        max_depth: depth.unwrap_or(pinned.max_depth),
        alphabet,
    };
    let report = run_generative_campaign(
        &config,
        bench::bug_detection::PIPELINE_DEVICE,
        bench::bug_detection::PIPELINE_SEED,
    )
    .map_err(|message| CmdError::Failed(format!("fuzz: {}: {message}", flag_for(&message))))?;

    match format {
        "json" => outln!("{}", report.to_json(timings).to_pretty()),
        _ => out!("{}", report.text(timings)),
    }

    let compiled = report.generated - report.skipped_uncompiled;
    if report.honest_accepted != compiled {
        return Err(CmdError::Failed(format!(
            "{} honest certificate(s) refused (seed {seed_text})",
            compiled - report.honest_accepted
        )));
    }
    let survivors = report.survivors().len();
    if survivors > 0 {
        return Err(CmdError::Failed(format!(
            "{survivors} generative counterexample(s) survived, shrunk above (seed {seed_text})"
        )));
    }
    Ok(())
}
