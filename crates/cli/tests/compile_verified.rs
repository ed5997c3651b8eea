//! `giallar compile --verified --certify`: the schedule is verified once
//! per process and shared with the certificate, and the reported pass and
//! subgoal counts equal a fresh verification of every scheduled pass.

use std::process::Command;

use giallar_core::backend::BackendSelection;
use giallar_core::cache::VerdictCache;
use giallar_core::json::{self, Value};
use giallar_core::registry::verified_passes;
use giallar_core::verifier::verify_passes_cached_with;
use giallar_core::wrapper::giallar_pipeline_pass_names;
use qc_ir::CouplingMap;

#[test]
fn verified_compile_reports_fresh_pass_and_subgoal_counts() {
    let device = CouplingMap::from_spec("falcon27").unwrap();
    let pipeline = giallar_pipeline_pass_names(&device, 7);
    let passes: Vec<_> =
        verified_passes().into_iter().filter(|p| pipeline.contains(&p.name)).collect();
    for selection in BackendSelection::ALL {
        let reports = verify_passes_cached_with(&passes, &mut VerdictCache::new(), selection);
        let fresh: Vec<_> =
            pipeline.iter().map(|name| reports.iter().find(|r| r.name == *name).unwrap()).collect();
        let cert = std::env::temp_dir()
            .join(format!("giallar-compile-verified-{}-{selection}.json", std::process::id()));
        let output = Command::new(env!("CARGO_BIN_EXE_giallar"))
            .args(["compile", "qft_16", "--verified", "--format", "json", "--backend"])
            .arg(selection.id())
            .arg("--certify")
            .arg(&cert)
            .output()
            .unwrap();
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let report = json::parse(&String::from_utf8(output.stdout).unwrap()).unwrap();
        let verified = report.get("verified").unwrap();
        let count = |key: &str| verified.get(key).and_then(Value::as_int).unwrap() as usize;
        assert_eq!(count("pipeline_passes"), fresh.len());
        assert_eq!(count("subgoals"), fresh.iter().map(|r| r.subgoals).sum::<usize>());
        assert_eq!(report.get("certificate").unwrap().get("proved"), Some(&Value::Bool(true)));
        std::fs::remove_file(&cert).ok();
    }
}
