//! Self-test of the benchmark at a tiny scale: every workload runs in both
//! modes, every metric is emitted with its unit, `BENCHMARK.json` names the
//! same metrics and workloads, and a corrupted SAIF counts as a failure.

use std::path::PathBuf;

use gatspi_core::SimConfig;
use gatspi_perfbench::check::Checker;
use gatspi_perfbench::layers;
use gatspi_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use gatspi_perfbench::trace::Tracer;
use gatspi_perfbench::workload::{generate_inputs, Scale, Workload};
use gatspi_perfbench::{run, RunConfig};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test output directory");
    dir
}

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
        out_dir: out_dir(&format!("selftest-{}-{trace}", workload.name())),
    }
}

fn check_mode(trace: bool, expected: &[(&str, &str)]) {
    for w in Workload::ALL {
        let outcome = run(&tiny(w, trace)).expect("tiny run succeeds");
        assert_eq!(outcome.failed, 0, "{}: outputs must match refsim", w.name());
        assert!(outcome.attempted >= 1);
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}: metric set", w.name());
        assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()));
        let line = result_line(outcome.attempted, outcome.failed, &outcome.metrics);
        for (name, unit) in expected {
            let field = format!("\"{name}\": {{\"value\": ");
            assert!(line.contains(&field), "{}: {name} missing", w.name());
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert_eq!(outcome.trace_file.is_some(), trace);
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    check_mode(false, END_TO_END);
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    check_mode(true, PER_LAYER);
}

#[test]
fn benchmark_json_names_the_same_metrics_and_workloads() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(BENCHMARK_JSON.contains(&entry), "{name} missing");
    }
    let units = BENCHMARK_JSON.matches("\"unit\":").count();
    assert_eq!(units, END_TO_END.len() + PER_LAYER.len());
    for w in Workload::ALL {
        let listed = BENCHMARK_JSON.contains(&format!("{{\"name\": \"{}\"", w.name()));
        assert_eq!(listed, Workload::BENCHMARKED.contains(&w), "{}", w.name());
    }
}

#[test]
fn corrupted_saif_counts_as_a_failure() {
    let dir = out_dir("selftest-corrupt");
    let inputs = generate_inputs(Workload::ScanHighActivity, Scale::Tiny, 3, &dir)
        .expect("write tiny inputs");
    let off = Tracer::new(false);
    let reference = layers::reference(
        &inputs.netlist,
        &inputs.sdf,
        &inputs.stimuli,
        inputs.duration,
        "refsim.run",
        &off,
    )
    .expect("reference run");
    let cfg = SimConfig::small().with_window_align(inputs.cycle_time);
    let s = layers::setup(&inputs.files, &cfg, &off).expect("set-up");
    let text = s
        .session
        .run(&s.stimuli, inputs.duration)
        .expect("run")
        .saif
        .write();

    let mut checker = Checker::default();
    checker.saif_text("good", &text, &reference);
    assert_eq!(checker.failed(), 0);

    // Bump the first toggle count by one.
    let at = text.find("(TC ").expect("SAIF has toggle counts") + 4;
    let end = at + text[at..].find(')').expect("closed TC");
    let tc: u64 = text[at..end].trim().parse().expect("numeric TC");
    let corrupted = format!("{}{}{}", &text[..at], tc + 1, &text[end..]);
    checker.saif_text("corrupted", &corrupted, &reference);
    checker.saif_text("truncated", &text[..text.len() / 2], &reference);
    assert_eq!((checker.attempted(), checker.failed()), (3, 2));
    assert!((checker.error_rate() - 2.0 / 3.0).abs() < 1e-12);
}
