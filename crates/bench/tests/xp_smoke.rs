//! End-to-end smoke tests for the scenario registry, the `xp` driver
//! binary, and the run-manifest contract.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use plurality_bench::{registry, ExpOpts};

fn temp_out(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xp-smoke-{tag}-{}", std::process::id()))
}

#[test]
fn tiny_scenario_end_to_end_csv_and_manifest() {
    let out = temp_out("e2e");
    let opts = ExpOpts {
        trials: 2,
        out_dir: out.clone(),
        ..ExpOpts::default()
    };
    let scenario = registry::find("x17").expect("x17 registered");
    let manifest = registry::run_quiet(scenario, &opts).expect("x17 runs");

    let csv = fs::read_to_string(opts.csv_path("x17_adversarial_init")).expect("csv written");
    assert!(
        csv.starts_with("workload,n,k,bias,engine,ok,median,mean,ci95\n"),
        "unexpected CSV header: {}",
        csv.lines().next().unwrap_or("")
    );
    assert_eq!(csv.lines().count(), 5, "header + 4 workload rows:\n{csv}");

    let json = fs::read_to_string(&manifest).expect("manifest written");
    for field in [
        "\"scenario\": \"x17\"",
        "\"seed\":",
        "\"trials\": 2",
        "\"full\": false",
        "\"engine\": \"batch\"",
        "\"faults\": []",
        "\"scheduler\": null",
        "\"git_rev\":",
        "\"wall_s\":",
        "\"csv\": \"x17_adversarial_init.csv\"",
        "\"columns\": [\"workload\", \"n\", \"k\", \"bias\", \"engine\", \"ok\", \"median\", \"mean\", \"ci95\"]",
        "\"rows\": 4",
    ] {
        assert!(json.contains(field), "manifest missing {field}:\n{json}");
    }
    fs::remove_dir_all(&out).ok();
}

#[test]
fn same_seed_reproduces_identical_rows() {
    // The registry promise behind the xp ↔ legacy-shim parity criterion:
    // one scenario implementation, deterministic given (seed, trials).
    let scenario = registry::find("x17").expect("registered");
    let mut csvs = Vec::new();
    for tag in ["rep-a", "rep-b"] {
        let out = temp_out(tag);
        let opts = ExpOpts {
            trials: 2,
            out_dir: out.clone(),
            ..ExpOpts::default()
        };
        registry::run_quiet(scenario, &opts).expect("runs");
        csvs.push(fs::read_to_string(opts.csv_path("x17_adversarial_init")).expect("csv"));
        fs::remove_dir_all(&out).ok();
    }
    assert_eq!(csvs[0], csvs[1], "same seed must give identical CSV rows");
}

#[test]
fn fault_scenario_end_to_end_with_recovery_columns() {
    let out = temp_out("x18");
    let opts = ExpOpts {
        trials: 2,
        out_dir: out.clone(),
        ..ExpOpts::default()
    };
    let scenario = registry::find("x18").expect("x18 registered");
    registry::run_quiet(scenario, &opts).expect("x18 runs");

    let csv = fs::read_to_string(opts.csv_path("x18_fault_recovery")).expect("csv written");
    assert!(
        csv.starts_with("frac,protocol,n,engine,ok,median,recovery,survived\n"),
        "unexpected CSV header: {}",
        csv.lines().next().unwrap_or("")
    );
    // 4 corruption fractions × 3 arms.
    assert_eq!(csv.lines().count(), 13, "header + 12 rows:\n{csv}");
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let recovery: f64 = fields[6].parse().expect("recovery parses as a number");
        assert!(
            recovery.is_finite() && recovery > 0.0,
            "expected nonzero recovery time in row: {line}"
        );
        assert_eq!(fields[7], "2/2", "winner must survive in row: {line}");
    }
    fs::remove_dir_all(&out).ok();
}

#[test]
fn fault_scenario_is_byte_identical_across_reruns() {
    // Determinism satellite: same seed + same fault plan ⇒ byte-identical
    // CSV, fault epochs and recovery bookkeeping included.
    let scenario = registry::find("x18").expect("registered");
    let mut csvs = Vec::new();
    for tag in ["x18-rep-a", "x18-rep-b"] {
        let out = temp_out(tag);
        let opts = ExpOpts {
            trials: 2,
            out_dir: out.clone(),
            ..ExpOpts::default()
        };
        registry::run_quiet(scenario, &opts).expect("runs");
        csvs.push(fs::read_to_string(opts.csv_path("x18_fault_recovery")).expect("csv"));
        fs::remove_dir_all(&out).ok();
    }
    assert_eq!(
        csvs[0], csvs[1],
        "same seed + same fault plan must give identical CSV bytes"
    );
}

#[test]
fn cli_fault_flags_override_scenario_and_land_in_manifest() {
    use pp_engine::FaultSpec;
    let out = temp_out("cli-faults");
    let opts = ExpOpts {
        trials: 2,
        out_dir: out.clone(),
        faults: FaultSpec::parse_list("corrupt@60:0.25").expect("valid"),
        scheduler: Some("pairbias:0.1".parse().expect("valid")),
        ..ExpOpts::default()
    };
    let scenario = registry::find("x18").expect("registered");
    let manifest = registry::run_quiet(scenario, &opts).expect("runs");
    let json = fs::read_to_string(&manifest).expect("manifest written");
    for field in [
        "\"faults\": [\"corrupt@60:0.25\"]",
        "\"scheduler\": \"pairbias:0.1\"",
    ] {
        assert!(json.contains(field), "manifest missing {field}:\n{json}");
    }
    fs::remove_dir_all(&out).ok();
}

#[test]
fn xp_binary_list_names_every_registered_scenario() {
    let output = Command::new(env!("CARGO_BIN_EXE_xp"))
        .arg("list")
        .output()
        .expect("xp runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let registered: Vec<&str> = registry::scenarios().iter().map(|s| s.name).collect();
    assert_eq!(listed, registered, "xp list:\n{stdout}");
}

#[test]
fn malformed_flags_exit_2_without_panicking() {
    for args in [
        &["run", "x17", "--trials", "abc"][..],
        &["run", "x17", "--bogus"],
        &["--engine", "warp", "run", "x17"],
        &["frobnicate"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_xp"))
            .args(args)
            .output()
            .expect("xp runs");
        assert_eq!(output.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf8");
        assert!(stderr.contains("error:"), "args {args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "args {args:?} panicked: {stderr}"
        );
    }
}

#[test]
fn help_exits_0_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_xp"))
        .arg("--help")
        .output()
        .expect("xp runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.contains("USAGE"), "{stdout}");
    assert!(stdout.contains("--engine"), "{stdout}");
}

#[test]
fn repeated_corruption_scenario_emits_fit_table() {
    let out = temp_out("x20");
    let opts = ExpOpts {
        trials: 2,
        out_dir: out.clone(),
        ..ExpOpts::default()
    };
    let scenario = registry::find("x20").expect("x20 registered");
    registry::run_quiet(scenario, &opts).expect("x20 runs");

    let csv = fs::read_to_string(opts.csv_path("x20_repeated_corruption")).expect("csv written");
    assert!(
        csv.starts_with("protocol,n,engine,ok,median,recovery,survived\n"),
        "unexpected CSV header: {}",
        csv.lines().next().unwrap_or("")
    );
    // 3 population sizes × 2 arms.
    assert_eq!(csv.lines().count(), 7, "header + 6 rows:\n{csv}");

    let fit = fs::read_to_string(opts.csv_path("x20_fit")).expect("fit csv written");
    assert!(
        fit.starts_with("protocol,a,b,r2,points\n"),
        "unexpected fit header: {}",
        fit.lines().next().unwrap_or("")
    );
    assert_eq!(
        fit.lines().count(),
        3,
        "header + one fit row per arm:\n{fit}"
    );
    for line in fit.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let slope: f64 = fields[1].parse().expect("slope parses");
        let r2: f64 = fields[3].parse().expect("r2 parses");
        assert!(slope > 0.0, "recovery must grow with ln n: {line}");
        assert!(r2 > 0.5, "ln n must explain the growth: {line}");
    }
    fs::remove_dir_all(&out).ok();
}

#[test]
fn churn_soak_resumes_byte_identically_from_a_checkpoint() {
    // The crash-safety acceptance criterion, end to end through the xp
    // driver: an uninterrupted checkpointing soak and a second soak
    // resumed from one of its mid-run snapshots must emit byte-identical
    // series and summary CSVs.
    let scenario = registry::find("x22").expect("x22 registered");

    let out_full = temp_out("x22-full");
    let opts_full = ExpOpts {
        trials: 2,
        checkpoint_every: Some(80.0),
        out_dir: out_full.clone(),
        ..ExpOpts::default()
    };
    registry::run_quiet(scenario, &opts_full).expect("uninterrupted soak runs");
    let ckpt = opts_full.out_dir.join("x22_t80.ckpt");
    assert!(ckpt.exists(), "checkpoint written at the first boundary");

    let out_resumed = temp_out("x22-resumed");
    let opts_resumed = ExpOpts {
        trials: 2,
        checkpoint_every: Some(80.0),
        resume: Some(ckpt),
        out_dir: out_resumed.clone(),
        ..ExpOpts::default()
    };
    let manifest = registry::run_quiet(scenario, &opts_resumed).expect("resumed soak runs");

    for csv in ["x22_churn_series", "x22_churn_summary"] {
        let a = fs::read_to_string(opts_full.csv_path(csv)).expect("full csv");
        let b = fs::read_to_string(opts_resumed.csv_path(csv)).expect("resumed csv");
        assert_eq!(a, b, "{csv}.csv must be byte-identical after resume");
    }
    // The manifest records how the run was produced.
    let json = fs::read_to_string(&manifest).expect("manifest written");
    for field in ["\"checkpoint_every\": 80", "\"resume\": "] {
        assert!(json.contains(field), "manifest missing {field}:\n{json}");
    }

    fs::remove_dir_all(&out_full).ok();
    fs::remove_dir_all(&out_resumed).ok();
}

#[test]
fn trial_threading_never_changes_csv_bytes() {
    // `--threads` only sets how many trials run at once; each trial is a
    // pure function of its seed, so the CSVs must not move with it.
    let mut csvs = Vec::new();
    for threads in ["1", "4"] {
        let out = temp_out(&format!("x21-t{threads}"));
        let output = Command::new(env!("CARGO_BIN_EXE_xp"))
            .args(["run", "x21", "--trials", "2", "--threads", threads, "--out"])
            .arg(&out)
            .output()
            .expect("xp runs");
        assert!(output.status.success(), "xp run x21 --threads {threads}");
        csvs.push(
            fs::read_to_string(out.join("x21_byzantine_tolerance.csv")).expect("csv written"),
        );
        fs::remove_dir_all(&out).ok();
    }
    assert_eq!(csvs[0], csvs[1], "x21 CSV differs between 1 and 4 threads");
}
