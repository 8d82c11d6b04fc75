//! `np-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric as `name value unit`, then the notes, then, as the
//! last line, the one-line JSON result. Exits 2 on a usage error and 1 if
//! the workload cannot be set up; neither prints a result.

use np_perfbench::{run, Config, Workload};

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "np-perfbench: {msg}\nusage: np-perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn bad_value(flag: &str, value: &str) -> ! {
    usage(&format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Config {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).unwrap_or_else(|| bad_value(&flag, &value)))
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad_value(&flag, &value)),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| bad_value(&flag, &value))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad_value(&flag, &value),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Config::new(workload, seed, seconds, trace)
}

fn main() {
    let cfg = parse_args();
    let report = run(&cfg).unwrap_or_else(|e| {
        eprintln!("np-perfbench: {} set-up failed: {e}", cfg.workload.name());
        std::process::exit(1);
    });
    println!(
        "np-perfbench {} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for m in &report.metrics {
        println!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &report.notes {
        println!("  # {n}");
    }
    println!(
        "  # {} ops attempted, {} failed, correct={}",
        report.attempted,
        report.failed,
        report.correct()
    );
    println!("{}", report.to_json());
}
