//! End-to-end, layer-attributed benchmark of the confidence stack:
//! query → storage scan → join/lineage → intern → compile or sample →
//! schedule.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <tpch-tractable|tpch-hard|stream-ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one client in a closed loop, run in its own process.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics, measured from spans and counters around the
//! benchmark's own calls into each module's public functions, and writes
//! the spans to `e2ebench/out/`. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod procfs;
mod report;
mod rng;
mod spans;
mod stream;
mod tpch;

use std::fs;
use std::path::PathBuf;

use report::Report;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <tpch-tractable|tpch-hard|stream-ingest> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The run's private directory under `e2ebench/out/`, removed on exit.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create the run directory");
        Scratch { root }
    }

    /// A fresh, empty directory `name` inside the run directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create a store directory");
        dir
    }

    pub fn remove(&self, name: &str) {
        let _ = fs::remove_dir_all(self.root.join(name));
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Writes a traced run's spans as JSON lines under `e2ebench/out/`.
pub fn write_spans(args: &Args, tracer: &spans::Tracer, report: &mut Report) {
    let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match fs::create_dir_all(out_dir()).and_then(|()| fs::write(&path, tracer.to_json_lines())) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Steps of [`host_probe`].
const HOST_PROBE_STEPS: u64 = 1 << 22;

/// Seconds a fixed loop of pure integer work takes (median of five). It
/// touches none of the program's code, so when it differs between two runs
/// the machine itself ran at another speed. It understates the change: on
/// a shared machine, memory-heavy code like the program's slows down far
/// more than this loop does.
fn host_probe() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            let x =
                (0..HOST_PROBE_STEPS).fold(0u64, |x, i| pdb::storage::encode::splitmix64(x ^ i));
            std::hint::black_box(x);
            t.elapsed().as_secs_f64()
        })
        .collect();
    report::median(&times)
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    let mut host = vec![host_probe()];
    {
        let scratch = Scratch::new(&args.workload);
        match args.workload.as_str() {
            "tpch-tractable" => tpch::run(&tpch::tractable(), &args, &scratch, &mut report),
            "tpch-hard" => tpch::run(&tpch::hard(), &args, &scratch, &mut report),
            "stream-ingest" => stream::run(&args, &scratch, &mut report),
            other => {
                eprintln!("unknown workload {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    host.push(host_probe());
    report.note(format!(
        "host speed probe (a fixed {HOST_PROBE_STEPS}-step SplitMix64 loop, before and after the run): {:.2} ms, {:.2} ms",
        host[0] * 1e3,
        host[1] * 1e3
    ));
    report.complete(args.trace);
    report.print();
}
