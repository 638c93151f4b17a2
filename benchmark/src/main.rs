//! Wire-level end-to-end benchmark of the ODIN server with a per-layer
//! budget. See `benchmark/README.md`.
//!
//! ```text
//! odin-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! odin-benchmark suite --seed <n> --seconds <s> --out <file>
//! odin-benchmark compare --a <file>... --b <file>...
//! odin-benchmark make-fixtures
//! odin-benchmark print-contract        # the contents of /BENCHMARK.json
//! ```

mod compare;
mod drift;
mod fixtures;
mod http;
mod json;
mod load;
mod probes;
mod prom;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spec::Workload;

/// `--flag value...` pairs after the subcommand; a flag may repeat or
/// take several values (`compare --a f1 f2 --b g1`).
struct Flags(Vec<(String, Vec<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out: Vec<(String, Vec<String>)> = Vec::new();
        for arg in args {
            if let Some(name) = arg.strip_prefix("--") {
                out.push((name.to_string(), Vec::new()));
            } else {
                out.last_mut()
                    .ok_or_else(|| format!("unexpected argument `{arg}`"))?
                    .1
                    .push(arg.clone());
            }
        }
        Ok(Flags(out))
    }

    fn all(&self, name: &str) -> Vec<String> {
        self.0.iter().filter(|(n, _)| n == name).flat_map(|(_, v)| v.iter().cloned()).collect()
    }

    fn one(&self, name: &str) -> Result<Option<String>, String> {
        let mut values = self.all(name);
        match values.len() {
            0 => Ok(None),
            1 => Ok(values.pop()),
            n => Err(format!("--{name} takes one value, got {n}")),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.one(name)?
            .map(|v| v.parse::<T>().map_err(|_| format!("--{name}: cannot parse `{v}`")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?.ok_or_else(|| format!("--{name} is required"))
    }

    fn root(&self) -> Result<PathBuf, String> {
        Ok(self.parsed("root")?.unwrap_or_else(|| PathBuf::from("benchmark")))
    }
}

fn seconds(flags: &Flags) -> Result<f64, String> {
    let s: f64 = flags.parsed("seconds")?.unwrap_or(f64::from(spec::RUN_SECONDS));
    if s.is_finite() && s > 0.0 && s <= 600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 600], got {s}"))
    }
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let started = Instant::now();
    let name: String = flags.required("workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let args = workload::RunArgs {
        workload,
        seed: flags.required("seed")?,
        seconds: seconds(flags)?,
        traced: match flags.required::<u8>("trace")? {
            0 => false,
            1 => true,
            n => return Err(format!("--trace is 0 or 1, got {n}")),
        },
        root: flags.root()?,
    };
    let reference = run::Reference {
        latency_p50_ms: flags.parsed("ref-p50-ms")?,
        frames_per_s: flags.parsed("ref-fps")?,
    };
    let result = run::run(&args, reference);
    run::print_human(&result, started);
    if let Some(path) = flags.parsed::<PathBuf>("json-out")? {
        suite::write_file(&path, &result.to_json().render())?;
    }
    // The contract's result: the last line of standard output.
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn cmd_suite(flags: &Flags) -> Result<ExitCode, String> {
    let root = flags.root()?;
    let args = suite::SuiteArgs {
        seed: flags.parsed("seed")?.unwrap_or(1),
        seconds: seconds(flags)?,
        out: flags.parsed("out")?.unwrap_or_else(|| root.join("out").join("BENCH_e2e.json")),
        root,
    };
    Ok(if suite::suite(&args)? {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one output check failed");
        ExitCode::FAILURE
    })
}

fn cmd_compare(flags: &Flags) -> Result<ExitCode, String> {
    let paths =
        |name: &str| -> Vec<PathBuf> { flags.all(name).into_iter().map(PathBuf::from).collect() };
    let (a, b) = (paths("a"), paths("b"));
    if a.is_empty() || b.is_empty() {
        return Err("compare needs --a <file>... and --b <file>...".into());
    }
    Ok(if compare::compare(&a, &b)? { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: odin-benchmark <run|suite|compare|make-fixtures|print-contract> [flags]");
        return ExitCode::from(2);
    };
    let outcome = Flags::parse(rest).and_then(|flags| match command.as_str() {
        "run" => cmd_run(&flags),
        "suite" => cmd_suite(&flags),
        "compare" => cmd_compare(&flags),
        "make-fixtures" => fixtures::Fixtures::new(&flags.root()?)
            .make()
            .map(|()| ExitCode::SUCCESS)
            .map_err(|e| format!("writing fixtures: {e}")),
        "print-contract" => {
            print!("{}", spec::contract().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
