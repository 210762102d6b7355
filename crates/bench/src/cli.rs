//! Minimal command-line parsing for the experiment binaries.

/// Common experiment flags.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Dataset scale factor (1.0 = the default reproduction scale).
    pub scale: f64,
    /// Master seed override.
    pub seed: Option<u64>,
    /// Emit machine-readable CSV instead of the aligned table.
    pub csv: bool,
    /// Worker threads for the parallel pipeline stages (1 = sequential,
    /// 0 = auto-detect; results are bit-identical at any value).
    pub threads: usize,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: 1.0,
            seed: None,
            csv: false,
            threads: 1,
        }
    }
}

/// Parses `--scale <f64>`, `--seed <u64>`, `--threads <usize>` and `--csv`
/// from an argument iterator; unknown flags abort with a usage message.
///
/// # Panics
///
/// Exits the process (status 2) on malformed arguments.
#[must_use]
pub fn parse(mut it: impl Iterator<Item = String>, usage: &str) -> CommonArgs {
    let mut out = CommonArgs::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                out.scale = value(&mut it, "--scale", usage);
                if out.scale <= 0.0 {
                    die(usage, "--scale must be positive");
                }
            }
            "--seed" => out.seed = Some(value(&mut it, "--seed", usage)),
            "--threads" => out.threads = value(&mut it, "--threads", usage),
            "--csv" => out.csv = true,
            other => help_or_die(other, usage),
        }
    }
    out
}

/// Flags of the report binaries `perf_report` and `tournament`.
#[derive(Clone, Debug)]
pub struct ReportArgs {
    /// CI-sized run: [`QUICK_CHUNKS`] instead of [`FULL_CHUNKS`] logical
    /// chunks per backup.
    pub quick: bool,
    /// Worker threads for the parallel paths (0 = auto-detect).
    pub threads: usize,
    /// Root directory for `perf_report`'s durable-store rows, if given.
    pub persist: Option<String>,
    /// Report path.
    pub out: String,
}

/// Logical chunks per backup of a full-size report run.
pub const FULL_CHUNKS: usize = 1_000_000;
/// Logical chunks per backup of a `--quick` report run.
pub const QUICK_CHUNKS: usize = 60_000;

impl ReportArgs {
    /// Logical chunks per backup for this run.
    #[must_use]
    pub fn chunks(&self) -> usize {
        if self.quick {
            QUICK_CHUNKS
        } else {
            FULL_CHUNKS
        }
    }
}

/// Parses `--quick`, `--threads <usize>`, `--out <path>` and, when
/// `persist` is set, `--persist <dir>`.
///
/// # Panics
///
/// Exits the process (status 2) on malformed arguments.
#[must_use]
pub fn parse_report(
    mut it: impl Iterator<Item = String>,
    usage: &str,
    persist: bool,
) -> ReportArgs {
    let mut out = ReportArgs {
        quick: false,
        threads: 0,
        persist: None,
        out: "BENCH_attack.json".to_string(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--threads" => out.threads = value(&mut it, "--threads", usage),
            "--persist" if persist => out.persist = Some(value(&mut it, "--persist", usage)),
            "--out" => out.out = value(&mut it, "--out", usage),
            other => help_or_die(other, usage),
        }
    }
    out
}

/// Prints `msg` and the usage text to stderr and exits with status 2.
pub fn die(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

/// Parses the value that follows `flag`, or exits through [`die`].
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    usage: &str,
) -> T {
    let v = it
        .next()
        .unwrap_or_else(|| die(usage, &format!("{flag} needs a value")));
    v.parse()
        .unwrap_or_else(|_| die(usage, &format!("{flag}: cannot parse {v:?}")))
}

/// Handles `--help`/`-h` (usage to stdout, exit 0); any other flag is
/// unknown.
fn help_or_die(flag: &str, usage: &str) -> ! {
    if matches!(flag, "--help" | "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    die(usage, &format!("unknown flag {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| (*s).to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn defaults() {
        let a = parse(args(&[]), "u");
        assert!((a.scale - 1.0).abs() < 1e-12);
        assert_eq!(a.seed, None);
        assert!(!a.csv);
        assert_eq!(a.threads, 1);
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(
            args(&["--scale", "0.5", "--seed", "7", "--csv", "--threads", "8"]),
            "u",
        );
        assert!((a.scale - 0.5).abs() < 1e-12);
        assert_eq!(a.seed, Some(7));
        assert!(a.csv);
        assert_eq!(a.threads, 8);
    }

    #[test]
    fn threads_zero_means_auto() {
        let a = parse(args(&["--threads", "0"]), "u");
        assert_eq!(a.threads, 0);
    }

    #[test]
    fn report_flags() {
        let a = parse_report(args(&[]), "u", false);
        assert!(!a.quick);
        assert_eq!((a.threads, a.chunks()), (0, FULL_CHUNKS));
        assert_eq!((a.persist, a.out.as_str()), (None, "BENCH_attack.json"));
        let a = parse_report(
            args(&["--quick", "--threads", "1", "--persist", "d", "--out", "o"]),
            "u",
            true,
        );
        assert_eq!((a.threads, a.chunks()), (1, QUICK_CHUNKS));
        assert_eq!((a.persist.as_deref(), a.out.as_str()), (Some("d"), "o"));
    }
}
