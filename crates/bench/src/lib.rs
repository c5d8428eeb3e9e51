//! Shared helpers for the table/figure regeneration binaries.
//!
//! The figure binaries in `src/bin/` regenerate the paper's tables and
//! figures and print the paper's own numbers next to the measured ones,
//! so the comparison (EXPERIMENTS.md) can be refreshed with a single run.

use cenju4_check::outln;

pub mod paper;
pub mod traced;

/// The command line of a figure binary: `[scale] [--trace-out PATH]
/// [--metrics-out PATH]`, flags as `--flag VALUE` or `--flag=VALUE`.
///
/// `scale` is a positive problem-size multiplier (the trial or round
/// count for some binaries). `--trace-out` writes a Chrome
/// `trace_event` JSON of the binary's golden scenario; `--metrics-out`
/// writes its histograms and counters (JSON when the path ends in
/// `.json`, flat text otherwise). A binary takes the scale only if it
/// has a default for it, and the two flags only if it has a traced
/// scenario; anything else is a usage error.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FigArgs {
    /// The problem-scale multiplier, or the binary's default (0 for a
    /// binary that takes none).
    pub scale: f64,
    /// Destination for the Chrome trace, if requested.
    pub trace_out: Option<String>,
    /// Destination for the metrics dump, if requested.
    pub metrics_out: Option<String>,
}

impl FigArgs {
    /// Parses the process arguments; on a usage error prints it with the
    /// binary's usage line to stderr and exits with status 2.
    pub fn from_env(default_scale: Option<f64>, traced: bool) -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args[1..], default_scale, traced).unwrap_or_else(|e| {
            let bin = args
                .first()
                .map_or("<binary>", |a| a.rsplit('/').next().unwrap_or(a));
            let scale = default_scale.map_or("", |_| " [scale]");
            let flags = if traced {
                " [--trace-out PATH] [--metrics-out PATH]"
            } else {
                ""
            };
            eprintln!("{e}\nusage: {bin}{scale}{flags}");
            std::process::exit(2)
        })
    }

    /// Parses `args` (the program name excluded). `default_scale` is
    /// `None` for a binary that takes no scale; `traced` says whether it
    /// takes `--trace-out`/`--metrics-out`.
    ///
    /// # Errors
    ///
    /// Describes the first argument the binary does not take: an unknown
    /// flag, a flag without a value, a second positional, or a scale
    /// that is not a positive finite number.
    pub fn parse<S: AsRef<str>>(
        args: &[S],
        default_scale: Option<f64>,
        traced: bool,
    ) -> Result<Self, String> {
        let mut out = FigArgs {
            scale: default_scale.unwrap_or(0.0),
            ..FigArgs::default()
        };
        let mut scale_given = false;
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(arg) = args.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                let (name, value) = match flag.split_once('=') {
                    Some((n, v)) => (n, Some(v)),
                    None => (flag, args.next()),
                };
                let slot = match name {
                    "trace-out" if traced => &mut out.trace_out,
                    "metrics-out" if traced => &mut out.metrics_out,
                    _ => return Err(format!("unknown flag --{name}")),
                };
                let value = value.ok_or_else(|| format!("--{name} requires a value"))?;
                *slot = Some(value.to_owned());
            } else if default_scale.is_some() && !scale_given {
                out.scale = arg
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("scale must be a positive number; got {arg:?}"))?;
                scale_given = true;
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(out)
    }

    /// Whether any artifact was requested.
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Writes the requested artifacts from a traced run's collector and
    /// reports each written path on stdout.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing either artifact.
    pub fn write(&self, col: &cenju4::obs::SpanCollector) -> std::io::Result<()> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, cenju4::obs::chrome_trace_json(col))?;
            outln!("wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
        }
        if let Some(path) = &self.metrics_out {
            let m = col.metrics();
            let dump = if path.ends_with(".json") {
                m.to_json()
            } else {
                m.to_text()
            };
            std::fs::write(path, dump)?;
            outln!("wrote metrics to {path}");
        }
        Ok(())
    }
}

/// Formats a measured-vs-paper pair with the relative error.
///
/// # Examples
///
/// ```
/// let s = cenju4_bench::vs(1710.0, 1690.0);
/// assert!(s.contains("+1.2%"));
/// ```
pub fn vs(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return format!("{measured:.1} (paper: n/a)");
    }
    let err = (measured - paper) / paper * 100.0;
    format!("{measured:.1} (paper {paper:.1}, {err:+.1}%)")
}

/// Prints a rule line of the given width.
pub fn rule(width: usize) {
    outln!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigArgs, String> {
        FigArgs::parse(args, Some(2.0), true)
    }

    #[test]
    fn scale_and_flags_parse_in_any_order() {
        let want = FigArgs {
            scale: 0.5,
            trace_out: Some("t.json".into()),
            metrics_out: Some("m.txt".into()),
        };
        for args in [
            &["0.5", "--trace-out", "t.json", "--metrics-out", "m.txt"][..],
            &["--trace-out=t.json", "0.5", "--metrics-out=m.txt"],
            &["--metrics-out", "m.txt", "--trace-out", "t.json", "0.5"],
        ] {
            assert_eq!(parse(args), Ok(want.clone()), "{args:?}");
        }
        assert_eq!(parse(&[]).unwrap().scale, 2.0);
        assert_eq!(parse(&["--trace-out", "t"]).unwrap().scale, 2.0);
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        // `--bogus 0.05` must not run at the default scale with 0.05 eaten.
        assert_eq!(
            parse(&["--bogus", "0.05"]),
            Err("unknown flag --bogus".into())
        );
        assert!(parse(&["0.05", "--bogus=1"]).is_err());
        assert!(parse(&["--trace-out"]).is_err(), "flag without a value");
        // A binary without a traced scenario takes neither flag.
        assert!(FigArgs::parse(&["--trace-out", "t"], Some(2.0), false).is_err());
    }

    #[test]
    fn bad_positionals_are_usage_errors() {
        for args in [&["0"][..], &["-1"], &["x"], &["NaN"], &["inf"], &["1", "2"]] {
            assert!(parse(args).is_err(), "{args:?}");
        }
        // A binary that takes no scale takes no positional at all.
        assert!(FigArgs::parse(&["1"], None, true).is_err());
        assert_eq!(FigArgs::parse::<&str>(&[], None, false).unwrap().scale, 0.0);
    }

    #[test]
    fn vs_formats_error() {
        assert!(vs(110.0, 100.0).contains("+10.0%"));
        assert!(vs(90.0, 100.0).contains("-10.0%"));
        assert!(vs(5.0, 0.0).contains("n/a"));
    }
}
